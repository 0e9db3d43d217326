"""Min-wise independent permutation family (Broder et al., 2000).

Brahms' sampling component achieves uniformity by equipping every sampler
with a hash function drawn at random from a min-wise independent family and
retaining the stream element with the minimal hash (§II, Fig. 2).  We provide
the standard approximately-min-wise construction ``h(x) = (a*x + b) mod p``
over a Mersenne prime field, which is the construction used in practice.

The default field is p = 2^31 − 1: coefficients and reduced inputs fit in
31 bits, so products stay below 2^62 and the whole family evaluates safely
in int64 — which is what lets :class:`repro.brahms.sampler.SamplerGroup`
batch-evaluate it with numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import random  # annotation-only: the family draw rng is always injected

__all__ = [
    "MinWiseHash",
    "MinWiseFamily",
    "MERSENNE_PRIME_31",
    "MERSENNE_PRIME_61",
    "scramble64",
    "splitmix64_array",
]

MERSENNE_PRIME_31 = (1 << 31) - 1
MERSENNE_PRIME_61 = (1 << 61) - 1

# 2-universal linear hashing is only *approximately* min-wise, and its bias
# is worst on structured inputs — arithmetic progressions like the simulator's
# consecutive node IDs.  An affine scramble does not help: it maps one
# progression to another, and a family a*r + b over a progression favours
# both of its ends (by 20-45% at the simulator's sizes, and the lowest ids
# are the Byzantine ones).  The SplitMix64 finaliser below — xor-shifts
# between odd multiplies — leaves no such structure for the linear map to
# see; it is a bijection on 64-bit words, so distinctness is preserved.
SPLITMIX64_M1 = 0xBF58476D1CE4E5B9
SPLITMIX64_M2 = 0x94D049BB133111EB
_WORD_MASK = (1 << 64) - 1


def scramble64(value: int) -> int:
    """Fixed bijective 64-bit input scramble applied before linear hashing:
    the SplitMix64 finaliser (scalar reference of :func:`splitmix64_array`)."""
    x = value & _WORD_MASK
    x = ((x ^ (x >> 30)) * SPLITMIX64_M1) & _WORD_MASK
    x = ((x ^ (x >> 27)) * SPLITMIX64_M2) & _WORD_MASK
    return x ^ (x >> 31)


def splitmix64_array(values):
    """Vectorised :func:`scramble64` over a uint64 array: uint64 arithmetic
    wraps modulo 2^64, so the xor-shift/multiply pipeline computes the
    masked scalar's integers exactly (``tests/test_perf_kernels.py``)."""
    x = np.asarray(values, dtype=np.uint64)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(SPLITMIX64_M1)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(SPLITMIX64_M2)
    return x ^ (x >> np.uint64(31))


@dataclass(frozen=True)
class MinWiseHash:
    """One function ``h(x) = (a*(scramble64(x) mod p) + b) mod p`` from the
    2-universal family.  2-universal linear hashing is approximately
    min-wise independent: drawing (a, b) uniformly makes every stream
    element (nearly) equally likely to be the minimum."""

    a: int
    b: int
    p: int = MERSENNE_PRIME_31

    def __post_init__(self) -> None:
        if not 0 < self.a < self.p:
            raise ValueError("coefficient a must be in (0, p)")
        if not 0 <= self.b < self.p:
            raise ValueError("coefficient b must be in [0, p)")

    def __call__(self, value: int) -> int:
        return (self.a * (scramble64(value) % self.p) + self.b) % self.p


class MinWiseFamily:
    """Factory drawing independent hash functions from a seeded RNG."""

    def __init__(self, rng: random.Random):
        self._rng = rng

    def draw(self) -> MinWiseHash:
        """Draw one fresh, independent hash function."""
        a = self._rng.randrange(1, MERSENNE_PRIME_31)
        b = self._rng.randrange(0, MERSENNE_PRIME_31)
        return MinWiseHash(a=a, b=b)
