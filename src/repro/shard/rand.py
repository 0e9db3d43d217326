"""Counter-based deterministic randomness for the sharded engine.

The legacy engine draws from sequential ``random.Random`` streams, which
makes every draw depend on global iteration order — exactly what a sharded
engine cannot afford.  Here every random quantity is a *pure function of
its coordinates*: a SplitMix64 finalizer over the tuple

    (seed, purpose, round, a, b)

where ``purpose`` is a small integer code naming the draw site (push
target, loss gate, eviction keep, ...), and ``a``/``b`` are the draw's own
coordinates (usually node id and slot index).  Any shard — any *process* —
can evaluate any draw without communicating, and the result is identical
regardless of partitioning, scheduling, or backend.

Purpose codes are integers, never strings: Python's ``hash(str)`` is
randomized per process (PYTHONHASHSEED), and the whole point is that two
processes agree.

The scalar path below is pure Python (``mix64`` is the masked 64-bit
finalizer the min-wise hashes scramble their input with,
:func:`repro.crypto.minwise.scramble64`); the vectorized path in
:func:`key_array` runs on :func:`repro.perf.kernels.splitmix64_array` and
computes the *same* integers (uint64 wrap-around is the mask).  ``tests/test_shard_engine.py``
pins the scalar/vector agreement.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.crypto.minwise import scramble64 as mix64
from repro.perf.kernels import splitmix64_array

__all__ = [
    "mix64",
    "key64",
    "key_array",
    "rand_float",
    "rand_below",
    "keyed_order",
    "Purpose",
]

#: Odd constants decorrelating the tuple positions before mixing (the
#: golden-ratio increment of SplitMix64 and three arbitrary odd primes).
_C_PURPOSE = 0x9E3779B97F4A7C15
_C_ROUND = 0xC2B2AE3D27D4EB4F
_C_A = 0xD6E8FEB86659FD93
_C_B = 0xA5A3B195354A9B0D


class Purpose:
    """Integer draw-site codes (see module docstring for why not strings)."""

    PUSH_TARGET = 1
    PULL_TARGET = 2
    PUSH_LOSS = 3
    SESSION_LOSS = 4
    ADV_ORDER = 5
    FAKE_VIEW = 6
    EVICT_KEEP = 7
    SAMPLER_A = 8
    SAMPLER_B = 9
    SAMPLER_RESET_A = 10
    SAMPLER_RESET_B = 11
    RENEW_PUSH = 12
    RENEW_PULL = 13
    RENEW_GAMMA = 14
    BOOTSTRAP = 15


def key64(seed: int, purpose: int, round_no: int, a: int = 0, b: int = 0) -> int:
    """The 64-bit hash of one draw coordinate tuple."""
    base = mix64(seed ^ (purpose * _C_PURPOSE) ^ (round_no * _C_ROUND))
    return mix64(base ^ (a * _C_A) ^ (b * _C_B))


def _base(seed: int, purpose: int, round_no: int) -> int:
    return mix64(seed ^ (purpose * _C_PURPOSE) ^ (round_no * _C_ROUND))


def key_array(seed: int, purpose: int, round_no: int, a_values, b_values):
    """Vectorized :func:`key64` over parallel coordinate arrays (uint64).

    ``a_values``/``b_values`` broadcast against each other (callers on
    the pure backend loop over :func:`key64`).
    """
    base = np.uint64(_base(seed, purpose, round_no))
    a_arr = np.asarray(a_values, dtype=np.uint64) * np.uint64(_C_A)
    b_arr = np.asarray(b_values, dtype=np.uint64) * np.uint64(_C_B)
    return splitmix64_array(base ^ a_arr ^ b_arr)


def rand_float(seed: int, purpose: int, round_no: int, a: int = 0, b: int = 0) -> float:
    """Uniform float in [0, 1) — the top 53 bits of the key."""
    return (key64(seed, purpose, round_no, a, b) >> 11) * (2.0 ** -53)


def rand_below(n: int, seed: int, purpose: int, round_no: int,
               a: int = 0, b: int = 0) -> int:
    """Uniform-ish integer in [0, n) (modulo reduction; the bias at
    simulation population sizes is < 2^-40 and identical on both
    backends, which is the property that matters here)."""
    return key64(seed, purpose, round_no, a, b) % n


def keyed_order(items: Sequence[int], seed: int, purpose: int, round_no: int,
                a: int = 0) -> List[int]:
    """A deterministic pseudo-random permutation of ``items``.

    Sorts by the per-item key (ties broken by the item itself, so the
    result is a permutation even under key collisions).  Replaces
    ``rng.shuffle``/``rng.sample`` at the sites where the legacy engine
    randomizes order.
    """
    return sorted(items, key=lambda item: (key64(seed, purpose, round_no, a, item), item))
