"""Deterministic cryptographically-styled PRNG.

The simulator must be bit-for-bit reproducible under a seed, including every
"random" nonce the auth protocol generates, so nodes draw randomness from a
deterministic SHA-256 counter-mode generator rather than from the OS.

``Sha256Prng`` also subclasses :class:`random.Random`, so it can be passed
anywhere a standard library ``Random`` is expected (e.g. RSA key generation).
"""

from __future__ import annotations

import hashlib
import random
from typing import Optional

__all__ = ["Sha256Prng", "derive_seed"]


def derive_seed(root_seed: int, *labels: object) -> int:
    """Derive an independent 128-bit child seed from a root seed and labels.

    Every node, component and repetition in the simulator derives its own
    stream this way, so that e.g. adding a node never perturbs the randomness
    of existing nodes (a common source of irreproducible simulations).
    """
    hasher = hashlib.sha256()
    hasher.update(root_seed.to_bytes(32, "big", signed=False))
    for label in labels:
        encoded = repr(label).encode()
        hasher.update(len(encoded).to_bytes(4, "big"))
        hasher.update(encoded)
    return int.from_bytes(hasher.digest()[:16], "big")


class Sha256Prng(random.Random):
    """SHA-256 counter-mode deterministic random generator.

    The output stream is SHA-256(seed || counter) for counter = 0, 1, ...
    Buffered so sequential small requests cost one hash per 32 bytes.
    """

    def __init__(self, seed: int = 0):
        self._seed_bytes = b""
        self._counter = 0
        self._buffer = b""
        super().__init__(seed)

    # -- random.Random overrides ------------------------------------------

    def seed(self, a=0, version=2) -> None:  # noqa: D102 - inherited contract
        if isinstance(a, bytes):
            seed_bytes = a
        elif isinstance(a, int):
            seed_bytes = a.to_bytes(32, "big", signed=False)
        elif a is None:
            seed_bytes = b"\x00" * 32
        else:
            seed_bytes = hashlib.sha256(repr(a).encode()).digest()
        self._seed_bytes = hashlib.sha256(b"sha256prng" + seed_bytes).digest()
        self._counter = 0
        self._buffer = b""

    def getstate(self):
        return (self._seed_bytes, self._counter, self._buffer)

    def setstate(self, state) -> None:
        self._seed_bytes, self._counter, self._buffer = state

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return self.getrandbits(53) / (1 << 53)

    def getrandbits(self, k: int) -> int:
        if k < 0:
            raise ValueError("number of bits must be non-negative")
        if k == 0:
            return 0
        data = self.bytes((k + 7) // 8)
        return int.from_bytes(data, "big") >> ((len(data) * 8) - k)

    # -- extra API ----------------------------------------------------------

    def bytes(self, n: int) -> bytes:
        """Return ``n`` deterministic pseudo-random bytes."""
        while len(self._buffer) < n:
            block = hashlib.sha256(
                self._seed_bytes + self._counter.to_bytes(8, "big")
            ).digest()
            self._counter += 1
            self._buffer += block
        out, self._buffer = self._buffer[:n], self._buffer[n:]
        return out

    def nonce(self, size: int = 16) -> bytes:
        """Fresh nonce for the auth handshake (deterministic under the seed)."""
        return self.bytes(size)

    def spawn(self, *labels: object) -> "Sha256Prng":
        """Create an independent child generator keyed by ``labels``."""
        child_seed = derive_seed(
            int.from_bytes(self._seed_bytes[:16], "big"), *labels
        )
        return Sha256Prng(child_seed)
