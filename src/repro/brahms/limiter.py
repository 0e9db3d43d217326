"""Push rate limiting (Brahms defense i).

Brahms *assumes* a mechanism bounding each identity's push rate —
"for example, via computational challenges like Merkle's puzzles, virtual
currency, etc." (§II) — and RAPTEE inherits the assumption to rule out
Sybil and flooding attacks (§III-B).  In the simulations the cap is a
number, not an object: :attr:`BrahmsConfig.effective_push_limit` (α·l1
unless ``push_limit`` overrides it) is what honest nodes send by design,
and the adversary coordinator's total push volume is bounded by (number of
Byzantine identities) × ``BYZANTINE_PUSH_LIMIT_MULTIPLIER`` × that budget,
which is what makes the balanced attack the adversary's optimum.  Nothing
under ``src/`` constructs the two classes below; they are the stand-alone
form of the assumed mechanism, exercised by the tests:

* :class:`PushRateLimiter` — a per-sender, per-round budget enforced at a
  receiving point;
* :class:`ComputationalPuzzle` — a concrete proof-of-work instantiation of
  the assumed challenge mechanism (hash-preimage with difficulty).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.crypto.hashing import sha256

__all__ = ["PushRateLimiter", "ComputationalPuzzle"]


class PushRateLimiter:
    """Per-(sender, round) push budget."""

    def __init__(self, per_round_limit: int):
        if per_round_limit <= 0:
            raise ValueError("per_round_limit must be positive")
        self.per_round_limit = per_round_limit
        self._counts: Dict[Tuple[int, int], int] = {}
        self._current_round = 0

    def start_round(self, round_number: int) -> None:
        """Advance to a new round, discarding stale counters."""
        self._current_round = round_number
        self._counts = {
            key: count for key, count in self._counts.items()
            if key[1] >= round_number
        }

    def allow(self, sender_id: int) -> bool:
        """Consume one push slot for ``sender_id``; False when exhausted."""
        key = (sender_id, self._current_round)
        used = self._counts.get(key, 0)
        if used >= self.per_round_limit:
            return False
        self._counts[key] = used + 1
        return True

    def remaining(self, sender_id: int) -> int:
        used = self._counts.get((sender_id, self._current_round), 0)
        return max(0, self.per_round_limit - used)


class ComputationalPuzzle:
    """Hash-preimage proof-of-work: find a nonce making the hash of
    (challenge || nonce) start with ``difficulty_bits`` zero bits.

    The expected work is 2^difficulty_bits hash evaluations, which is what
    prices pushes and throttles Sybil identity creation.
    """

    def __init__(self, difficulty_bits: int):
        if not 0 < difficulty_bits <= 32:
            raise ValueError("difficulty_bits must be in (0, 32]")
        self.difficulty_bits = difficulty_bits

    def _leading_zero_bits(self, digest: bytes) -> int:
        bits = 0
        for byte in digest:
            if byte == 0:
                bits += 8
                continue
            for shift in range(7, -1, -1):
                if byte >> shift & 1:
                    return bits
                bits += 1
        return bits

    def solve(self, challenge: bytes, max_attempts: int = 1 << 24) -> int:
        """Find a valid nonce; raises RuntimeError if none within the cap."""
        for nonce in range(max_attempts):
            if self.verify(challenge, nonce):
                return nonce
        raise RuntimeError("puzzle not solved within the attempt cap")

    def verify(self, challenge: bytes, nonce: int) -> bool:
        digest = sha256(challenge + nonce.to_bytes(8, "big"))
        return self._leading_zero_bits(digest) >= self.difficulty_bits
