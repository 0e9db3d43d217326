"""RAPTEE's mutual authentication protocol (§IV-A).

Flow between initiator A and responder B, each holding a symmetric key
(trusted nodes share the provisioned group key K_T; every untrusted node has
its own random key):

1. A → B: r_A                      (pseudo-random challenge)
2. B → A: r_B, [H(r_A‖r_B)]_{K_B}  (proof under B's key)
3. A checks the proof with K_A; equality ⟺ K_A = K_B ⟺ both trusted.
4. A → B: [H(r_B‖r_A)]_{K_A}; B checks symmetrically.

Soundness rests on the proof being computable only with the key.  Two
interchangeable proof schemes are provided:

* ``aes-ctr`` — the paper's literal construction: AES-CTR-encrypt the hash
  under the key (the nonce is derived from the peer's challenge, so both
  sides compute the same ciphertext);
* ``hmac`` — HMAC-SHA256(key, framing‖r_A‖r_B), the standard realization of
  the same "prove knowledge of the key over both nonces" goal.  It is the
  default in large simulations because it runs at C speed; the test suite
  proves both schemes accept/reject identically.

A failed comparison reveals only "the peer does not share my key" — an
untrusted node learns nothing about whether the peer is trusted, Byzantine,
or simply another untrusted node, which is what keeps trusted nodes hidden.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.crypto.ctr import AesCtr
from repro.crypto.hashing import FramedHash, constant_time_equal, hmac_sha256

__all__ = ["AuthScheme", "NONCE_BYTES", "KEY_BYTES"]

NONCE_BYTES = 16
KEY_BYTES = 16

_SCHEMES = ("hmac", "aes-ctr")

# H(first‖second) is ``concat_hash(b"raptee-auth", first, second)``; the
# label's framing is hashed once per process, not once per proof.
_AUTH_HASH = FramedHash(b"raptee-auth")


@dataclass(frozen=True)
class AuthScheme:
    """Stateless proof construction/verification for one proof mode."""

    mode: str = "hmac"

    def __post_init__(self) -> None:
        if self.mode not in _SCHEMES:
            raise ValueError(f"unknown auth scheme {self.mode!r}; pick from {_SCHEMES}")

    # -- building blocks -----------------------------------------------------

    def _proof(self, key: bytes, first: bytes, second: bytes) -> bytes:
        """[H(first‖second)]_key."""
        digest = _AUTH_HASH(first, second)
        if self.mode == "hmac":
            return hmac_sha256(key, digest)
        # aes-ctr: encrypt the digest; the nonce comes from the *second*
        # nonce (the one freshly contributed by the proving side), so both
        # parties derive the same counter stream deterministically.
        return AesCtr(key, second[:8]).encrypt(digest)

    def _check(self, key: bytes, first: bytes, second: bytes, proof: bytes) -> bool:
        return constant_time_equal(self._proof(key, first, second), proof)

    # -- protocol steps ---------------------------------------------------------

    @staticmethod
    def make_challenge(rng: random.Random) -> bytes:
        """Step 1: A draws r_A."""
        return rng.getrandbits(NONCE_BYTES * 8).to_bytes(NONCE_BYTES, "big")

    def respond(self, key: bytes, r_a: bytes, rng: random.Random) -> "AuthResponseParts":
        """Step 2: B draws r_B and proves knowledge of its key over (r_A, r_B)."""
        r_b = rng.getrandbits(NONCE_BYTES * 8).to_bytes(NONCE_BYTES, "big")
        return AuthResponseParts(r_b=r_b, proof=self._proof(key, r_a, r_b))

    def check_response(self, key: bytes, r_a: bytes, r_b: bytes, proof: bytes) -> bool:
        """Step 3: A accepts iff B's proof matches under A's own key."""
        return self._check(key, r_a, r_b, proof)

    def confirm(self, key: bytes, r_a: bytes, r_b: bytes) -> bytes:
        """Step 4: A proves its own key over the reversed pair (r_B, r_A)."""
        return self._proof(key, r_b, r_a)

    def check_confirm(self, key: bytes, r_a: bytes, r_b: bytes, proof: bytes) -> bool:
        """Step 4 (B side): accept iff A's proof matches under B's key."""
        return self._check(key, r_b, r_a, proof)


@dataclass(frozen=True)
class AuthResponseParts:
    """B's contribution in step 2."""

    r_b: bytes
    proof: bytes
