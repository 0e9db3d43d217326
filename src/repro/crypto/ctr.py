"""AES-CTR stream mode, as used by RAPTEE for symmetric encryption (§V).

CTR turns the AES block cipher into a stream cipher: the keystream is the
encryption of successive counter blocks (nonce || counter), XORed with the
message.  Encryption and decryption are the same operation.

:class:`AesCtr` encrypts one message under one ``(key, nonce)``, one
:meth:`repro.crypto.aes.AES128.encrypt_block` per 16 bytes.  Its callers
(``auth_mode="aes-ctr"`` proofs, sealed storage) come back with the same
few long-lived keys, so the constructor keeps the expanded cipher per key.
The simulated wire runs no cipher at all: it counts the bytes it would
encrypt (:mod:`repro.sim.network`).
"""

from __future__ import annotations

from functools import lru_cache

from repro.crypto.aes import AES128, BLOCK_SIZE

__all__ = ["AesCtr", "NONCE_SIZE"]

NONCE_SIZE = 8

# One expansion per proof / sealing key instead of one per message: a node
# proves with one key for its whole life.  Bounded, so adversarially many
# distinct keys cannot grow it.
_cipher_for_key = lru_cache(maxsize=4096)(AES128)


class AesCtr:
    """AES-128 in counter mode with an 8-byte nonce and 8-byte block counter.

    A (key, nonce) pair must never be reused for two different messages; the
    caller (see :class:`repro.core.auth.AuthScheme` and
    :mod:`repro.sgx.sealing`) derives a fresh nonce per message.
    """

    def __init__(self, key: bytes, nonce: bytes):
        if len(nonce) != NONCE_SIZE:
            raise ValueError(f"nonce must be {NONCE_SIZE} bytes, got {len(nonce)}")
        self._cipher = _cipher_for_key(bytes(key))
        self._nonce = nonce

    def keystream(self, length: int, initial_counter: int = 0) -> bytes:
        """The raw keystream: AES(nonce || counter) for successive counters."""
        blocks = []
        counter = initial_counter
        produced = 0
        encrypt_block = self._cipher.encrypt_block
        nonce = self._nonce
        while produced < length:
            counter_block = nonce + counter.to_bytes(8, "big")
            blocks.append(encrypt_block(counter_block))
            produced += BLOCK_SIZE
            counter += 1
        return b"".join(blocks)[:length]

    def encrypt(self, plaintext: bytes, initial_counter: int = 0) -> bytes:
        """Encrypt (or decrypt) ``plaintext`` starting at ``initial_counter``."""
        keystream = self.keystream(len(plaintext), initial_counter)
        # One big-int XOR instead of a per-byte Python loop; equal by
        # definition of XOR on the big-endian integer encoding.
        return (
            int.from_bytes(plaintext, "big") ^ int.from_bytes(keystream, "big")
        ).to_bytes(len(plaintext), "big")

    # CTR is an involution: decrypting is encrypting the ciphertext.
    decrypt = encrypt
