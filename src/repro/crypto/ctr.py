"""AES-CTR stream mode, as used by RAPTEE for symmetric encryption (§V).

CTR turns the AES block cipher into a stream cipher: the keystream is the
encryption of successive counter blocks (nonce || counter), XORed with the
message.  Encryption and decryption are the same operation.
"""

from __future__ import annotations

from repro.crypto.aes import AES128, BLOCK_SIZE

__all__ = ["AesCtr", "NONCE_SIZE"]

NONCE_SIZE = 8


class AesCtr:
    """AES-128 in counter mode with an 8-byte nonce and 8-byte block counter.

    A (key, nonce) pair must never be reused for two different messages; the
    caller (see :class:`repro.core.auth.MutualAuth` and
    :class:`repro.sim.network.Network`) derives a fresh nonce per message.
    """

    def __init__(self, key: bytes, nonce: bytes):
        if len(nonce) != NONCE_SIZE:
            raise ValueError(f"nonce must be {NONCE_SIZE} bytes, got {len(nonce)}")
        self._cipher = AES128(key)
        self._nonce = nonce

    @classmethod
    def from_cipher(cls, cipher: AES128, nonce: bytes) -> "AesCtr":
        """Build a CTR stream over an existing block cipher.

        The transport layer keeps one :class:`AES128` per node pair and
        re-nonces it per message; this constructor skips the per-message
        key expansion that ``AesCtr(key, nonce)`` would repeat.
        """
        if len(nonce) != NONCE_SIZE:
            raise ValueError(f"nonce must be {NONCE_SIZE} bytes, got {len(nonce)}")
        stream = object.__new__(cls)
        stream._cipher = cipher
        stream._nonce = nonce
        return stream

    def keystream(self, length: int, initial_counter: int = 0) -> bytes:
        """The raw keystream: AES(nonce || counter) for successive counters.

        Public because CTR's XOR symmetry lets a simulated wire apply one
        keystream for the encrypt *and* decrypt halves of a round trip.
        """
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

    # Backwards-compatible private alias (pre-perf-layer name).
    _keystream = keystream

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
