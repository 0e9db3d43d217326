"""AES-CTR stream mode, as used by RAPTEE for symmetric encryption (§V).

CTR turns the AES block cipher into a stream cipher: the keystream is the
encryption of successive counter blocks (nonce || counter), XORed with the
message.  Encryption and decryption are the same operation.

Two entry points, one per calling pattern (see :mod:`repro.crypto.aes`):

* :class:`AesCtr` — one message under one ``(key, nonce)``, block by block
  on the T-table path.  Its callers (authentication proofs, sealed storage)
  come back with the same few long-lived keys, so the constructor keeps the
  expanded cipher per key.
* :func:`keystream_rows` — the batch entry point: the keystream of several
  *consecutive nonces* under one cipher in a single numpy pass.  The
  keystream depends on ``(key, nonce, counter)`` only, so it may be computed
  before the plaintext exists (NIST SP 800-38A §6.5); the simulated wire
  uses that to read a whole session's keystream ahead.  Row ``i`` equals
  ``AesCtr(key, first_nonce + i).keystream(16 * blocks)`` byte for byte.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.crypto.aes import AES128, BLOCK_SIZE

__all__ = ["AesCtr", "NONCE_SIZE", "keystream_rows"]

NONCE_SIZE = 8

_NONCE_LIMIT = 1 << (8 * NONCE_SIZE)

# One expansion per proof / sealing key instead of one per message: a node
# proves with one key for its whole life.  Bounded, so adversarially many
# distinct keys cannot grow it; transport pair keys never come through here
# (the network owns its ciphers and drops them with the pair).
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


def keystream_rows(
    cipher: AES128, first_nonce: int, rows: int, blocks: int
) -> np.ndarray:
    """Keystream for ``rows`` consecutive nonces, ``blocks`` blocks each.

    Returns a ``[rows, 16 * blocks]`` uint8 matrix: row ``i`` is the
    keystream of nonce ``first_nonce + i`` from block counter 0.  A nonce
    that does not fit its 8 bytes raises :class:`OverflowError`, as
    ``int.to_bytes(8, "big")`` does on the per-message path — CTR must
    never wrap a nonce around.
    """
    if first_nonce < 0 or first_nonce + rows > _NONCE_LIMIT:
        raise OverflowError(
            f"nonces {first_nonce}..{first_nonce + rows - 1} do not fit "
            f"{NONCE_SIZE} bytes"
        )
    counter_blocks = np.empty((rows, blocks, 2), dtype=">u8")
    counter_blocks[:, :, 0] = (
        np.uint64(first_nonce) + np.arange(rows, dtype=np.uint64)
    )[:, None]
    counter_blocks[:, :, 1] = np.arange(blocks, dtype=np.uint64)
    keystream = cipher.encrypt_blocks(
        counter_blocks.view(np.uint8).reshape(rows * blocks, BLOCK_SIZE)
    )
    return keystream.reshape(rows, blocks * BLOCK_SIZE)
