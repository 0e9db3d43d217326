"""AES-128 block cipher, implemented from scratch.

RAPTEE's implementation uses Intel's OpenSSL SGX port with AES in CTR mode
for all symmetric encryption (paper §V).  This module provides the block
cipher; :mod:`repro.crypto.ctr` layers the CTR stream mode on top.

The S-box is derived programmatically from the GF(2^8) multiplicative
inverse and the FIPS-197 affine transform rather than being transcribed as
a literal table, which makes the derivation itself testable.

There is no inverse cipher: CTR mode decrypts by encrypting the same
keystream.  ``encrypt_block`` is a readable transliteration of FIPS-197 —
per-operation SubBytes/ShiftRows/MixColumns over the flat byte state — and
the one block path every caller runs (sealed storage,
``auth_mode="aes-ctr"`` proofs, through :class:`repro.crypto.ctr.AesCtr`).
No simulated wire runs a cipher, so nothing here is on a round's hot path;
the FIPS-197 and NIST SP 800-38A known answers pin it
(``tests/test_crypto_aes.py``, ``tests/test_perf_kernels.py``).

The expanded key is stored once per cipher, as the 176 bytes of FIPS-197's
44 big-endian words, sliced into round keys per call.  Constructing a
cipher leaves nothing behind in module state — callers that see the same
key again keep the cipher (:class:`repro.crypto.ctr.AesCtr` for proof and
sealing keys), so dropping it retires the key.
"""

from __future__ import annotations

import struct
from typing import List, Sequence

__all__ = ["AES128", "BLOCK_SIZE"]

BLOCK_SIZE = 16

# The AES field: GF(2^8) with reduction polynomial x^8 + x^4 + x^3 + x + 1.
_REDUCTION_POLY = 0x11B


def _gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        if a & 0x100:
            a ^= _REDUCTION_POLY
        b >>= 1
    return result


def _gf_inverse(a: int) -> int:
    """Multiplicative inverse in GF(2^8); the inverse of 0 is defined as 0."""
    if a == 0:
        return 0
    # The multiplicative group has order 255, so a^254 = a^-1.
    result = 1
    power = a
    exponent = 254
    while exponent:
        if exponent & 1:
            result = _gf_mul(result, power)
        power = _gf_mul(power, power)
        exponent >>= 1
    return result


def _rotl8(value: int, amount: int) -> int:
    return ((value << amount) | (value >> (8 - amount))) & 0xFF


def _build_sbox() -> List[int]:
    """Derive the AES S-box: inverse in GF(2^8) followed by the affine map."""
    sbox = []
    for value in range(256):
        inv = _gf_inverse(value)
        transformed = (
            inv
            ^ _rotl8(inv, 1)
            ^ _rotl8(inv, 2)
            ^ _rotl8(inv, 3)
            ^ _rotl8(inv, 4)
            ^ 0x63
        )
        sbox.append(transformed)
    return sbox


SBOX: Sequence[int] = tuple(_build_sbox())

# Round constants for key expansion: rcon[i] = x^(i-1) in GF(2^8).
_RCON = [0x01]
for _ in range(9):
    _RCON.append(_gf_mul(_RCON[-1], 0x02))

# Precomputed xtime tables speed up MixColumns noticeably in pure Python.
_MUL2 = tuple(_gf_mul(x, 2) for x in range(256))
_MUL3 = tuple(_gf_mul(x, 3) for x in range(256))


class AES128:
    """AES with a 128-bit key (10 rounds), FIPS-197 compliant.

    Instances are immutable after construction; the expanded key schedule is
    computed once.  Use :class:`repro.crypto.ctr.AesCtr` for stream
    encryption of arbitrary-length messages.
    """

    ROUNDS = 10

    def __init__(self, key: bytes):
        if len(key) != 16:
            raise ValueError(f"AES-128 requires a 16-byte key, got {len(key)}")
        self._schedule = self._expand_key(key)

    @staticmethod
    def _expand_key(key: bytes) -> bytes:
        """FIPS-197 §5.2 key expansion on 32-bit words: the 11 round keys
        as 44 big-endian words, 176 bytes."""
        sbox = SBOX
        w0, w1, w2, w3 = struct.unpack(">4I", key)
        words = [w0, w1, w2, w3]
        for rcon in _RCON:
            # SubWord(RotWord(w3)) ^ Rcon, then the running XOR down the row.
            w0 ^= (
                ((sbox[(w3 >> 16) & 0xFF] ^ rcon) << 24)
                | (sbox[(w3 >> 8) & 0xFF] << 16)
                | (sbox[w3 & 0xFF] << 8)
                | sbox[w3 >> 24]
            )
            w1 ^= w0
            w2 ^= w1
            w3 ^= w2
            words += (w0, w1, w2, w3)
        return struct.pack(">44I", *words)

    def _round_keys(self) -> List[bytes]:
        """The schedule as 11 flat 16-byte round keys."""
        schedule = self._schedule
        return [schedule[i : i + BLOCK_SIZE] for i in range(0, 176, BLOCK_SIZE)]

    # -- state helpers ----------------------------------------------------
    # The state is held column-major as a flat list of 16 ints, matching the
    # byte order of the input block (state[r + 4*c] = byte r of column c).

    @staticmethod
    def _add_round_key(state: List[int], round_key: bytes) -> None:
        for i in range(16):
            state[i] ^= round_key[i]

    @staticmethod
    def _sub_bytes(state: List[int]) -> None:
        for i in range(16):
            state[i] = SBOX[state[i]]

    @staticmethod
    def _shift_rows(state: List[int]) -> None:
        # Row r (bytes r, r+4, r+8, r+12) rotates left by r.
        for r in range(1, 4):
            row = [state[r + 4 * c] for c in range(4)]
            row = row[r:] + row[:r]
            for c in range(4):
                state[r + 4 * c] = row[c]

    @staticmethod
    def _mix_columns(state: List[int]) -> None:
        for c in range(4):
            i = 4 * c
            a0, a1, a2, a3 = state[i], state[i + 1], state[i + 2], state[i + 3]
            state[i] = _MUL2[a0] ^ _MUL3[a1] ^ a2 ^ a3
            state[i + 1] = a0 ^ _MUL2[a1] ^ _MUL3[a2] ^ a3
            state[i + 2] = a0 ^ a1 ^ _MUL2[a2] ^ _MUL3[a3]
            state[i + 3] = _MUL3[a0] ^ a1 ^ a2 ^ _MUL2[a3]

    # -- public API --------------------------------------------------------

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt exactly one 16-byte block: FIPS-197 §5.1, one pass per
        round operation."""
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        round_keys = self._round_keys()
        state = list(block)
        self._add_round_key(state, round_keys[0])
        for round_index in range(1, self.ROUNDS):
            self._sub_bytes(state)
            self._shift_rows(state)
            self._mix_columns(state)
            self._add_round_key(state, round_keys[round_index])
        self._sub_bytes(state)
        self._shift_rows(state)
        self._add_round_key(state, round_keys[self.ROUNDS])
        return bytes(state)
