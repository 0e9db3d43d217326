"""AES-128 block cipher, implemented from scratch.

RAPTEE's implementation uses Intel's OpenSSL SGX port with AES in CTR mode
for all symmetric encryption (paper §V).  This module provides the block
cipher; :mod:`repro.crypto.ctr` layers the CTR stream mode on top.

The S-box and its inverse are derived programmatically from the GF(2^8)
multiplicative inverse and the FIPS-197 affine transform rather than being
transcribed as literal tables, which makes the derivation itself testable.

Three encryption paths coexist, one per calling pattern:

* the *reference* path — per-operation SubBytes/ShiftRows/MixColumns over
  the flat byte state, a readable transliteration of FIPS-197;
* a *T-table* path — the classic software-AES optimisation that merges the
  three round operations into four 256-entry 32-bit word tables, derived
  here from the same S-box and GF tables rather than transcribed;
* a *batch* path — the same T-tables as one flat numpy array, applied to a
  ``[B, 16]`` matrix of blocks at once.  A numpy pass costs ~100 µs
  however few blocks it gets (about what seven blocks cost on the T-table
  path), so it pays only where a caller has many blocks under one key.

``encrypt_block`` runs the T-table path, for the few-block callers (sealed
storage, ``auth_mode="aes-ctr"`` proofs); ``encrypt_blocks`` is the batch
path, reached through :func:`repro.crypto.ctr.keystream_rows` by the
simulated wire (:mod:`repro.sim.network`), which needs a whole pull
session's keystream under one pair key; ``_encrypt_block_reference`` stays
as the FIPS-197 oracle the tests hold both of the others to
(``tests/test_perf_kernels.py``, ``tests/test_crypto_aes.py``).

The expanded key is stored once per cipher, as the 176 bytes of FIPS-197's
44 big-endian words: the batch path views them in place, the reference
path slices them per call, and the T-table path unpacks them to Python ints
the first time a cipher encrypts a single block.  Constructing a cipher
leaves nothing behind in module state — callers that see the same key again
keep the cipher (:class:`repro.crypto.ctr.AesCtr` for proof and sealing
keys, ``Network._pair_ciphers`` for pair keys), so dropping it retires the
key.
"""

from __future__ import annotations

import struct
from functools import cached_property
from typing import List, Sequence, Tuple

import numpy as np

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


def _invert_sbox(sbox: Sequence[int]) -> List[int]:
    inverse = [0] * 256
    for index, value in enumerate(sbox):
        inverse[value] = index
    return inverse


SBOX: Sequence[int] = tuple(_build_sbox())
INV_SBOX: Sequence[int] = tuple(_invert_sbox(SBOX))

# Round constants for key expansion: rcon[i] = x^(i-1) in GF(2^8).
_RCON = [0x01]
for _ in range(9):
    _RCON.append(_gf_mul(_RCON[-1], 0x02))

# Precomputed xtime tables speed up MixColumns noticeably in pure Python.
_MUL2 = tuple(_gf_mul(x, 2) for x in range(256))
_MUL3 = tuple(_gf_mul(x, 3) for x in range(256))
_MUL9 = tuple(_gf_mul(x, 9) for x in range(256))
_MUL11 = tuple(_gf_mul(x, 11) for x in range(256))
_MUL13 = tuple(_gf_mul(x, 13) for x in range(256))
_MUL14 = tuple(_gf_mul(x, 14) for x in range(256))


def _build_t_tables() -> Tuple[Tuple[int, ...], ...]:
    """Encryption T-tables: SubBytes + ShiftRows + MixColumns fused.

    ``te_i[a]`` is the contribution of S-box output ``S(a)`` to output
    column word position ``i`` — four byte-rotations of the MixColumns
    column ``(2·S(a), S(a), S(a), 3·S(a))``.  One table lookup + XOR per
    input byte replaces three separate per-byte passes.
    """
    te0, te1, te2, te3 = [], [], [], []
    for value in range(256):
        s = SBOX[value]
        s2, s3 = _MUL2[s], _MUL3[s]
        te0.append((s2 << 24) | (s << 16) | (s << 8) | s3)
        te1.append((s3 << 24) | (s2 << 16) | (s << 8) | s)
        te2.append((s << 24) | (s3 << 16) | (s2 << 8) | s)
        te3.append((s << 24) | (s << 16) | (s3 << 8) | s2)
    return tuple(te0), tuple(te1), tuple(te2), tuple(te3)


_TE0, _TE1, _TE2, _TE3 = _build_t_tables()

# The batch path's tables.  Column words are laid out big-endian in memory
# (byte k of a word is state row k, as in the T-table path) and only ever
# XORed, gathered or viewed as bytes, so what matters is their memory, never
# their value: every word dtype is spelled with its byte order, and no
# result depends on the host's.  "<u4" over that memory keeps the XORs
# native on little-endian hosts.
_TE_FLAT = np.array(_TE0 + _TE1 + _TE2 + _TE3, dtype=">u4").view("<u4")
# State byte 4c + r (row r of column c) is looked up in table r.
_TE_OFFSETS = np.tile(np.arange(4, dtype=np.uint16) * 256, 4)
# ShiftRows as a gather over the flat column-major state: output byte
# (row r, column c) is input byte (row r, column c + r).
_SHIFT_ROWS = np.array(
    [4 * ((c + r) % 4) + r for c in range(4) for r in range(4)], dtype=np.intp
)
_SBOX_BYTES = np.array(SBOX, dtype=np.uint8)


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
        """The schedule as 11 flat 16-byte round keys (reference path)."""
        schedule = self._schedule
        return [schedule[i : i + BLOCK_SIZE] for i in range(0, 176, BLOCK_SIZE)]

    @cached_property
    def _round_words(self) -> List[Tuple[int, int, int, int]]:
        """The schedule as Python ints (T-table path), unpacked on first use:
        a cipher that only feeds the batch path — every transport pair
        cipher — never builds it."""
        return list(struct.iter_unpack(">4I", self._schedule))

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
    def _inv_sub_bytes(state: List[int]) -> None:
        for i in range(16):
            state[i] = INV_SBOX[state[i]]

    @staticmethod
    def _shift_rows(state: List[int]) -> None:
        # Row r (bytes r, r+4, r+8, r+12) rotates left by r.
        for r in range(1, 4):
            row = [state[r + 4 * c] for c in range(4)]
            row = row[r:] + row[:r]
            for c in range(4):
                state[r + 4 * c] = row[c]

    @staticmethod
    def _inv_shift_rows(state: List[int]) -> None:
        for r in range(1, 4):
            row = [state[r + 4 * c] for c in range(4)]
            row = row[-r:] + row[:-r]
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

    @staticmethod
    def _inv_mix_columns(state: List[int]) -> None:
        for c in range(4):
            i = 4 * c
            a0, a1, a2, a3 = state[i], state[i + 1], state[i + 2], state[i + 3]
            state[i] = _MUL14[a0] ^ _MUL11[a1] ^ _MUL13[a2] ^ _MUL9[a3]
            state[i + 1] = _MUL9[a0] ^ _MUL14[a1] ^ _MUL11[a2] ^ _MUL13[a3]
            state[i + 2] = _MUL13[a0] ^ _MUL9[a1] ^ _MUL14[a2] ^ _MUL11[a3]
            state[i + 3] = _MUL11[a0] ^ _MUL13[a1] ^ _MUL9[a2] ^ _MUL14[a3]

    # -- public API --------------------------------------------------------

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        return self._encrypt_block_ttable(block)

    def _encrypt_block_reference(self, block: bytes) -> bytes:
        """The readable FIPS-197 path: one pass per round operation."""
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

    def _encrypt_block_ttable(self, block: bytes) -> bytes:
        """Fused-table path: 16 lookups + XORs per round on 32-bit words.

        State words are big-endian columns; each output word pulls the
        ShiftRows-selected byte from each input column, exactly as in the
        per-byte path (column c reads rows from columns c, c+1, c+2, c+3).
        """
        words = self._round_words
        te0, te1, te2, te3 = _TE0, _TE1, _TE2, _TE3
        rk = words[0]
        s0 = int.from_bytes(block[0:4], "big") ^ rk[0]
        s1 = int.from_bytes(block[4:8], "big") ^ rk[1]
        s2 = int.from_bytes(block[8:12], "big") ^ rk[2]
        s3 = int.from_bytes(block[12:16], "big") ^ rk[3]
        for rk in words[1 : self.ROUNDS]:
            t0 = (te0[s0 >> 24] ^ te1[(s1 >> 16) & 0xFF]
                  ^ te2[(s2 >> 8) & 0xFF] ^ te3[s3 & 0xFF] ^ rk[0])
            t1 = (te0[s1 >> 24] ^ te1[(s2 >> 16) & 0xFF]
                  ^ te2[(s3 >> 8) & 0xFF] ^ te3[s0 & 0xFF] ^ rk[1])
            t2 = (te0[s2 >> 24] ^ te1[(s3 >> 16) & 0xFF]
                  ^ te2[(s0 >> 8) & 0xFF] ^ te3[s1 & 0xFF] ^ rk[2])
            t3 = (te0[s3 >> 24] ^ te1[(s0 >> 16) & 0xFF]
                  ^ te2[(s1 >> 8) & 0xFF] ^ te3[s2 & 0xFF] ^ rk[3])
            s0, s1, s2, s3 = t0, t1, t2, t3
        sbox = SBOX
        rk = words[self.ROUNDS]
        t0 = ((sbox[s0 >> 24] << 24) | (sbox[(s1 >> 16) & 0xFF] << 16)
              | (sbox[(s2 >> 8) & 0xFF] << 8) | sbox[s3 & 0xFF]) ^ rk[0]
        t1 = ((sbox[s1 >> 24] << 24) | (sbox[(s2 >> 16) & 0xFF] << 16)
              | (sbox[(s3 >> 8) & 0xFF] << 8) | sbox[s0 & 0xFF]) ^ rk[1]
        t2 = ((sbox[s2 >> 24] << 24) | (sbox[(s3 >> 16) & 0xFF] << 16)
              | (sbox[(s0 >> 8) & 0xFF] << 8) | sbox[s1 & 0xFF]) ^ rk[2]
        t3 = ((sbox[s3 >> 24] << 24) | (sbox[(s0 >> 16) & 0xFF] << 16)
              | (sbox[(s1 >> 8) & 0xFF] << 8) | sbox[s2 & 0xFF]) ^ rk[3]
        return ((t0 << 96) | (t1 << 64) | (t2 << 32) | t3).to_bytes(16, "big")

    def encrypt_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Encrypt a ``[B, 16]`` uint8 matrix, one block per row (batch path).

        The T-table round over all rows at once: the state is ``[B, 4]``
        column words; per round one ShiftRows gather of its bytes, one
        ``take`` from the flat table, three XORs folding each column's four
        lookups and one with the round key.  The last round has no
        MixColumns and goes through the S-box instead.
        """
        if blocks.dtype != np.uint8 or blocks.shape[1:] != (BLOCK_SIZE,):
            raise ValueError(
                f"blocks must be a [B, {BLOCK_SIZE}] uint8 matrix, got "
                f"{blocks.dtype} {blocks.shape}"
            )
        round_keys = np.frombuffer(self._schedule, dtype="<u4").reshape(-1, 4)
        # Every XOR writes into this one explicitly typed state: an array
        # numpy allocates for a result comes back in the host's byte order,
        # and the byte view below must not depend on it.
        state = np.empty((len(blocks), 4), dtype="<u4")
        state_bytes = state.view(np.uint8)
        np.bitwise_xor(
            np.ascontiguousarray(blocks).view("<u4"), round_keys[0], out=state
        )
        for round_key in round_keys[1 : self.ROUNDS]:
            shifted = state_bytes.take(_SHIFT_ROWS, axis=1)
            lookups = _TE_FLAT.take(shifted + _TE_OFFSETS).reshape(-1, 4, 4)
            np.bitwise_xor(lookups[:, :, 0], lookups[:, :, 1], out=state)
            state ^= lookups[:, :, 2]
            state ^= lookups[:, :, 3]
            state ^= round_key
        last = _SBOX_BYTES.take(state_bytes.take(_SHIFT_ROWS, axis=1)).view("<u4")
        np.bitwise_xor(last, round_keys[self.ROUNDS], out=state)
        return state_bytes

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt exactly one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        round_keys = self._round_keys()
        state = list(block)
        self._add_round_key(state, round_keys[self.ROUNDS])
        for round_index in range(self.ROUNDS - 1, 0, -1):
            self._inv_shift_rows(state)
            self._inv_sub_bytes(state)
            self._add_round_key(state, round_keys[round_index])
            self._inv_mix_columns(state)
        self._inv_shift_rows(state)
        self._inv_sub_bytes(state)
        self._add_round_key(state, round_keys[0])
        return bytes(state)
