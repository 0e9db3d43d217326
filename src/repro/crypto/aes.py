"""AES-128 block cipher, implemented from scratch.

RAPTEE's implementation uses Intel's OpenSSL SGX port with AES in CTR mode
for all symmetric encryption (paper §V).  This module provides the block
cipher; :mod:`repro.crypto.ctr` layers the CTR stream mode on top.

The S-box and its inverse are derived programmatically from the GF(2^8)
multiplicative inverse and the FIPS-197 affine transform rather than being
transcribed as literal tables, which makes the derivation itself testable.

Two encryption paths coexist:

* the *reference* path — per-operation SubBytes/ShiftRows/MixColumns over
  the flat byte state, a readable transliteration of FIPS-197;
* a *T-table* path — the classic software-AES optimisation that merges the
  three round operations into four 256-entry 32-bit word tables, derived
  here from the same S-box and GF tables rather than transcribed.

``encrypt_block`` runs the T-table path (behind a key-schedule cache);
``_encrypt_block_reference`` stays as the FIPS-197 oracle the tests call
directly (``tests/test_perf_kernels.py``, ``tests/test_crypto_aes.py``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

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

# Expanded-schedule cache: key expansion costs ~45 S-box/XOR word steps, and
# the transport layer builds ciphers for the same handful of pair keys over
# millions of messages.  Capped so adversarially many distinct keys cannot
# grow it without bound.
_SCHEDULE_CACHE: Dict[bytes, Tuple[List[List[int]], List[Tuple[int, int, int, int]]]] = {}
_SCHEDULE_CACHE_MAX = 4096


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
        cached = _SCHEDULE_CACHE.get(key)
        if cached is None:
            cached = self._expand_schedules(key)
            if len(_SCHEDULE_CACHE) < _SCHEDULE_CACHE_MAX:
                _SCHEDULE_CACHE[bytes(key)] = cached
        self._round_keys, self._round_words = cached

    @classmethod
    def _expand_schedules(
        cls, key: bytes
    ) -> Tuple[List[List[int]], List[Tuple[int, int, int, int]]]:
        """Both schedule forms: flat bytes (reference) and packed words
        (T-table path).  They are the same schedule, repacked."""
        round_keys = cls._expand_key(key)
        round_words = [
            tuple(
                int.from_bytes(bytes(rk[4 * j : 4 * j + 4]), "big") for j in range(4)
            )
            for rk in round_keys
        ]
        return round_keys, round_words

    @staticmethod
    def _expand_key(key: bytes) -> List[List[int]]:
        """FIPS-197 key expansion producing 11 round keys of 16 bytes each."""
        words = [list(key[i : i + 4]) for i in range(0, 16, 4)]
        for i in range(4, 44):
            temp = list(words[i - 1])
            if i % 4 == 0:
                temp = temp[1:] + temp[:1]  # RotWord
                temp = [SBOX[b] for b in temp]  # SubWord
                temp[0] ^= _RCON[i // 4 - 1]
            words.append([words[i - 4][j] ^ temp[j] for j in range(4)])
        round_keys = []
        for r in range(11):
            rk = []
            for w in words[4 * r : 4 * r + 4]:
                rk.extend(w)
            round_keys.append(rk)
        return round_keys

    # -- state helpers ----------------------------------------------------
    # The state is held column-major as a flat list of 16 ints, matching the
    # byte order of the input block (state[r + 4*c] = byte r of column c).

    @staticmethod
    def _add_round_key(state: List[int], round_key: List[int]) -> None:
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
        state = list(block)
        self._add_round_key(state, self._round_keys[0])
        for round_index in range(1, self.ROUNDS):
            self._sub_bytes(state)
            self._shift_rows(state)
            self._mix_columns(state)
            self._add_round_key(state, self._round_keys[round_index])
        self._sub_bytes(state)
        self._shift_rows(state)
        self._add_round_key(state, self._round_keys[self.ROUNDS])
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

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt exactly one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        state = list(block)
        self._add_round_key(state, self._round_keys[self.ROUNDS])
        for round_index in range(self.ROUNDS - 1, 0, -1):
            self._inv_shift_rows(state)
            self._inv_sub_bytes(state)
            self._add_round_key(state, self._round_keys[round_index])
            self._inv_mix_columns(state)
        self._inv_shift_rows(state)
        self._inv_sub_bytes(state)
        self._add_round_key(state, self._round_keys[0])
        return bytes(state)
