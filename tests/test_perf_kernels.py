"""Property tests: the numpy kernels equal the pure-Python references.

Hypothesis drives random inputs through both implementations of each
accelerated primitive — count-min updates/estimates/decay, the input
scramble, AES-CTR, the word-wise key expansion — and requires
integer-for-integer (or byte-for-byte) equality, not approximate
agreement.  Each reference is called directly:
``CountMinSketch(use_numpy=False)``, scalar ``scramble64``, an in-test
per-byte CTR XOR over ``AES128.encrypt_block``, the list-based key
expansion kept below.  Keystreams are always compared to the reference
stream, never to a round trip: CTR XORs the same keystream in and out, so a
wrong keystream round-trips perfectly.
"""

from __future__ import annotations

import inspect
import random
from collections import Counter
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.brahms.countmin import (CountMinSketch, StreamUnbiaser, countmin_decay, decay_ratio,
                                   decay_value)
from repro.crypto import ctr
from repro.crypto.aes import _RCON, AES128, SBOX
from repro.crypto.ctr import AesCtr
from repro.crypto.minwise import scramble64, splitmix64_array
from repro.scenario.compile import compile_spec, shard_simulation_from_spec
from repro.scenario.run import run_scenario
from repro.shard import ShardSimulation, build_state

# Deterministic-surface tests; wall-clock deadlines only add flake.
COMMON = settings(deadline=None, max_examples=50)

ids_strategy = st.lists(
    st.integers(min_value=0, max_value=(1 << 63) - 1), min_size=0, max_size=120
)


class TestBackendSurface:
    """The only backend choice left: ``use_numpy``, a plain boolean that
    defaults to numpy, on the three seams the differentials use."""

    @pytest.mark.parametrize(
        "seam", [CountMinSketch, build_state, ShardSimulation]
    )
    def test_use_numpy_is_a_boolean_defaulting_to_true(self, seam):
        parameter = inspect.signature(seam).parameters["use_numpy"]
        assert parameter.annotation in (bool, "bool")
        assert parameter.default is True

    @pytest.mark.parametrize("seam", [
        StreamUnbiaser, shard_simulation_from_spec, compile_spec, run_scenario,
    ])
    def test_no_backend_parameter_above_the_seams(self, seam):
        assert "use_numpy" not in inspect.signature(seam).parameters


class TestScramble:
    @COMMON
    @given(values=ids_strategy)
    def test_scramble64_array_matches_scalar(self, values):
        batched = splitmix64_array(values)
        assert [int(v) for v in batched] == [scramble64(v) for v in values]

    @pytest.mark.parametrize("layout", ["writable", "read-only", "broadcast",
                                        "strided", "transposed", "scalar"])
    def test_scramble64_array_leaves_its_input_alone(self, layout):
        """The finaliser runs in place in a copy: an input of any layout
        comes back unchanged (a read-only one would raise) and the result,
        of the input's shape, equals the scalar element by element."""
        grid = np.arange(60, dtype=np.uint64).reshape(6, 10) * np.uint64(2654435761)
        values = {
            "writable": grid,
            "read-only": np.frombuffer(grid.tobytes(), dtype=np.uint64).reshape(6, 10),
            "broadcast": np.broadcast_to(grid[2], (4, 10)),
            "strided": grid[::2, 1::3],
            "transposed": grid.T,
            "scalar": np.uint64(grid[1, 1]),
        }[layout]
        before = np.copy(values)
        hashed = splitmix64_array(values)
        assert np.array_equal(values, before)
        assert hashed.shape == np.shape(values)
        assert [int(v) for v in np.ravel(hashed)] == [
            scramble64(int(v)) for v in np.ravel(values)
        ]


def _mirror_sketches(width, depth, seed):
    """Two sketches with identical salts, one per backend."""
    pure = CountMinSketch(width, depth, random.Random(seed), use_numpy=False)
    vec = CountMinSketch(width, depth, random.Random(seed), use_numpy=True)
    assert pure._salts == vec._salts
    return pure, vec


class TestCountMin:
    @COMMON
    @given(
        items=ids_strategy,
        width=st.integers(min_value=1, max_value=64),
        depth=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_update_batch_and_estimates_match(self, items, width, depth, seed):
        pure, vec = _mirror_sketches(width, depth, seed)
        pure.update_batch(items)
        vec.update_batch(items)
        assert pure.total == vec.total
        probes = items[:20] + [0, 1, 999_999_999]
        for item in probes:
            assert pure.estimate(item) == vec.estimate(item)
        assert pure.estimate_batch(probes) == vec.estimate_batch(probes)

    @COMMON
    @given(
        items=ids_strategy,
        counts=st.lists(st.integers(min_value=1, max_value=1000),
                        min_size=0, max_size=20),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_weighted_updates_match(self, items, counts, seed):
        pure, vec = _mirror_sketches(32, 4, seed)
        for item, count in zip(items, counts):
            pure.update(item, count)
            vec.update(item, count)
        assert pure.total == vec.total
        for item in items:
            assert pure.estimate(item) == vec.estimate(item)

    @COMMON
    @given(
        items=ids_strategy,
        factor=st.floats(min_value=0.01, max_value=0.99,
                         allow_nan=False, allow_infinity=False),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_decay_truncation_matches(self, items, factor, seed):
        pure, vec = _mirror_sketches(16, 3, seed)
        pure.update_batch(items)
        vec.update_batch(items)
        pure.decay(factor)
        vec.decay(factor)
        assert pure.total == vec.total
        for item in items[:20]:
            assert pure.estimate(item) == vec.estimate(item)

    def test_large_counter_decay_is_exact_integer_truncation(self):
        # Regression: the numpy decay used to multiply in float64, which
        # rounds any counter needing more than 53 mantissa bits *before*
        # the multiply — int((2**55 + 3) * 0.5) == 2**54, one below the
        # exact ⌊(2**55 + 3) / 2⌋ == 2**54 + 1.
        value = 2**55 + 3
        tables = np.zeros((1, 4), dtype=np.int64)
        tables[0, 0] = value  # updates can't cheaply reach 2**55
        countmin_decay(tables, 0.5)
        assert int(tables[0, 0]) == value // 2 == 2**54 + 1
        assert int(tables[0, 0]) != int(value * 0.5)

    def test_huge_counter_decay_falls_back_to_bigints(self):
        # value * num overflows int64 for a many-mantissa-bit factor; the
        # kernel must drop to the Python big-int loop, still exact.
        import math
        from fractions import Fraction

        value, factor = 2**60 + 7, 0.3
        tables = np.zeros((2, 2), dtype=np.int64)
        tables[0, 0] = value
        tables[1, 1] = 12345
        countmin_decay(tables, factor)
        assert int(tables[0, 0]) == math.floor(Fraction(value) * Fraction(factor))
        assert int(tables[1, 1]) == math.floor(Fraction(12345) * Fraction(factor))

    @COMMON
    @given(
        value=st.integers(min_value=2**53, max_value=2**62 - 1),
        factor=st.floats(min_value=0.01, max_value=0.99,
                         allow_nan=False, allow_infinity=False),
    )
    def test_large_counter_decay_matches_exact_rational(self, value, factor):
        # Above 2**53 the float product and the exact rational product
        # disagree for most inputs; both backends must track the latter.
        import math
        from fractions import Fraction

        exact = math.floor(Fraction(value) * Fraction(factor))
        num, shift = decay_ratio(factor)
        assert decay_value(value, num, shift) == exact
        tables = np.zeros((1, 1), dtype=np.int64)
        tables[0, 0] = value
        countmin_decay(tables, factor)
        assert int(tables[0, 0]) == exact

    def test_sketch_backends_agree_on_large_counters(self):
        pure, vec = _mirror_sketches(4, 2, seed=9)
        for sketch in (pure, vec):
            sketch.update(42, 2**54 + 11)
        pure.decay(0.5)
        vec.decay(0.5)
        assert pure.total == vec.total == (2**54 + 11) // 2
        assert pure.estimate(42) == vec.estimate(42)


class TestAesCtrFastPath:
    @COMMON
    @given(
        key=st.binary(min_size=16, max_size=16),
        nonce=st.binary(min_size=8, max_size=8),
        plaintext=st.binary(min_size=0, max_size=200),
        counter=st.integers(min_value=0, max_value=2**32),
    )
    def test_fast_and_reference_ciphertexts_equal(self, key, nonce, plaintext,
                                                  counter):
        # The oracle shares only the block cipher with the stream (the
        # FIPS-197 known answers pin it): one block per nonce || counter,
        # XORed byte by byte.
        cipher = AES128(key)
        keystream = b"".join(
            cipher.encrypt_block(nonce + (counter + i).to_bytes(8, "big"))
            for i in range(-(-len(plaintext) // 16))
        )
        slow = bytes(p ^ k for p, k in zip(plaintext, keystream))
        assert AesCtr(key, nonce).encrypt(plaintext, counter) == slow

    @COMMON
    @given(
        key=st.binary(min_size=16, max_size=16),
        nonce=st.binary(min_size=8, max_size=8),
        plaintext=st.binary(min_size=0, max_size=200),
    )
    def test_cached_schedule_roundtrips(self, key, nonce, plaintext):
        stream = AesCtr(key, nonce)
        assert stream.decrypt(stream.encrypt(plaintext)) == plaintext

    def test_both_block_paths_match_fips197_appendix_c1(self):
        # The block cipher both sides of the CTR oracle above share, and the
        # stream over it, pinned to the known answer.
        cipher = AES128(bytes(range(16)))
        block = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert cipher.encrypt_block(block) == expected
        counter = int.from_bytes(block[8:], "big")
        stream = AesCtr(bytes(range(16)), block[:8])
        assert stream.encrypt(bytes(16), counter) == expected

    def test_cached_and_uncached_schedules_equal(self):
        # The key-taking constructor keeps one expanded cipher per key; it
        # is the cipher a fresh expansion gives.
        key = bytes(range(16))
        first, second = AesCtr(key, bytes(8)), AesCtr(key, bytes([1]) * 8)
        assert first._cipher is second._cipher
        assert first._cipher._schedule == AES128(key)._schedule
        assert first._cipher._schedule == AES128._expand_key(key)

    def test_encrypted_aes_scenario_expands_each_key_once(self, monkeypatch):
        # ``auth_mode="aes-ctr"`` builds an ``AesCtr(key, nonce)`` per proof:
        # the per-key memo must keep that at one expansion per node key.
        from repro.core.auth import AuthScheme
        from repro.scenario.catalog import get_spec
        from repro.scenario.run import run_scenario

        expanded: List[bytes] = []
        proofs: List[bytes] = []
        real_expand, real_proof = AES128._expand_key, AuthScheme._proof

        def counting_expand(key):
            expanded.append(bytes(key))
            return real_expand(key)

        def counting_proof(self, key, first, second):
            proofs.append(key)
            return real_proof(self, key, first, second)

        monkeypatch.setattr(AES128, "_expand_key", staticmethod(counting_expand))
        monkeypatch.setattr(AuthScheme, "_proof", counting_proof)
        ctr._cipher_for_key.cache_clear()
        run_scenario(get_spec("raptee-encrypted-aes"))
        assert set(proofs) == set(expanded)  # the wire expands no cipher
        assert len(proofs) > 10 * len(set(proofs))  # keys do repeat
        assert Counter(expanded).most_common(1)[0][1] == 1


# NIST SP 800-38A F.5.1, CTR-AES128.Encrypt.
F51_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
F51_NONCE = bytes.fromhex("f0f1f2f3f4f5f6f7")
F51_COUNTER = 0xF8F9FAFBFCFDFEFF
F51_PLAINTEXT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)
F51_CIPHERTEXT = bytes.fromhex(
    "874d6191b620e3261bef6864990db6ce"
    "9806f66b7970fdff8617187bb9fffdff"
    "5ae4df3edbd5d35e5b4f09020db03eab"
    "1e031dda2fbe03d1792170a0f3009cee"
)


class TestAesBatchKernel:
    """NIST SP 800-38A F.5.1 on the per-message CTR path."""

    def test_nist_sp800_38a_f51_on_the_per_message_path(self):
        stream = AesCtr(F51_KEY, F51_NONCE)
        assert stream.encrypt(F51_PLAINTEXT, F51_COUNTER) == F51_CIPHERTEXT
        assert stream.keystream(64, F51_COUNTER) == bytes(
            p ^ c for p, c in zip(F51_PLAINTEXT, F51_CIPHERTEXT)
        )


def _expand_key_lists(key: bytes) -> List[List[int]]:
    """The list-based FIPS-197 key expansion the word-wise one replaced,
    kept verbatim as its oracle: 11 round keys of 16 ints."""
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


class TestKeyExpansion:
    @COMMON
    @given(key=st.binary(min_size=16, max_size=16))
    def test_word_expansion_matches_list_expansion(self, key):
        expected = _expand_key_lists(key)
        cipher = AES128(key)
        assert cipher._schedule == bytes(b for rk in expected for b in rk)
        assert [list(rk) for rk in cipher._round_keys()] == expected

    def test_fips197_appendix_a1_expansion(self):
        schedule = AES128._expand_key(F51_KEY)  # A.1 uses the same key
        words = [schedule[i : i + 4].hex() for i in range(0, 176, 4)]
        assert words[:4] == ["2b7e1516", "28aed2a6", "abf71588", "09cf4f3c"]
        assert words[4:8] == ["a0fafe17", "88542cb1", "23a33939", "2a6c7605"]
        assert words[20:24] == ["d4d1c6f8", "7c839d87", "caf2b8bc", "11f915bc"]
        assert words[36:40] == ["ac7766f3", "19fadc21", "28d12941", "575c006e"]
        assert words[40:] == ["d014f9a8", "c9ee2589", "e13f0cc8", "b6630ca6"]
