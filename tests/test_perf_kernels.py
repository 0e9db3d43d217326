"""Property tests: the numpy kernels equal the pure-Python references.

Hypothesis drives random inputs through both implementations of each
accelerated primitive — count-min updates/estimates/decay, the input
scramble, the cached/T-table AES-CTR — and requires integer-for-integer
(or byte-for-byte) equality, not approximate agreement.  Each reference is
called directly: ``CountMinSketch(use_numpy=False)``, scalar ``scramble64``,
``AES128._encrypt_block_reference``, an in-test per-byte XOR.
"""

from __future__ import annotations

import inspect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.brahms.countmin import CountMinSketch, StreamUnbiaser
from repro.crypto.aes import AES128
from repro.crypto.ctr import AesCtr
from repro.crypto.minwise import scramble64
from repro.perf import kernels
from repro.scenario.compile import shard_simulation_from_spec
from repro.shard import ShardSimulation, build_state, run_sharded

# Deterministic-surface tests; wall-clock deadlines only add flake.
COMMON = settings(deadline=None, max_examples=50)

ids_strategy = st.lists(
    st.integers(min_value=0, max_value=(1 << 63) - 1), min_size=0, max_size=120
)


class TestBackendSurface:
    """The only backend choice left: ``use_numpy``, a plain boolean that
    defaults to numpy, on the four seams the differentials use."""

    def test_perf_package_exports_only_the_kernels(self):
        import repro.perf

        assert repro.perf.__all__ == ["kernels"]
        assert not hasattr(repro.perf, "config")

    @pytest.mark.parametrize(
        "seam", [CountMinSketch, build_state, ShardSimulation, run_sharded]
    )
    def test_use_numpy_is_a_boolean_defaulting_to_true(self, seam):
        parameter = inspect.signature(seam).parameters["use_numpy"]
        assert parameter.annotation in (bool, "bool")
        assert parameter.default is True

    @pytest.mark.parametrize("seam", [StreamUnbiaser, shard_simulation_from_spec])
    def test_no_backend_parameter_above_the_seams(self, seam):
        assert "use_numpy" not in inspect.signature(seam).parameters


class TestScramble:
    @COMMON
    @given(values=ids_strategy)
    def test_scramble64_array_matches_scalar(self, values):
        batched = kernels.scramble64_array(values)
        assert [int(v) for v in batched] == [scramble64(v) for v in values]


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
        tables = kernels.countmin_new_tables(1, 4)
        tables[0, 0] = value  # updates can't cheaply reach 2**55
        kernels.countmin_decay(tables, 0.5)
        assert int(tables[0, 0]) == value // 2 == 2**54 + 1
        assert int(tables[0, 0]) != int(value * 0.5)

    def test_huge_counter_decay_falls_back_to_bigints(self):
        # value * num overflows int64 for a many-mantissa-bit factor; the
        # kernel must drop to the Python big-int loop, still exact.
        import math
        from fractions import Fraction

        value, factor = 2**60 + 7, 0.3
        tables = kernels.countmin_new_tables(2, 2)
        tables[0, 0] = value
        tables[1, 1] = 12345
        kernels.countmin_decay(tables, factor)
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
        num, shift = kernels.decay_ratio(factor)
        assert kernels.decay_value(value, num, shift) == exact
        tables = kernels.countmin_new_tables(1, 1)
        tables[0, 0] = value
        kernels.countmin_decay(tables, factor)
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
        # The oracle shares no code with the stream: FIPS-197 reference
        # blocks over nonce || counter, XORed byte by byte.
        cipher = AES128(key)
        keystream = b"".join(
            cipher._encrypt_block_reference(nonce + (counter + i).to_bytes(8, "big"))
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

    @COMMON
    @given(key=st.binary(min_size=16, max_size=16),
           block=st.binary(min_size=16, max_size=16))
    def test_ttable_block_matches_reference_block(self, key, block):
        cipher = AES128(key)
        fast = cipher._encrypt_block_ttable(block)
        assert fast == cipher._encrypt_block_reference(block)
        assert cipher.decrypt_block(fast) == block

    def test_both_block_paths_match_fips197_appendix_c1(self):
        cipher = AES128(bytes(range(16)))
        block = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert cipher._encrypt_block_reference(block) == expected
        assert cipher._encrypt_block_ttable(block) == expected
        assert cipher.encrypt_block(block) == expected

    @COMMON
    @given(key=st.binary(min_size=16, max_size=16),
           nonce=st.binary(min_size=8, max_size=8),
           length=st.integers(min_value=0, max_value=100))
    def test_from_cipher_shares_keystream(self, key, nonce, length):
        direct = AesCtr(key, nonce)
        shared = AesCtr.from_cipher(AES128(key), nonce)
        assert direct.keystream(length) == shared.keystream(length)

    def test_cached_and_uncached_schedules_equal(self):
        key = bytes(range(16))
        cached = AES128(key)
        uncached = AES128._expand_schedules(key)
        assert (cached._round_keys, cached._round_words) == uncached
