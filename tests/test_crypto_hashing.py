"""Hash utility tests."""

import hashlib
import hmac as stdlib_hmac

import pytest
from hypothesis import example, given, strategies as st

from repro.core.auth import AuthScheme
from repro.crypto.ctr import AesCtr
from repro.crypto.hashing import (
    FramedHash,
    concat_hash,
    constant_time_equal,
    hkdf,
    hmac_sha256,
    int_digest,
    sha256,
)


class TestSha256:
    def test_matches_hashlib(self):
        assert sha256(b"abc") == hashlib.sha256(b"abc").digest()


class TestConcatHash:
    def test_framing_prevents_boundary_ambiguity(self):
        # Without framing these two would collide: "ab"+"c" vs "a"+"bc".
        assert concat_hash(b"ab", b"c") != concat_hash(b"a", b"bc")

    def test_deterministic(self):
        assert concat_hash(b"x", b"y") == concat_hash(b"x", b"y")

    def test_order_matters(self):
        assert concat_hash(b"x", b"y") != concat_hash(b"y", b"x")

    def test_empty_parts_are_distinguished(self):
        assert concat_hash(b"", b"x") != concat_hash(b"x", b"")


class TestHmac:
    def test_matches_stdlib_hmac(self):
        key, message = b"k" * 16, b"payload"
        expected = stdlib_hmac.new(key, message, hashlib.sha256).digest()
        assert hmac_sha256(key, message) == expected

    def test_prototype_cache_does_not_leak_state(self):
        key = b"cache-key-000000"
        first = hmac_sha256(key, b"m1")
        second = hmac_sha256(key, b"m2")
        # Re-computing m1 after m2 must still match (copy semantics).
        assert hmac_sha256(key, b"m1") == first
        assert first != second

    # Keys of 0-200 bytes pin the RFC 2104 empty-key, zero-padded and
    # hashed-first (over one 64-byte block) paths against the stdlib; the
    # length is drawn first so that long keys are drawn at all, and the
    # block edges are always tried.
    @given(
        key=st.integers(0, 200).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
        message=st.binary(max_size=128),
    )
    @example(key=b"", message=b"m")
    @example(key=b"k" * 64, message=b"m")
    @example(key=b"k" * 65, message=b"m")
    @example(key=b"k" * 200, message=b"")
    def test_always_matches_stdlib(self, key, message):
        expected = stdlib_hmac.new(key, message, hashlib.sha256).digest()
        assert hmac_sha256(key, message) == expected


class TestFramedHash:
    @given(label=st.binary(max_size=40), parts=st.lists(st.binary(max_size=40), max_size=5))
    def test_equals_concat_hash(self, label, parts):
        assert FramedHash(label)(*parts) == concat_hash(label, *parts)

    def test_prefix_state_does_not_leak_between_calls(self):
        framed = FramedHash(b"label")
        first = framed(b"a", b"b")
        assert framed(b"c") == concat_hash(b"label", b"c")
        assert framed(b"a", b"b") == first


class TestAuthProof:
    """``AuthScheme._proof`` is ``[concat_hash("raptee-auth", first, second)]_key``."""

    @given(
        key=st.binary(min_size=16, max_size=16),
        first=st.binary(min_size=16, max_size=16),
        second=st.binary(min_size=16, max_size=16),
    )
    def test_both_modes_equal_the_concat_hash_construction(self, key, first, second):
        digest = concat_hash(b"raptee-auth", first, second)
        assert AuthScheme("hmac")._proof(key, first, second) == (
            stdlib_hmac.new(key, digest, hashlib.sha256).digest()
        )
        assert AuthScheme("aes-ctr")._proof(key, first, second) == (
            AesCtr(key, second[:8]).encrypt(digest)
        )


class TestHkdf:
    def test_output_length(self):
        for length in (1, 16, 32, 64, 100):
            assert len(hkdf(b"ikm", b"info", length=length)) == length

    def test_info_separates_outputs(self):
        assert hkdf(b"ikm", b"auth") != hkdf(b"ikm", b"transport")

    def test_salt_separates_outputs(self):
        assert hkdf(b"ikm", b"i", salt=b"s1") != hkdf(b"ikm", b"i", salt=b"s2")

    def test_rfc5869_test_case_1(self):
        ikm = bytes.fromhex("0b" * 22)
        salt = bytes.fromhex("000102030405060708090a0b0c")
        info = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9")
        okm = hkdf(ikm, info, length=42, salt=salt)
        expected = bytes.fromhex(
            "3cb25f25faacd57a90434f64d0362f2a"
            "2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865"
        )
        assert okm == expected

    def test_too_long_output_rejected(self):
        with pytest.raises(ValueError):
            hkdf(b"ikm", b"info", length=255 * 32 + 1)


class TestMisc:
    def test_constant_time_equal(self):
        assert constant_time_equal(b"abc", b"abc")
        assert not constant_time_equal(b"abc", b"abd")
        assert not constant_time_equal(b"abc", b"abcd")

    def test_int_digest_range(self):
        for bits in (1, 8, 61, 64, 256):
            value = int_digest(b"data", bits=bits)
            assert 0 <= value < (1 << bits)

    def test_int_digest_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            int_digest(b"data", bits=0)
        with pytest.raises(ValueError):
            int_digest(b"data", bits=257)
