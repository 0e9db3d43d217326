"""AES-128 block cipher tests, anchored on FIPS-197 vectors."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.aes import AES128, SBOX, _gf_inverse, _gf_mul


class TestSboxDerivation:
    def test_sbox_known_entries(self):
        # FIPS-197 Figure 7 spot checks.
        assert SBOX[0x00] == 0x63
        assert SBOX[0x01] == 0x7C
        assert SBOX[0x53] == 0xED
        assert SBOX[0xFF] == 0x16

    def test_sbox_is_a_permutation(self):
        assert sorted(SBOX) == list(range(256))

    def test_sbox_has_no_fixed_points(self):
        # A classical AES S-box property: S(x) != x and S(x) != ~x.
        for value in range(256):
            assert SBOX[value] != value
            assert SBOX[value] != value ^ 0xFF


class TestFieldArithmetic:
    def test_gf_mul_known_products(self):
        # FIPS-197 §4.2: {57} · {83} = {c1}.
        assert _gf_mul(0x57, 0x83) == 0xC1
        assert _gf_mul(0x57, 0x13) == 0xFE

    def test_gf_mul_identity_and_zero(self):
        for value in (0x00, 0x01, 0x42, 0xFF):
            assert _gf_mul(value, 1) == value
            assert _gf_mul(value, 0) == 0

    def test_gf_inverse_roundtrip(self):
        for value in range(1, 256):
            assert _gf_mul(value, _gf_inverse(value)) == 1

    def test_gf_inverse_of_zero_is_zero(self):
        assert _gf_inverse(0) == 0


class TestAes128Vectors:
    def test_fips197_appendix_b_vector(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        expected = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
        assert AES128(key).encrypt_block(plaintext) == expected

    def test_fips197_appendix_c_vector(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert AES128(key).encrypt_block(plaintext) == expected

    def test_nist_zero_key_vector(self):
        key = bytes(16)
        plaintext = bytes.fromhex("f34481ec3cc627bacd5dc3fb08f273e6")
        expected = bytes.fromhex("0336763e966d92595a567cc9ce537f5e")
        assert AES128(key).encrypt_block(plaintext) == expected


class TestAes128Behaviour:
    def test_rejects_bad_key_length(self):
        with pytest.raises(ValueError):
            AES128(b"short")

    def test_rejects_bad_block_length(self):
        cipher = AES128(bytes(16))
        with pytest.raises(ValueError):
            cipher.encrypt_block(b"too short")
        with pytest.raises(ValueError):
            cipher.encrypt_block(b"x" * 17)

    def test_distinct_keys_give_distinct_ciphertexts(self):
        block = bytes(range(16))
        first = AES128(bytes(16)).encrypt_block(block)
        second = AES128(bytes([1]) + bytes(15)).encrypt_block(block)
        assert first != second

    @given(key=st.binary(min_size=16, max_size=16))
    def test_encryption_is_not_identity(self, key):
        block = bytes(16)
        assert AES128(key).encrypt_block(block) != block
