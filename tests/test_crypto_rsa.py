"""RSA tests: keygen, encryption padding, signatures."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import rsa
from repro.crypto.prng import Sha256Prng
from repro.crypto.rsa import RsaError, generate_keypair

# One shared keypair: keygen is the expensive part.
_RNG = Sha256Prng(42)
KEYPAIR = generate_keypair(512, _RNG)


class TestKeyGeneration:
    def test_modulus_bit_length(self):
        assert KEYPAIR.public.n.bit_length() == 512

    def test_rejects_tiny_modulus(self):
        with pytest.raises(ValueError):
            generate_keypair(64, Sha256Prng(0))

    def test_deterministic_under_seed(self):
        first = generate_keypair(256, Sha256Prng(9))
        second = generate_keypair(256, Sha256Prng(9))
        assert first.public.n == second.public.n

    @pytest.mark.parametrize("bits", [128, 257, 512])
    def test_two_primes_a_key_pair(self, bits):
        """Both factors carry their top two bits, so the modulus has its
        ``bits`` by construction: no finished prime is ever thrown away, and
        every key works."""
        for seed in range(50):
            primes = mock.Mock(side_effect=rsa.generate_prime)
            with mock.patch.object(rsa, "generate_prime", primes):
                rng = Sha256Prng(seed)
                pair = generate_keypair(bits, rng)
            assert primes.call_count == 2, seed
            assert pair.public.n.bit_length() == bits
            message = seed.to_bytes(2, "big")
            if bits > 256:  # the padding alone needs 19 bytes of modulus
                assert pair.private.decrypt(pair.public.encrypt(message, rng)) == message
            assert pair.public.verify(message, pair.private.sign(message))

    def test_crt_parameters_are_computed_once_per_key(self):
        pair = generate_keypair(256, Sha256Prng(3))
        inverse = mock.Mock(side_effect=rsa.modular_inverse)
        with mock.patch.object(rsa, "modular_inverse", inverse):
            signatures = {pair.private.sign(b"quote") for _ in range(3)}
        assert inverse.call_count == 1
        value = int.from_bytes(rsa._signature_digest(b"quote", 32), "big")
        assert signatures == {pow(value, pair.private.d, pair.private.n).to_bytes(32, "big")}

    def test_public_key_matches_private(self):
        assert KEYPAIR.public == KEYPAIR.private.public_key()

    def test_private_factors_multiply_to_modulus(self):
        assert KEYPAIR.private.p * KEYPAIR.private.q == KEYPAIR.private.n


class TestEncryption:
    def test_roundtrip(self):
        message = b"the group key K_T"
        ciphertext = KEYPAIR.public.encrypt(message, _RNG)
        assert KEYPAIR.private.decrypt(ciphertext) == message

    def test_randomized_padding(self):
        message = b"same message"
        first = KEYPAIR.public.encrypt(message, _RNG)
        second = KEYPAIR.public.encrypt(message, _RNG)
        assert first != second
        assert KEYPAIR.private.decrypt(first) == KEYPAIR.private.decrypt(second)

    def test_empty_message(self):
        ciphertext = KEYPAIR.public.encrypt(b"", _RNG)
        assert KEYPAIR.private.decrypt(ciphertext) == b""

    def test_oversized_message_rejected(self):
        with pytest.raises(RsaError):
            KEYPAIR.public.encrypt(b"x" * 64, _RNG)

    def test_wrong_length_ciphertext_rejected(self):
        with pytest.raises(RsaError):
            KEYPAIR.private.decrypt(b"\x00" * 10)

    def test_tampered_ciphertext_fails_or_differs(self):
        message = b"attested secret"
        ciphertext = bytearray(KEYPAIR.public.encrypt(message, _RNG))
        ciphertext[-1] ^= 0x01
        try:
            recovered = KEYPAIR.private.decrypt(bytes(ciphertext))
        except RsaError:
            return
        assert recovered != message

    @given(message=st.binary(max_size=40))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, message):
        rng = Sha256Prng(len(message) + 1)
        assert KEYPAIR.private.decrypt(KEYPAIR.public.encrypt(message, rng)) == message


class TestSignatures:
    def test_sign_verify(self):
        signature = KEYPAIR.private.sign(b"quote payload")
        assert KEYPAIR.public.verify(b"quote payload", signature)

    def test_wrong_message_rejected(self):
        signature = KEYPAIR.private.sign(b"quote payload")
        assert not KEYPAIR.public.verify(b"other payload", signature)

    def test_tampered_signature_rejected(self):
        signature = bytearray(KEYPAIR.private.sign(b"payload"))
        signature[0] ^= 0x80
        assert not KEYPAIR.public.verify(b"payload", bytes(signature))

    def test_wrong_length_signature_rejected(self):
        assert not KEYPAIR.public.verify(b"payload", b"short")

    def test_signature_from_other_key_rejected(self):
        other = generate_keypair(512, Sha256Prng(77))
        signature = other.private.sign(b"payload")
        assert not KEYPAIR.public.verify(b"payload", signature)

    def test_deterministic_signature(self):
        assert KEYPAIR.private.sign(b"m") == KEYPAIR.private.sign(b"m")
