"""Number theory: Miller-Rabin, prime generation, modular inverse."""

import random
from math import log2, sqrt
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from repro.crypto import numbers
from repro.crypto.numbers import generate_prime, is_probable_prime, modular_inverse

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 97, 101, 997, 7919]
SMALL_COMPOSITES = [1, 4, 6, 8, 9, 15, 21, 25, 91, 100, 561, 1105, 6601]


class TestPrimality:
    @pytest.mark.parametrize("prime", SMALL_PRIMES)
    def test_known_primes(self, prime):
        assert is_probable_prime(prime)

    @pytest.mark.parametrize("composite", SMALL_COMPOSITES)
    def test_known_composites(self, composite):
        assert not is_probable_prime(composite)

    def test_carmichael_numbers_are_rejected(self):
        # Fermat pseudoprimes that defeat naive tests.
        for carmichael in (561, 1105, 1729, 2465, 2821, 6601, 8911):
            assert not is_probable_prime(carmichael)

    def test_strong_pseudoprimes_are_rejected(self):
        # The smallest composites that pass Miller-Rabin to the first 1, 4,
        # 9, 12 and 13 prime bases; the last is the bound below which the
        # fixed witnesses are exact, so it is settled by the random rounds.
        for pseudoprime in (
            2047,
            3215031751,
            3825123056546413051,
            318665857834031151167461,
            3317044064679887385961981,
        ):
            assert not is_probable_prime(pseudoprime)

    def test_negative_and_zero(self):
        assert not is_probable_prime(0)
        assert not is_probable_prime(1)
        assert not is_probable_prime(-7)

    def test_large_known_prime(self):
        assert is_probable_prime((1 << 61) - 1)  # Mersenne prime M61

    def test_large_known_composite(self):
        assert not is_probable_prime((1 << 61) - 3)

    def test_product_of_two_primes_is_composite(self):
        rng = random.Random(7)
        p = generate_prime(64, rng)
        q = generate_prime(64, rng)
        assert not is_probable_prime(p * q)


def _dlp_log2_bound(k: int, t: int) -> float:
    """log2 of the tightest applicable bound of HAC Fact 4.48 (Damgård,
    Landrock, Pomerance) on p(k, t): the probability that a uniformly drawn
    odd k-bit integer that survives t random-base rounds is composite."""
    bounds = []
    if t == 1:
        bounds.append(2 * log2(k) + 2 * (2 - sqrt(k)))
    if (t == 2 and k >= 88) or (3 <= t <= k / 9 and k >= 21):
        bounds.append(1.5 * log2(k) + t - 0.5 * log2(t) + 2 * (2 - sqrt(t * k)))
    if k / 9 <= t <= k / 4 and k >= 21:
        bounds.append(log2(
            7 / 20 * k * 2.0 ** (-5 * t)
            + 1 / 7 * k ** 3.75 * 2.0 ** (-k / 2 - 2 * t)
            + 12 * k * 2.0 ** (-k / 4 - 3 * t)
        ))
    if t >= k / 4 and k >= 21:
        bounds.append(log2(1 / 7) + 3.75 * log2(k) - k / 2 - 2 * t)
    return min(bounds)


class TestGeneratePrime:
    def test_exact_bit_length(self):
        rng = random.Random(1)
        for bits in (16, 32, 64, 128):
            prime = generate_prime(bits, rng)
            assert prime.bit_length() == bits
            assert is_probable_prime(prime)

    def test_refuses_tiny_sizes(self):
        with pytest.raises(ValueError):
            generate_prime(4, random.Random(0))

    def test_deterministic_under_seed(self):
        assert generate_prime(48, random.Random(5)) == generate_prime(48, random.Random(5))
        assert generate_prime(256, random.Random(5)) == generate_prime(256, random.Random(5))

    @pytest.mark.parametrize("bits", [64, 128, 256, 512])
    def test_outputs_pass_the_worst_case_test(self, bits):
        """Whatever round count generate_prime ran, its output must pass the
        13 fixed + 40 random witnesses of is_probable_prime."""
        for seed in range(50):
            prime = generate_prime(bits, random.Random(seed))
            assert prime >> (bits - 2) == 0b11  # top two bits set
            assert is_probable_prime(prime), (bits, seed)

    def test_smallest_size_returns_sieve_primes(self):
        """An 8-bit candidate is itself below the sieve limit: the sieve
        would reject every prime there is to find."""
        found = {generate_prime(8, random.Random(seed)) for seed in range(200)}
        assert found == {193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251}

    def test_round_table_reaches_two_to_the_minus_80(self):
        """Each row of the HAC table is the smallest t its size needs."""
        for bits, rounds in numbers._AVERAGE_CASE_ROUNDS:
            assert _dlp_log2_bound(bits, rounds) <= -80, (bits, rounds)
            assert _dlp_log2_bound(bits, rounds - 1) > -80, (bits, rounds)
        # Forcing the second-highest bit halves the candidate set, which can
        # cost one bit of the bound.  The simulator's primes have it to
        # spare; the rows that do not at their smallest size are the ones
        # the module docstring names.
        assert _dlp_log2_bound(256, 12) <= -81
        assert {
            bits for bits, rounds in numbers._AVERAGE_CASE_ROUNDS
            if _dlp_log2_bound(bits, rounds) > -81
        } == {150, 300, 650, 850, 1300}

    def test_witness_exponentiations_per_prime(self):
        """One modular exponentiation per witness call: ~11 sieve survivors
        fall to their first base and the prime pays its 12 rounds (through
        is_probable_prime's narrow sieve and 13 + 40 witnesses: ~72)."""
        witness = mock.Mock(side_effect=numbers._miller_rabin_witness)
        with mock.patch.object(numbers, "_miller_rabin_witness", witness):
            for seed in range(50):
                generate_prime(256, random.Random(seed))
        assert witness.call_count == 1208  # 24.2 a prime


class TestSieve:
    def test_sieve_primes_are_the_primes_below_the_limit(self):
        assert numbers._SIEVE_PRIMES == [
            n for n in range(numbers._SIEVE_LIMIT) if is_probable_prime(n)
        ]
        product = 1
        for chunk in numbers._SIEVE_CHUNKS:
            assert chunk.bit_length() <= numbers._SIEVE_CHUNK_BITS
            product *= chunk
        expected = 1
        for prime in numbers._SIEVE_PRIMES:
            expected *= prime
        assert product == expected

    @given(st.one_of(
        st.integers(min_value=0, max_value=2 * numbers._SIEVE_LIMIT),
        st.integers(min_value=0, max_value=1 << 256),
        st.sampled_from(numbers._SIEVE_PRIMES).flatmap(
            lambda p: st.integers(min_value=1, max_value=1 << 200).map(p.__mul__)
        ),
    ))
    def test_gcd_sieve_is_trial_division(self, n):
        by_division = any(n % p == 0 for p in numbers._SIEVE_PRIMES)
        assert numbers._has_sieve_factor(n) == by_division


class TestModularInverse:
    def test_known_inverse(self):
        assert modular_inverse(3, 11) == 4  # 3*4 = 12 ≡ 1 (mod 11)

    def test_no_inverse_raises(self):
        with pytest.raises(ValueError):
            modular_inverse(6, 9)

    @given(st.integers(min_value=2, max_value=10_000))
    def test_inverse_property_mod_prime(self, a):
        p = 1_000_003  # prime
        inverse = modular_inverse(a, p)
        assert (a * inverse) % p == 1
        assert 0 <= inverse < p
