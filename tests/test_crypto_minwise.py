"""Min-wise hash family tests."""

import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.crypto.minwise import (
    MERSENNE_PRIME_31,
    MinWiseFamily,
    MinWiseHash,
    scramble64,
)


class TestLinearHash:
    def test_output_range(self):
        h = MinWiseHash(a=12345, b=678)
        for value in (0, 1, 2**31, 2**63):
            assert 0 <= h(value) < MERSENNE_PRIME_31

    def test_deterministic(self):
        h = MinWiseHash(a=3, b=4)
        assert h(99) == h(99)

    def test_coefficient_validation(self):
        with pytest.raises(ValueError):
            MinWiseHash(a=0, b=0)
        with pytest.raises(ValueError):
            MinWiseHash(a=1, b=MERSENNE_PRIME_31)

    def test_known_value(self):
        expected = (2 * (scramble64(10) % MERSENNE_PRIME_31) + 3) % MERSENNE_PRIME_31
        assert MinWiseHash(a=2, b=3)(10) == expected

    @given(value=st.integers(min_value=0, max_value=2**62))
    def test_matches_direct_formula(self, value):
        h = MinWiseHash(a=7919, b=104729)
        expected = (7919 * (scramble64(value) % MERSENNE_PRIME_31) + 104729) % MERSENNE_PRIME_31
        assert h(value) == expected

    def test_scramble_is_the_splitmix64_finaliser(self):
        # SplitMix64 seeded with 0 adds the golden-ratio increment and
        # finalises: its first two published outputs.
        gamma = 0x9E3779B97F4A7C15
        assert scramble64(gamma) == 0xE220A8397B1DCDAF
        assert scramble64(2 * gamma) == 0x6E789E6AA1B965F4

    def test_scramble_is_injective_on_node_ids(self):
        ids = range(100_000)
        assert len({scramble64(value) for value in ids}) == 100_000


class TestFamily:
    def test_draws_are_distinct(self):
        family = MinWiseFamily(random.Random(0))
        functions = [family.draw() for _ in range(10)]
        assert len({(f.a, f.b) for f in functions}) == 10

    def test_min_selection_is_roughly_uniform(self):
        """Each of k stream elements should win the min-competition about
        equally often across independent draws (the min-wise property)."""
        rng = random.Random(5)
        family = MinWiseFamily(rng)
        elements = [100, 200, 300, 400, 500]
        winners = Counter()
        trials = 2000
        for _ in range(trials):
            h = family.draw()
            winners[min(elements, key=h)] += 1
        expected = trials / len(elements)
        for element in elements:
            assert abs(winners[element] - expected) < expected * 0.25
