"""Brahms configuration and sampling-component tests."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.brahms.config import BrahmsConfig
from repro.brahms.sampler import Sampler, SamplerGroup
from repro.crypto.minwise import MinWiseFamily

from tests._pinned import assert_saturated_samples_uniform


class TestConfig:
    def test_defaults_follow_the_paper(self):
        config = BrahmsConfig()
        assert (config.alpha, config.beta, config.gamma) == (0.4, 0.4, 0.2)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            BrahmsConfig(alpha=0.5, beta=0.5, gamma=0.5)

    def test_counts_partition_the_view(self):
        config = BrahmsConfig(view_size=200, sample_size=100)
        assert config.alpha_count == 80
        assert config.beta_count == 80
        assert config.gamma_count == 40

    def test_small_views_keep_gamma_slots(self):
        config = BrahmsConfig(view_size=8, sample_size=4)
        assert config.gamma_count >= 1

    def test_scaled_matches_paper_ratio(self):
        config = BrahmsConfig().scaled(10_000, view_ratio=0.02)
        assert config.view_size == 200
        assert config.sample_size == 100

    def test_scaled_clamps_tiny_systems(self):
        config = BrahmsConfig().scaled(50)
        assert config.view_size >= 8
        assert config.sample_size >= 4

    def test_effective_push_limit_defaults_to_alpha(self):
        config = BrahmsConfig(view_size=20)
        assert config.effective_push_limit == config.alpha_count
        assert BrahmsConfig(push_limit=99).effective_push_limit == 99

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            BrahmsConfig(view_size=0)
        with pytest.raises(ValueError):
            BrahmsConfig(sample_size=0)
        with pytest.raises(ValueError):
            BrahmsConfig(push_limit=0)
        with pytest.raises(ValueError):
            BrahmsConfig(validation_period=-1)


@pytest.fixture
def family(rng):
    return MinWiseFamily(rng)


#: Two ids with the same ``scramble64(id) mod p`` (one inside the reduced-id
#: table, one past it), so every linear min-wise hash ties on them.
_TIED_IDS = (8157, 124875)

_ids = st.one_of(st.sampled_from(_TIED_IDS),
                 st.integers(min_value=0, max_value=2**40))


def _stored(group):
    """Each sampler's retained id and its hash, on either group path."""
    if group._samplers is not None:
        return [(s._current_id, s._current_hash) for s in group._samplers]
    return list(zip(group._current_id.tolist(), group._current_hash.tolist()))


class TestSampler:
    def test_empty_sampler_returns_none(self, family):
        assert Sampler(family.draw()).sample() is None

    def test_sample_is_stream_element(self, family):
        sampler = Sampler(family.draw())
        stream = [10, 20, 30, 40]
        for element in stream:
            sampler.next(element)
        assert sampler.sample() in stream

    def test_sample_is_permutation_invariant(self, family):
        h = family.draw()
        stream = list(range(50))
        forward, backward = Sampler(h), Sampler(h)
        for element in stream:
            forward.next(element)
        for element in reversed(stream):
            backward.next(element)
        assert forward.sample() == backward.sample()

    def test_reset_clears_state(self, family):
        sampler = Sampler(family.draw())
        sampler.next(42)
        sampler.reset(family.draw())
        assert sampler.sample() is None


class TestSamplerGroup:
    def test_size_validation(self, family):
        with pytest.raises(ValueError):
            SamplerGroup(0, family)

    def test_numpy_path_matches_object_samplers(self, rng):
        """The vectorized group must retain exactly what per-element
        Sampler objects would retain under the same hash functions."""
        seed_rng = random.Random(7)
        group = SamplerGroup(8, MinWiseFamily(random.Random(7)))
        # Rebuild the identical hash functions for the reference samplers.
        reference_family = MinWiseFamily(random.Random(7))
        references = [Sampler(reference_family.draw()) for _ in range(8)]
        stream = [seed_rng.randrange(10_000) for _ in range(500)]
        # Ids on both sides of the reduced-id table's end: a batch that
        # holds one beyond it is hashed directly.
        stream[100:100] = [(1 << 14) - 1, 1 << 14, (1 << 40) + 7]
        group.update(stream[:200])
        group.update(stream[200:])
        group.update([(1 << 14) + 3, 5])
        stream += [(1 << 14) + 3, 5]
        for element in stream:
            for sampler in references:
                sampler.next(element)
        assert group.sample_list() == [s.sample() for s in references]

    def test_sample_list_grows_to_group_size(self, family):
        group = SamplerGroup(5, family)
        group.update(range(100))
        assert len(group.sample_list()) == 5

    def test_empty_update_is_noop(self, family):
        group = SamplerGroup(3, family)
        group.update([])
        assert group.sample_list() == []

    def test_random_samples_come_from_sample_list(self, family, rng):
        group = SamplerGroup(4, family)
        group.update(range(100))
        samples = group.random_samples(20, rng)
        assert len(samples) == 20
        assert set(samples) <= set(group.sample_list())

    def test_random_samples_empty_group(self, family, rng):
        assert SamplerGroup(4, family).random_samples(5, rng) == []

    def test_validate_resets_dead_samples(self, family):
        group = SamplerGroup(6, family)
        group.update(range(50))
        reset = group.validate(lambda node_id: False)  # everything dead
        assert reset == 6
        assert group.sample_list() == []

    def test_validate_keeps_alive_samples(self, family):
        group = SamplerGroup(6, family)
        group.update(range(50))
        before = group.sample_list()
        assert group.validate(lambda node_id: True) == 0
        assert group.sample_list() == before

    def test_invalidate_specific_id(self, family):
        group = SamplerGroup(6, family)
        group.update(range(10))
        victim = group.sample_list()[0]
        reset = group.invalidate_id(victim)
        assert reset >= 1
        assert victim not in group.sample_list()

    def test_cryptographic_mode(self, rng):
        group = SamplerGroup(3, MinWiseFamily(rng, cryptographic=True))
        group.update(range(20))
        assert len(group.sample_list()) == 3

    @given(stream=st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_samples_always_from_stream(self, stream):
        group = SamplerGroup(4, MinWiseFamily(random.Random(3)))
        group.update(stream)
        assert set(group.sample_list()) <= set(stream)

    @given(data=st.data(), cryptographic=st.booleans(),
           seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=60, deadline=None)
    def test_two_feeds_equal_one_concatenated_feed(self, data, cryptographic,
                                                   seed):
        """``BrahmsNode.end_round`` feeds pushed + pulled in one update: the
        same samples and hashes as feeding them one after the other, on
        ties too (repeated ids, and two ids every linear hash ties on)."""
        prior = data.draw(st.lists(_ids, max_size=6))
        first = data.draw(st.lists(_ids, max_size=12))
        seen = prior + first
        repeats = st.one_of(_ids, st.sampled_from(seen)) if seen else _ids
        second = data.draw(st.lists(repeats, max_size=12))
        split, joined = (
            SamplerGroup(4, MinWiseFamily(random.Random(seed),
                                          cryptographic=cryptographic))
            for _ in range(2)
        )
        split.update(prior)
        split.update(first)
        split.update(second)
        joined.update(prior)
        joined.update(first + second)
        assert split.sample_list() == joined.sample_list()
        assert _stored(split) == _stored(joined)

    def test_tied_ids_tie_every_linear_hash(self):
        """The tie the property above draws: on both sides of the reduced-id
        table's end, the first of two tied ids stays retained."""
        family = MinWiseFamily(random.Random(0))
        for _ in range(8):
            function = family.draw()
            assert function(_TIED_IDS[0]) == function(_TIED_IDS[1])
        group = SamplerGroup(4, family)
        group.update(list(_TIED_IDS))
        group.update(list(reversed(_TIED_IDS)))
        assert group.sample_list() == [_TIED_IDS[0]] * 4

    def test_saturated_samples_are_uniform(self):
        """The anchor ``TestSamplerAnchors`` holds the shard engine to, on
        the group the per-node engines run: N = 80 with ids 0-7 Byzantine,
        every correct node streams every other id through 40 samplers."""
        n, n_byzantine, sample_size = 80, 8, 40
        histograms = []
        for seed in (1, 2, 3):
            observed = [0] * n
            for node in range(n_byzantine, n):
                group = SamplerGroup(
                    sample_size, MinWiseFamily(random.Random(seed * n + node))
                )
                group.update(pid for pid in range(n) if pid != node)
                for sample in group.sample_list():
                    observed[sample] += 1
            assert sum(observed) == (n - n_byzantine) * sample_size
            histograms.append(observed)
        assert_saturated_samples_uniform(histograms, n_byzantine, sample_size)

    def test_uniformity_over_distinct_ids(self):
        """Occurrence frequency must not bias the sample: an ID seen 100
        times is no likelier to be retained than one seen once."""
        from collections import Counter
        winners = Counter()
        for trial in range(400):
            group = SamplerGroup(1, MinWiseFamily(random.Random(trial)))
            group.update([1] * 100 + [2])
            winners[group.sample_list()[0]] += 1
        assert 120 < winners[2] < 280  # ≈ 200 under uniformity
