"""Count-min sketch and stream-unbiasing tests (future-work extension)."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.brahms.countmin import CountMinSketch, StreamUnbiaser
from repro.core.eviction import FixedEviction
from repro.experiments.scenarios import TopologySpec
from repro.scenario import RapteeOptions, ScenarioSpec, run_scenario


class TestCountMinSketch:
    def test_estimate_upper_bounds_true_count(self):
        sketch = CountMinSketch(width=64, depth=4, rng=random.Random(0))
        for _ in range(10):
            sketch.update(42)
        sketch.update(7)
        assert sketch.estimate(42) >= 10
        assert sketch.estimate(7) >= 1

    def test_estimate_is_accurate_for_sparse_streams(self):
        sketch = CountMinSketch(width=512, depth=4, rng=random.Random(0))
        truth = {item: item % 5 + 1 for item in range(20)}
        for item, count in truth.items():
            sketch.update(item, count)
        for item, count in truth.items():
            assert sketch.estimate(item) == count  # no collisions at this load

    def test_unseen_item_estimates_near_zero(self):
        sketch = CountMinSketch(width=256, depth=4, rng=random.Random(0))
        sketch.update_batch(range(10))
        assert sketch.estimate(999_999) <= 1

    def test_total_tracks_updates(self):
        sketch = CountMinSketch(width=16, depth=2, rng=random.Random(0))
        sketch.update(1, 5)
        sketch.update(2)
        assert sketch.total == 6

    def test_decay_halves_counters(self):
        sketch = CountMinSketch(width=16, depth=2, rng=random.Random(0))
        sketch.update(1, 8)
        sketch.decay(0.5)
        assert sketch.estimate(1) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            CountMinSketch(0, 4, random.Random(0))
        sketch = CountMinSketch(8, 2, random.Random(0))
        with pytest.raises(ValueError):
            sketch.update(1, 0)
        with pytest.raises(ValueError):
            sketch.decay(1.5)

    @given(items=st.lists(st.integers(min_value=0, max_value=100), max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_estimate_never_underestimates(self, items):
        sketch = CountMinSketch(width=32, depth=3, rng=random.Random(1))
        sketch.update_batch(items)
        truth = Counter(items)
        for item, count in truth.items():
            assert sketch.estimate(item) >= count


class TestStreamUnbiaser:
    def test_uniform_stream_mostly_kept(self):
        unbiaser = StreamUnbiaser(random.Random(0), width=512)
        batch = list(range(100))
        unbiaser.observe(batch)
        kept = unbiaser.unbias(batch)
        assert len(kept) > 80  # all estimates equal → keep ≈ everything

    def test_over_advertised_id_is_suppressed(self):
        unbiaser = StreamUnbiaser(random.Random(0), width=512)
        # ID 1 advertised 50×, IDs 2..11 once each.
        batch = [1] * 50 + list(range(2, 12))
        unbiaser.observe(batch)
        kept = unbiaser.unbias(batch)
        counts = Counter(kept)
        assert counts[1] <= 10  # ~50/50 = 1 expected, allow slack
        rare_kept = sum(counts[item] for item in range(2, 12))
        assert rare_kept >= 7

    def test_empty_batch(self):
        unbiaser = StreamUnbiaser(random.Random(0))
        assert unbiaser.unbias([]) == []

    def test_never_returns_empty_from_nonempty(self):
        unbiaser = StreamUnbiaser(random.Random(0))
        batch = [5] * 1000
        for _ in range(30):
            unbiaser.observe(batch)
        assert len(unbiaser.unbias(batch)) >= 1

    def test_periodic_decay_runs(self):
        unbiaser = StreamUnbiaser(random.Random(0), decay_every=2)
        unbiaser.observe([1, 2, 3])
        total_before = unbiaser.sketch.total
        unbiaser.observe([1, 2, 3])  # triggers decay
        assert unbiaser.sketch.total < total_before + 3


def _metrics(topology, seed, rounds, eviction, sketch_unbias_enabled):
    spec = ScenarioSpec(
        name="countmin", protocol="raptee", seed=seed, rounds=rounds,
        topology=topology,
        raptee=RapteeOptions(eviction=eviction,
                             sketch_unbias_enabled=sketch_unbias_enabled),
    )
    return run_scenario(spec, telemetry=None).metrics


class TestRapteeIntegration:
    def test_sketch_unbias_runs_end_to_end(self):
        topology = TopologySpec(
            n_nodes=80, byzantine_fraction=0.2, trusted_fraction=0.1, view_ratio=0.1
        )
        metrics = _metrics(topology, 4, 15, FixedEviction(0.4), True)
        assert 0.0 <= metrics.resilience <= 1.0

    def test_unbias_reduces_pollution_vs_disabled(self):
        """The adversary's pull answers over-advertise Byzantine IDs; the
        sketch should blunt that edge (weak directional check, one seed)."""
        topology = TopologySpec(
            n_nodes=120, byzantine_fraction=0.25, trusted_fraction=0.1, view_ratio=0.1
        )
        plain = _metrics(topology, 6, 30, FixedEviction(0.0), False)
        unbiased = _metrics(topology, 6, 30, FixedEviction(0.0), True)
        assert unbiased.resilience <= plain.resilience + 0.05
