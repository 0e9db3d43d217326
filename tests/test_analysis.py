"""Metric and statistics tests."""

import math
import statistics

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.analysis.metrics import (
    overhead_percent,
    resilience_from_trace,
    resilience_improvement,
    stability_round,
    stability_tolerance_for,
    PAPER_VIEW_SIZE,
)
from repro.analysis.stats import summarize
from repro.sim.node import NodeKind
from repro.sim.observers import KIND_CODE, RoundRecord


def record(round_number, fractions):
    return RoundRecord(
        round_number,
        np.arange(len(fractions), dtype=np.int64),
        np.full(len(fractions), KIND_CODE[NodeKind.HONEST], dtype=np.int8),
        np.array(fractions, dtype=np.float64),
        0, 0, 0,
    )


class TestResilience:
    def test_tail_average(self):
        records = [record(i, [0.1 * i]) for i in range(1, 6)]
        assert resilience_from_trace(records, tail=2) == pytest.approx(0.45)

    def test_whole_trace_when_tail_larger(self):
        records = [record(1, [0.2]), record(2, [0.4])]
        assert resilience_from_trace(records, tail=10) == pytest.approx(0.3)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            resilience_from_trace([])

    def test_bad_tail_rejected(self):
        with pytest.raises(ValueError):
            resilience_from_trace([record(1, [0.1])], tail=0)


class TestStability:
    def test_detects_first_stable_round(self):
        records = [
            record(1, [0.1, 0.9]),   # wildly dispersed
            record(2, [0.3, 0.35]),  # stable
            record(3, [0.3, 0.36]),
        ]
        assert stability_round(records, tolerance=0.10) == 2

    def test_sustained_requirement(self):
        records = [
            record(1, [0.3, 0.31]),
            record(2, [0.1, 0.9]),  # breaks the streak
            record(3, [0.3, 0.31]),
            record(4, [0.3, 0.32]),
        ]
        assert stability_round(records, tolerance=0.10, sustained=2) == 3

    def test_never_stable_returns_minus_one(self):
        records = [record(i, [0.0, 1.0]) for i in range(1, 5)]
        assert stability_round(records, tolerance=0.10) == -1

    def test_requires_exactly_one_band_argument(self):
        with pytest.raises(ValueError):
            stability_round([], tolerance=0.1, view_size=20)
        with pytest.raises(ValueError):
            stability_round([])

    def test_scaled_tolerance_matches_paper_at_paper_scale(self):
        # At l1 = 200 and 30 % pollution, the z·σ band is the paper's 10 %.
        assert stability_tolerance_for(PAPER_VIEW_SIZE, 0.30) == pytest.approx(0.10, abs=0.005)

    def test_scaled_tolerance_grows_for_small_views(self):
        assert stability_tolerance_for(12, 0.3) > stability_tolerance_for(200, 0.3)

    def test_scaled_tolerance_floor(self):
        # Tiny pollution: binomial σ shrinks, but the paper's 10 % floor holds.
        assert stability_tolerance_for(200, 0.001) == pytest.approx(0.10)

    @given(view=st.integers(min_value=1, max_value=10_000),
           mean=st.floats(min_value=0.0, max_value=1.0))
    def test_scaled_tolerance_bounds(self, view, mean):
        tol = stability_tolerance_for(view, mean)
        assert 0.10 <= tol <= 0.10 + 3.1 * 0.5


class TestImprovementAndOverhead:
    def test_improvement_positive_when_cleaner(self):
        assert resilience_improvement(0.50, 0.40) == pytest.approx(20.0)

    def test_improvement_negative_when_worse(self):
        assert resilience_improvement(0.40, 0.50) == pytest.approx(-25.0)

    def test_improvement_zero_baseline(self):
        assert resilience_improvement(0.0, 0.1) == 0.0

    def test_overhead_positive_when_slower(self):
        assert overhead_percent(100, 112) == pytest.approx(12.0)

    def test_overhead_negative_when_faster(self):
        assert overhead_percent(100, 82) == pytest.approx(-18.0)

    def test_overhead_none_when_not_reached(self):
        assert overhead_percent(-1, 50) is None
        assert overhead_percent(50, -1) is None


class TestSummarize:
    def test_empty_returns_none(self):
        assert summarize([]) is None

    def test_single_value(self):
        summary = summarize([3.0])
        assert summary.mean == 3.0
        assert summary.std == 0.0
        assert summary.ci95_half_width == 0.0

    def test_statistics(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.mean == pytest.approx(2.5)
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.count == 4
        assert summary.ci95_half_width > 0

    def test_std_is_sample_standard_deviation(self):
        # Regression: std used to be the population form (divide by n), but
        # ci95_half_width applies the normal-CI formula, which assumes the
        # unbiased sample estimator (divide by n-1).
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.std == pytest.approx(math.sqrt(5.0 / 3.0))
        assert summary.std == pytest.approx(statistics.stdev([1.0, 2.0, 3.0, 4.0]))
        assert summary.ci95_half_width == pytest.approx(
            1.96 * math.sqrt(5.0 / 3.0) / 2.0
        )

    def test_zero_samples_returns_none_not_summary(self):
        assert summarize([]) is None
        assert summarize(()) is None

    def test_one_sample_has_zero_spread(self):
        summary = summarize([7.25])
        assert summary.count == 1
        assert summary.mean == 7.25
        assert summary.minimum == summary.maximum == 7.25
        # n-1 would divide by zero; one sample is defined as zero spread.
        assert summary.std == 0.0
        assert summary.ci95_half_width == 0.0

    def test_constant_sample_has_zero_std(self):
        summary = summarize([2.0, 2.0, 2.0])
        assert summary.std == 0.0
        assert summary.ci95_half_width == 0.0

    @given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
    def test_mean_within_min_max(self, values):
        summary = summarize(values)
        assert summary.minimum - 1e-6 <= summary.mean <= summary.maximum + 1e-6
