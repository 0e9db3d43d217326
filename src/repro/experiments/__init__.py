"""Experiment harness: scenario assembly, runners, per-figure reproductions."""

from repro.experiments.figures import (
    BaselineCache,
    BENCH_SCALE,
    FigureResult,
    PAPER_SCALE,
    Scale,
    TEST_SCALE,
    eviction_figure,
    figure3_brahms_baseline,
    figure9_adaptive,
    figure13_poisoned_injection,
    fixed_eviction_figure,
    identification_figure,
    table1_sgx_overhead,
)
from repro.experiments.reporting import format_table
from repro.experiments.runner import RepeatedMetrics, RunMetrics, repeat
from repro.experiments.scenarios import SimulationBundle, TopologySpec

__all__ = [
    "BaselineCache",
    "BENCH_SCALE",
    "FigureResult",
    "PAPER_SCALE",
    "Scale",
    "TEST_SCALE",
    "eviction_figure",
    "figure3_brahms_baseline",
    "figure9_adaptive",
    "figure13_poisoned_injection",
    "fixed_eviction_figure",
    "identification_figure",
    "table1_sgx_overhead",
    "format_table",
    "RepeatedMetrics",
    "RunMetrics",
    "repeat",
    "SimulationBundle",
    "TopologySpec",
]
