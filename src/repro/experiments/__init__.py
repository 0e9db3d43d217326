"""Experiment harness: scenario assembly, runners, the figure registry."""

from repro.experiments.figures import (
    BENCH_SCALE,
    FIGURES,
    PAPER_SCALE,
    TEST_SCALE,
    FigureDef,
    FigureResult,
    Scale,
    run_figure,
)
from repro.experiments.reporting import format_table
from repro.experiments.runner import RepeatedMetrics, RunMetrics, repeat
from repro.experiments.scenarios import SimulationBundle, TopologySpec

__all__ = [
    "BENCH_SCALE",
    "FIGURES",
    "PAPER_SCALE",
    "TEST_SCALE",
    "FigureDef",
    "FigureResult",
    "Scale",
    "run_figure",
    "format_table",
    "RepeatedMetrics",
    "RunMetrics",
    "repeat",
    "SimulationBundle",
    "TopologySpec",
]
