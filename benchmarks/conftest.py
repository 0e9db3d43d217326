"""Benchmark-suite plumbing.

Each benchmark regenerates one table/figure of the paper at a scaled-down
topology (see DESIGN.md §5) and registers the rendered rows here; the
``pytest_terminal_summary`` hook prints every table at the end of the run so
``pytest benchmarks/ --benchmark-only | tee bench_output.txt`` captures the
reproduced series alongside the timing numbers.

The Brahms baselines are shared through a session-scoped cache: Figs. 5-9
and 13 all compare against the same Fig. 3 runs.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.experiments.figures import BENCH_SCALE, BaselineCache, Scale
from repro.experiments.runner import RunMetrics
from repro.experiments.scenarios import TopologySpec
from repro.scenario import ScenarioSpec, run_scenario

_REPORTS: List[str] = []


def record_report(text: str) -> None:
    _REPORTS.append(text)


def bench_metrics(scale: Scale, protocol: str, byzantine_fraction: float,
                  trusted_fraction: float = 0.0, **sections) -> RunMetrics:
    """The paper's three metrics of one ablation cell: a spec at ``scale``
    (its base seed and round count); ``sections`` are the spec's
    ``brahms`` / ``raptee`` fields."""
    spec = ScenarioSpec(
        name="ablation", protocol=protocol, seed=scale.base_seed,
        rounds=scale.rounds,
        topology=TopologySpec(
            n_nodes=scale.n_nodes, byzantine_fraction=byzantine_fraction,
            trusted_fraction=trusted_fraction, view_ratio=scale.view_ratio,
        ),
        **sections,
    )
    return run_scenario(spec, telemetry=None).metrics


@pytest.fixture(scope="session")
def bench_scale() -> Scale:
    return BENCH_SCALE


@pytest.fixture(scope="session")
def baseline_cache() -> BaselineCache:
    return BaselineCache(BENCH_SCALE)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("=" * 72)
    terminalreporter.write_line("Reproduced paper tables/figures (scaled topology, see DESIGN.md §5)")
    terminalreporter.write_line("=" * 72)
    for report in _REPORTS:
        terminalreporter.write_line("")
        terminalreporter.write_line(report)
