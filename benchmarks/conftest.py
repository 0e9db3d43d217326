"""Benchmark-suite plumbing.

Each benchmark regenerates one table/figure of the paper at a scaled-down
topology (see DESIGN.md §5) and registers the rendered rows here; the
``pytest_terminal_summary`` hook prints every table at the end of the run so
``pytest benchmarks/ --benchmark-only | tee bench_output.txt`` captures the
reproduced series alongside the timing numbers.

Every bench runs a ``FigureDef`` through ``run_figure``, sharing one
session-scoped memo keyed by each cell's spec and seeds: a Brahms baseline
cell that Figs. 3, 5-9, 13 and the ablations have in common runs once.
"""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro.experiments.figures import BENCH_SCALE, Scale

_REPORTS: List[str] = []


def record_report(text: str) -> None:
    _REPORTS.append(text)


@pytest.fixture(scope="session")
def bench_scale() -> Scale:
    return BENCH_SCALE


@pytest.fixture(scope="session")
def memo() -> Dict:
    return {}


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
