"""Figs. 5-8 — resilience improvement and overheads under fixed eviction.

Paper shape across the four subfigure families:

* improvement grows with the trusted share t (sublinearly);
* a higher eviction rate yields more resilience for moderate f;
* overheads (discovery/stability) grow with the eviction rate.

One bench per figure so per-figure timings land in the benchmark table.
"""

import pytest
from conftest import record_report

from repro.experiments.figures import FIGURES, run_figure

F_VALUES = (0.10, 0.20, 0.30)
T_VALUES = (0.02, 0.10, 0.30)


def _run(benchmark, bench_scale, memo, figure_id):
    result = benchmark.pedantic(
        lambda: run_figure(
            FIGURES[figure_id], bench_scale, memo,
            byzantine_fraction=F_VALUES, trusted_fraction=T_VALUES,
        ),
        rounds=1,
        iterations=1,
    )
    record_report(result.render())
    return result


def _improvements_by_t(result):
    by_t = {}
    for row in result.rows:
        by_t.setdefault(row[1], []).append(float(row[2]))
    return by_t


def test_fig5_eviction_0(benchmark, bench_scale, memo):
    result = _run(benchmark, bench_scale, memo, "fig5")
    by_t = _improvements_by_t(result)
    # Largest trusted share helps even with no eviction (trusted comms only).
    assert max(by_t["30%"]) > 0.0


def test_fig6_eviction_40(benchmark, bench_scale, memo):
    result = _run(benchmark, bench_scale, memo, "fig6")
    by_t = _improvements_by_t(result)
    assert max(by_t["30%"]) > 0.0


def test_fig7_eviction_60(benchmark, bench_scale, memo):
    result = _run(benchmark, bench_scale, memo, "fig7")
    by_t = _improvements_by_t(result)
    assert max(by_t["30%"]) > 0.0
    # Improvement grows with t (paper: sublinear but monotone in t).
    assert max(by_t["30%"]) > min(by_t["2%"])


def test_fig8_eviction_100(benchmark, bench_scale, memo):
    result = _run(benchmark, bench_scale, memo, "fig8")
    by_t = _improvements_by_t(result)
    assert max(by_t["30%"]) > 5.0  # strongest configuration at high t
