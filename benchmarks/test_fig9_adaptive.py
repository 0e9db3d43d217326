"""Fig. 9 — resilience improvement and overheads under the adaptive rule.

Paper shape: adaptive eviction matches or beats the fixed configurations on
resilience while keeping overheads near the 0 %-eviction level.
"""

from conftest import record_report

from repro.experiments.figures import FIGURES, run_figure

F_VALUES = (0.10, 0.20, 0.30)
T_VALUES = (0.02, 0.10, 0.30)


def test_fig9_adaptive_eviction(benchmark, bench_scale, memo):
    result = benchmark.pedantic(
        lambda: run_figure(
            FIGURES["fig9"], bench_scale, memo,
            byzantine_fraction=F_VALUES, trusted_fraction=T_VALUES,
        ),
        rounds=1,
        iterations=1,
    )
    record_report(result.render())

    improvements = [float(row[2]) for row in result.rows]
    t30 = [float(row[2]) for row in result.rows if row[1] == "30%"]
    # RAPTEE with a meaningful trusted share always improves on Brahms.
    assert max(t30) > 0.0
    # Across the grid the mean effect is an improvement, not a regression.
    assert sum(improvements) / len(improvements) > 0.0
