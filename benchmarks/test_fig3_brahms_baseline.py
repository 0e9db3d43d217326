"""Fig. 3 — Brahms resilience, discovery and stability under Byzantine faults.

Paper shape: the fraction of Byzantine IDs in correct views rises steeply
with f (the intro cites 81 % pollution at f = 18 %), and discovery slows as
f grows.
"""

from conftest import record_report

from repro.experiments.figures import FIGURES, run_figure

F_VALUES = (0.10, 0.14, 0.18, 0.22, 0.26, 0.30)


def test_fig3_brahms_baseline(benchmark, bench_scale, memo):
    result = benchmark.pedantic(
        lambda: run_figure(FIGURES["fig3"], bench_scale, memo, byzantine_fraction=F_VALUES),
        rounds=1,
        iterations=1,
    )
    record_report(result.render())

    pollution = [float(row) for row in result.column("byz-in-views %")]
    # Shape: pollution rises with f and far exceeds the Byzantine share.
    assert pollution[-1] > pollution[0]
    assert pollution[0] > 100 * F_VALUES[0]
    assert pollution[-1] > 50.0
