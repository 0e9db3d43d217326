"""Ablation — count-min-sketch stream unbiasing (the paper's future work).

§VIII: "[Anceaume et al.] employ count-min sketches to unbias a biased
stream of identifiers. Adopting a similar technique in RAPTEE could
constitute interesting future work."  This bench implements and measures
exactly that: RAPTEE with and without the sketch flattening the pulled-ID
stream before view renewal, at two eviction settings.
"""

from conftest import record_report

from repro.analysis.metrics import resilience_improvement
from repro.core.eviction import AdaptiveEviction, FixedEviction
from repro.experiments.figures import FigureDef, run_figure

F = 0.20
T = 0.10

SKETCH = FigureDef(
    "Ablation — count-min stream unbiasing (future work, f=20%, t=10%)",
    ("eviction", "sketch", "improvement %"),
    lambda cell, values, baseline: [[
        cell["eviction"].describe(),
        "on" if cell["sketch_unbias_enabled"] else "off",
        f"{resilience_improvement(baseline[0], values[0]):+.1f}",
    ]],
    {"protocol": "raptee", "byzantine_fraction": F, "trusted_fraction": T},
    {"eviction": (FixedEviction(0.0), AdaptiveEviction()), "sketch_unbias_enabled": (False, True)},
    baseline=lambda cell: {"protocol": "brahms", "byzantine_fraction": F},
)


def test_ablation_countmin_unbiasing(benchmark, bench_scale, memo):
    result = benchmark.pedantic(
        lambda: run_figure(SKETCH, bench_scale, memo), rounds=1, iterations=1
    )
    record_report(result.render())
    improvements = {(row[0], row[1]): float(row[2]) for row in result.rows}
    # The sketch must not *hurt* materially; directionally it should help
    # against the over-advertising adversary.
    for policy in ("fixed-0%", "adaptive"):
        assert improvements[(policy, "on")] > improvements[(policy, "off")] - 5.0
