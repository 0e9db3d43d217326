"""Ablation — count-min-sketch stream unbiasing (the paper's future work).

§VIII: "[Anceaume et al.] employ count-min sketches to unbias a biased
stream of identifiers. Adopting a similar technique in RAPTEE could
constitute interesting future work."  This bench implements and measures
exactly that: RAPTEE with and without the sketch flattening the pulled-ID
stream before view renewal, at two eviction settings.
"""

from conftest import bench_metrics, record_report

from repro.analysis.metrics import resilience_improvement
from repro.core.eviction import AdaptiveEviction, FixedEviction
from repro.experiments.figures import FigureResult
from repro.scenario import RapteeOptions

F = 0.20
T = 0.10


def test_ablation_countmin_unbiasing(benchmark, bench_scale):
    def run():
        baseline = bench_metrics(bench_scale, "brahms", F)
        result = FigureResult(
            figure_id="Ablation — count-min stream unbiasing (future work, f=20%, t=10%)",
            headers=["eviction", "sketch", "improvement %"],
        )
        for policy in (FixedEviction(0.0), AdaptiveEviction()):
            for sketch in (False, True):
                options = RapteeOptions(eviction=policy,
                                        sketch_unbias_enabled=sketch)
                metrics = bench_metrics(bench_scale, "raptee", F, T,
                                        raptee=options)
                result.rows.append(
                    [
                        policy.describe(),
                        "on" if sketch else "off",
                        f"{resilience_improvement(baseline.resilience, metrics.resilience):+.1f}",
                    ]
                )
        return result

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    record_report(result.render())
    improvements = {(row[0], row[1]): float(row[2]) for row in result.rows}
    # The sketch must not *hurt* materially; directionally it should help
    # against the over-advertising adversary.
    for policy in ("fixed-0%", "adaptive"):
        assert improvements[(policy, "on")] > improvements[(policy, "off")] - 5.0
