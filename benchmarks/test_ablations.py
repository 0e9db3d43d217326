"""Ablation benches for the design choices DESIGN.md calls out.

Not in the paper — these quantify each mechanism's contribution:

* γ (history-sample) sweep: Brahms defense (iv) is what bounds the
  pollution spiral; removing it should hurt.
* RAPTEE component attribution: trusted exchange and eviction toggled
  independently.
* adaptive-rule anchor sweep: the paper's (20 %, 80 %) anchors vs wider and
  narrower bands.
"""

import dataclasses

from conftest import bench_metrics, record_report

from repro.analysis.metrics import resilience_improvement
from repro.core.eviction import AdaptiveEviction
from repro.experiments.figures import FigureResult
from repro.experiments.scenarios import TopologySpec
from repro.scenario import RapteeOptions

F = 0.20
T = 0.20


def test_ablation_gamma_history_sample(benchmark, bench_scale):
    """Sweep the history-sample share γ (α and β rebalanced to keep sum 1)."""

    def run():
        base_config = TopologySpec(
            n_nodes=bench_scale.n_nodes, byzantine_fraction=F,
            view_ratio=bench_scale.view_ratio,
        ).brahms_config()
        result = FigureResult(
            figure_id="Ablation — history-sample share γ (Brahms defense iv)",
            headers=["gamma", "byz-in-views %"],
        )
        for gamma in (0.0, 0.1, 0.2, 0.3):
            remainder = (1.0 - gamma) / 2.0
            config = dataclasses.replace(
                base_config, alpha=remainder, beta=remainder, gamma=gamma
            )
            metrics = bench_metrics(bench_scale, "brahms", F, brahms=config)
            result.rows.append([f"{gamma:.1f}", f"{metrics.resilience_percent:.1f}"])
        return result

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    record_report(result.render())
    pollution = [float(row[1]) for row in result.rows]
    # No history sampling (γ=0) must be the most polluted configuration.
    assert pollution[0] >= max(pollution[1:]) - 2.0


def test_ablation_raptee_components(benchmark, bench_scale):
    """Attribute RAPTEE's gain to its two mechanisms."""

    def run():
        baseline = bench_metrics(bench_scale, "brahms", F)
        result = FigureResult(
            figure_id="Ablation — RAPTEE component attribution (f=20%, t=20%)",
            headers=["trusted exchange", "eviction", "improvement %"],
        )
        for exchange in (False, True):
            for eviction in (False, True):
                options = RapteeOptions(trusted_exchange_enabled=exchange,
                                        eviction_enabled=eviction)
                metrics = bench_metrics(bench_scale, "raptee", F, T,
                                        raptee=options)
                result.rows.append(
                    [
                        "on" if exchange else "off",
                        "on" if eviction else "off",
                        f"{resilience_improvement(baseline.resilience, metrics.resilience):+.1f}",
                    ]
                )
        return result

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    record_report(result.render())
    improvements = {(row[0], row[1]): float(row[2]) for row in result.rows}
    # Full RAPTEE must beat the no-mechanism configuration.
    assert improvements[("on", "on")] > improvements[("off", "off")]


def test_ablation_adaptive_anchors(benchmark, bench_scale):
    """Sweep the adaptive rule's anchor rates around the paper's 20/80."""

    def run():
        baseline = bench_metrics(bench_scale, "brahms", F)
        result = FigureResult(
            figure_id="Ablation — adaptive eviction anchors (low rate / high rate)",
            headers=["low rate", "high rate", "improvement %"],
        )
        for low_rate, high_rate in ((0.0, 1.0), (0.2, 0.8), (0.4, 0.6)):
            policy = AdaptiveEviction(low_rate=low_rate, high_rate=high_rate)
            metrics = bench_metrics(bench_scale, "raptee", F, T,
                                    raptee=RapteeOptions(eviction=policy))
            result.rows.append(
                [
                    f"{low_rate:.1f}",
                    f"{high_rate:.1f}",
                    f"{resilience_improvement(baseline.resilience, metrics.resilience):+.1f}",
                ]
            )
        return result

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    record_report(result.render())
    assert len(result.rows) == 3
