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

from conftest import record_report

from repro.analysis.metrics import resilience_improvement
from repro.core.eviction import AdaptiveEviction
from repro.experiments.figures import FigureDef, run_figure
from repro.experiments.scenarios import TopologySpec

F = 0.20
T = 0.20
RAPTEE = {"protocol": "raptee", "byzantine_fraction": F, "trusted_fraction": T}


def _brahms(cell):
    return {"protocol": "brahms", "byzantine_fraction": F}


def _improvement(values, baseline):
    return f"{resilience_improvement(baseline[0], values[0]):+.1f}"


def _on(flag):
    return "on" if flag else "off"


def test_ablation_gamma_history_sample(benchmark, bench_scale, memo):
    """Sweep the history-sample share γ (α and β rebalanced to keep sum 1)."""
    base_config = TopologySpec(
        n_nodes=bench_scale.n_nodes, byzantine_fraction=F,
        view_ratio=bench_scale.view_ratio,
    ).brahms_config()
    gamma = FigureDef(
        "Ablation — history-sample share γ (Brahms defense iv)",
        ("gamma", "byz-in-views %"),
        lambda cell, values, _: [[f"{cell['brahms'].gamma:.1f}", f"{100 * values[0]:.1f}"]],
        {"protocol": "brahms", "byzantine_fraction": F},
        {"brahms": tuple(
            dataclasses.replace(base_config, alpha=(1.0 - share) / 2.0,
                                beta=(1.0 - share) / 2.0, gamma=share)
            for share in (0.0, 0.1, 0.2, 0.3)
        )},
    )

    result = benchmark.pedantic(
        lambda: run_figure(gamma, bench_scale, memo), rounds=1, iterations=1
    )
    record_report(result.render())
    pollution = [float(row[1]) for row in result.rows]
    # No history sampling (γ=0) must be the most polluted configuration.
    assert pollution[0] >= max(pollution[1:]) - 2.0


def test_ablation_raptee_components(benchmark, bench_scale, memo):
    """Attribute RAPTEE's gain to its two mechanisms."""
    components = FigureDef(
        "Ablation — RAPTEE component attribution (f=20%, t=20%)",
        ("trusted exchange", "eviction", "improvement %"),
        lambda cell, values, baseline: [[
            _on(cell["trusted_exchange_enabled"]), _on(cell["eviction_enabled"]),
            _improvement(values, baseline),
        ]],
        RAPTEE, {"trusted_exchange_enabled": (False, True), "eviction_enabled": (False, True)},
        baseline=_brahms,
    )

    result = benchmark.pedantic(
        lambda: run_figure(components, bench_scale, memo), rounds=1, iterations=1
    )
    record_report(result.render())
    improvements = {(row[0], row[1]): float(row[2]) for row in result.rows}
    # Full RAPTEE must beat the no-mechanism configuration.
    assert improvements[("on", "on")] > improvements[("off", "off")]


def test_ablation_adaptive_anchors(benchmark, bench_scale, memo):
    """Sweep the adaptive rule's anchor rates around the paper's 20/80."""
    anchors = FigureDef(
        "Ablation — adaptive eviction anchors (low rate / high rate)",
        ("low rate", "high rate", "improvement %"),
        lambda cell, values, baseline: [[
            f"{cell['eviction'].low_rate:.1f}", f"{cell['eviction'].high_rate:.1f}",
            _improvement(values, baseline),
        ]],
        RAPTEE,
        {"eviction": tuple(AdaptiveEviction(low_rate=low_rate, high_rate=high_rate)
                           for low_rate, high_rate in ((0.0, 1.0), (0.2, 0.8), (0.4, 0.6)))},
        baseline=_brahms,
    )

    result = benchmark.pedantic(
        lambda: run_figure(anchors, bench_scale, memo), rounds=1, iterations=1
    )
    record_report(result.render())
    assert len(result.rows) == 3
