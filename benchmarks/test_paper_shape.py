"""The paper's shapes at ``BENCH_SCALE``: who wins, which way a curve bends.

Each row of :data:`SHAPES` is one check: a ``FIGURES`` id, the axes it
sweeps here (the def's own axes otherwise) and what its rows must show.
Tier-1 pins each figure's bytes at a tiny scale; these assert the shape
at the scale of every number in EXPERIMENTS.md.  ``repro figure <id>
--scale bench`` prints the same tables.  One module-wide memo runs each
shared Brahms baseline once.

    PYTHONPATH=src python -m pytest benchmarks/test_paper_shape.py -q --durations=0
"""

from typing import Dict, List

import pytest

from repro.core.eviction import FixedEviction
from repro.experiments.figures import BENCH_SCALE, FIGURES, FigureResult, run_figure
from repro.sgx.cycles import TABLE_I, PeerSamplingFunction

F_FIG3 = (0.10, 0.14, 0.18, 0.22, 0.26, 0.30)
F_GRID = {"byzantine_fraction": (0.10, 0.20, 0.30), "trusted_fraction": (0.02, 0.10, 0.30)}
IDENTIFICATION = {"eviction": (FixedEviction(0.0), FixedEviction(0.6), FixedEviction(1.0)),
                  "trusted_fraction": (0.10, 0.30)}


def _floats(result: FigureResult, column: int) -> List[float]:
    return [float(row[column]) for row in result.rows]


def _by(result: FigureResult, keys: int) -> Dict[tuple, float]:
    """The last column of each row, keyed by its first ``keys`` cells."""
    return {tuple(row[:keys]): float(row[-1]) for row in result.rows}


def _mean(values: List[float]) -> float:
    return sum(values) / len(values)


def fig3(result):
    # Pollution rises with f and far exceeds the Byzantine share.
    pollution = _floats(result, 1)
    assert pollution[-1] > pollution[0]
    assert pollution[0] > 100 * F_FIG3[0]
    assert pollution[-1] > 50.0


def table1(result):
    # Every function pays an enclave overhead within 15 % of the paper's
    # calibrated mean, from live protocol runs, not from the constants.
    function_of = {
        "Pull request": PeerSamplingFunction.PULL_REQUEST,
        "Push message": PeerSamplingFunction.PUSH_MESSAGE,
        "Trusted communications": PeerSamplingFunction.TRUSTED_COMMUNICATIONS,
        "Sample list comput.": PeerSamplingFunction.SAMPLE_LIST_COMPUTATION,
        "Dynamic view comput.": PeerSamplingFunction.DYNAMIC_VIEW_COMPUTATION,
    }
    assert len(result.rows) == len(PeerSamplingFunction.ALL)
    for row in result.rows:
        standard, sgx = (float(str(cell).replace(",", "")) for cell in row[1:3])
        overhead, paper = sgx - standard, TABLE_I[function_of[row[0]]]
        assert overhead > 0, f"{row[0]} shows no SGX overhead"
        assert abs(overhead - paper.mean_overhead) < 0.15 * paper.mean_overhead
        assert abs(standard - paper.standard) < 0.05 * paper.standard


def _improvements_by_t(result) -> Dict[str, List[float]]:
    by_t: Dict[str, List[float]] = {}
    for row in result.rows:
        by_t.setdefault(row[1], []).append(float(row[2]))
    return by_t


def t30_improves(result, above=0.0):
    # The largest trusted share improves on Brahms (Fig. 5: even with no
    # eviction, by trusted exchanges alone).
    assert max(_improvements_by_t(result)["30%"]) > above


def fig7(result):
    t30_improves(result)
    by_t = _improvements_by_t(result)
    # Improvement grows with t (paper: sublinear but monotone in t).
    assert max(by_t["30%"]) > min(by_t["2%"])


def fig9(result):
    # A meaningful trusted share always improves on Brahms, and across the
    # grid the mean effect is an improvement.
    t30_improves(result)
    assert _mean(_floats(result, 2)) > 0.0


def eviction_leaks(result):
    # Eviction is the leakage channel: ER = 100 % beats ER = 0 % on F1.
    f1 = {policy: _mean([float(row[4]) for row in result.rows if row[0] == policy])
          for policy in ("fixed-0%", "fixed-100%")}
    assert f1["fixed-100%"] >= f1["fixed-0%"]


def fig12(result):
    # Adaptive keeps precision modest (paper ≤ ~0.3; our compressed t-axis
    # tolerates a little more at t = 30 %).
    assert _mean(_floats(result, 2)) < 0.6


def fig13(result):
    # Injection at low f does no catastrophic harm vs the no-attack line.
    improvement = _by(result, 3)
    assert improvement[("2%", "20%", "10%")] > improvement[("2%", "0%", "10%")] - 15.0


def ablation_gamma(result):
    # No history sampling (γ = 0) is the most polluted configuration.
    pollution = _floats(result, 1)
    assert pollution[0] >= max(pollution[1:]) - 2.0


def ablation_components(result):
    # Full RAPTEE beats the no-mechanism configuration.
    improvement = _by(result, 2)
    assert improvement[("on", "on")] > improvement[("off", "off")]


def ablation_anchors(result):
    assert len(result.rows) == 3


def ablation_countmin(result):
    # The sketch must not hurt materially against the over-advertising
    # adversary.
    improvement = _by(result, 2)
    for policy in ("fixed-0%", "adaptive"):
        assert improvement[(policy, "on")] > improvement[(policy, "off")] - 5.0


#: (check id, ``FIGURES`` id, axis overrides, check of the rendered rows).
SHAPES = (
    ("fig3_brahms_baseline", "fig3", {"byzantine_fraction": F_FIG3}, fig3),
    ("table1_sgx_overhead", "table1", {}, table1),
    ("fig5_eviction_0", "fig5", F_GRID, t30_improves),
    ("fig6_eviction_40", "fig6", F_GRID, t30_improves),
    ("fig7_eviction_60", "fig7", F_GRID, fig7),
    # The strongest configuration at high t.
    ("fig8_eviction_100", "fig8", F_GRID, lambda result: t30_improves(result, above=5.0)),
    ("fig9_adaptive_eviction", "fig9", F_GRID, fig9),
    ("fig10_identification_f10", "fig10", IDENTIFICATION, eviction_leaks),
    ("fig11_identification_f30", "fig11", IDENTIFICATION, eviction_leaks),
    ("fig12_identification_adaptive", "fig12", {"trusted_fraction": (0.02, 0.10, 0.30)}, fig12),
    ("fig13_poisoned_injection", "fig13",
     {"trusted_fraction": (0.02, 0.10), "poisoned_fraction": (0.0, 0.05, 0.20),
      "byzantine_fraction": (0.10, 0.30)}, fig13),
    ("ablation_gamma_history_sample", "ablation-gamma", {}, ablation_gamma),
    ("ablation_raptee_components", "ablation-components", {}, ablation_components),
    ("ablation_adaptive_anchors", "ablation-anchors", {}, ablation_anchors),
    ("ablation_countmin_unbiasing", "ablation-countmin", {}, ablation_countmin),
)


@pytest.fixture(scope="module")
def memo() -> Dict:
    return {}


@pytest.mark.parametrize("figure_id, axes, check",
                         [pytest.param(*row[1:], id=row[0]) for row in SHAPES])
def test_paper_shape(figure_id, axes, check, memo):
    check(run_figure(FIGURES[figure_id], BENCH_SCALE, memo, **axes))
