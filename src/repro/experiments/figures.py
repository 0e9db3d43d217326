"""The paper's tables and figures as data, and the one runner that makes them.

Each table and figure (§V's Fig. 3, Table I and Figs. 5-13; the four
ablations; the trusted-set churn extension) is a :class:`FigureDef`
in :data:`FIGURES` under its ``repro figure`` id.  :func:`run_figure` builds
each of its cells with :func:`cell_spec` and sweeps it over the scale's
seeds (``repeat`` for the paper's three metrics, ``map_ordered`` for a
measure) before formatting it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import partial
from itertools import product
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.adversary.identification import IdentificationAttack
from repro.analysis.metrics import overhead_percent, resilience_improvement
from repro.analysis.stats import summarize
from repro.brahms.config import BrahmsConfig
from repro.core.config import RapteeConfig
from repro.core.eviction import AdaptiveEviction, FixedEviction
from repro.experiments.reporting import FigureResult
from repro.experiments.runner import map_ordered, repeat
from repro.experiments.scenarios import TopologySpec
from repro.membership.service import MembershipConfig
from repro.scenario.run import ScenarioArtifacts, run_scenario
from repro.scenario.spec import EngineSpec, ScenarioSpec
from repro.sgx.cycles import TABLE_I, PeerSamplingFunction

__all__ = ["Scale", "TEST_SCALE", "BENCH_SCALE", "PAPER_SCALE", "FigureResult", "FigureDef",
           "FIGURES", "cell_spec", "run_figure"]


@dataclass(frozen=True)
class Scale:
    """Size of a reproduction run (see DESIGN.md §5 for the rationale)."""

    n_nodes: int = 400
    rounds: int = 100
    repetitions: int = 2
    view_ratio: float = 0.06
    base_seed: int = 1000

    def seeds(self) -> List[int]:
        return [self.base_seed + index for index in range(self.repetitions)]


TEST_SCALE = Scale(n_nodes=150, rounds=40, repetitions=1, view_ratio=0.08)
#: The scale of every number in EXPERIMENTS.md (``repro figure --scale
#: bench``; ``benchmarks/test_paper_shape.py`` checks its shapes): view size
#: 24 keeps the paper's trusted-meeting dynamics while a full sweep stays
#: tractable.
BENCH_SCALE = Scale(n_nodes=300, rounds=80, repetitions=1, view_ratio=0.08, base_seed=2024)
#: The paper's setting: 10,000 nodes, view 200, 200 rounds, 10 repetitions.
PAPER_SCALE = Scale(n_nodes=10_000, rounds=200, repetitions=10, view_ratio=0.02)

Cell = Mapping[str, object]
Values = Tuple[float, ...]

_SECTIONS = {"topology": TopologySpec, "raptee": RapteeConfig, "engine": EngineSpec}
#: The section whose field a cell key names; other keys are spec fields.
_SECTION_OF = {item.name: name for name, schema in _SECTIONS.items() for item in fields(schema)}


def cell_spec(scale: Scale, cell: Cell) -> ScenarioSpec:
    """One figure cell as a spec at ``scale`` with its base seed.  A key names
    a spec, topology, ``raptee`` or ``engine`` field and a value may be a
    function of the scale; a section no key names keeps its default."""
    keys = {"name": "figure", "seed": scale.base_seed, "rounds": scale.rounds,
            "n_nodes": scale.n_nodes, "view_ratio": scale.view_ratio,
            **{key: value(scale) if callable(value) else value for key, value in cell.items()}}
    spec = {key: value for key, value in keys.items() if key not in _SECTION_OF}
    for section, schema in _SECTIONS.items():
        named = {key: value for key, value in keys.items() if _SECTION_OF.get(key) == section}
        if named:
            spec[section] = schema(**named)
    return ScenarioSpec(**spec)


@dataclass(frozen=True)
class FigureDef:
    """A table or figure: a grid of cells, each swept over a scale's seeds."""

    title: str
    headers: Tuple[str, ...]
    #: A cell's rows (one, but Table I's one per SGX function) from its seed
    #: means and its reference cell's (None without a baseline).
    rows: Callable[[Cell, Values, Optional[Values]], List[List[str]]]
    #: :func:`cell_spec` keys every cell shares.
    cell: Cell = field(default_factory=dict)
    #: Swept keys and their values; the grid is their product, first outermost.
    axes: Mapping[str, Sequence] = field(default_factory=dict)
    #: A cell's reference cell, run beside it.
    baseline: Optional[Callable[[Cell], Cell]] = None
    #: One seed's numbers; None is the paper's (resilience, discovery,
    #: stability), whose -1 "never reached" ``repeat`` leaves out of the mean.
    measure: Optional[Callable[[ScenarioArtifacts], Values]] = None


def _seed_run(measure, spec: ScenarioSpec, seed: int):
    """One seed of one cell, without a telemetry hub: the only way a figure
    runs anything."""
    artifacts = run_scenario(replace(spec, seed=seed), telemetry=None)
    return artifacts.metrics if measure is None else measure(artifacts)


def run_figure(figure: FigureDef, scale: Scale, memo: Optional[Dict] = None,
               **axes: Sequence) -> FigureResult:
    """Run every cell of ``figure`` at ``scale`` and format its rows; ``axes``
    replace the def's axis of that key or sweep a key its cell fixes.  ``memo``
    keeps each cell's seed means by (measure, spec, seeds): a dict shared
    between figures, at any scales, runs each cell and each baseline once."""
    memo = {} if memo is None else memo
    seeds = tuple(scale.seeds())

    def values(cell: Cell) -> Values:
        spec = cell_spec(scale, cell)
        key = (figure.measure, spec, seeds)
        if key not in memo:
            task = partial(_seed_run, figure.measure, spec)
            if figure.measure is None:
                runs = repeat(task, list(seeds))
                milestones = (runs.discovery_round, runs.stability_round)
                memo[key] = (runs.resilience.mean,
                             *(-1.0 if summary is None else summary.mean for summary in milestones))
            else:
                columns = zip(*map_ordered(task, seeds))
                memo[key] = tuple(summarize(column).mean for column in columns)
        return memo[key]

    grid = {**figure.axes, **axes}
    result = FigureResult(figure.title, list(figure.headers))
    for point in product(*grid.values()):
        cell = {**figure.cell, **dict(zip(grid, point))}
        reference = values(figure.baseline(cell)) if figure.baseline else None
        result.rows.extend(figure.rows(cell, values(cell), reference))
    return result


def _brahms(cell: Cell) -> Cell:
    """A cell's Brahms baseline: the same Byzantine share, nothing trusted."""
    return {"protocol": "brahms", "byzantine_fraction": cell["byzantine_fraction"]}


def _percents(cell: Cell, *keys: str) -> List[str]:
    return [f"{cell[key]:.0%}" for key in keys]


def _improvement(values: Values, baseline: Values) -> str:
    return f"{resilience_improvement(baseline[0], values[0]):+.1f}"


def _on(flag: bool) -> str:
    return "on" if flag else "off"


def _eviction_rows(cell: Cell, values: Values, baseline: Values) -> List[List[str]]:
    """Figs. 5-9 (a) improvement over Brahms, (b)/(c) discovery/stability overhead."""
    overheads = (overhead_percent(int(base), int(value))
                 for base, value in zip(baseline[1:], values[1:]))
    return [_percents(cell, "byzantine_fraction", "trusted_fraction") + [
        _improvement(values, baseline),
        *("n/r" if overhead is None else f"{overhead:+.1f}" for overhead in overheads),
    ]]


def _cycle_costs(artifacts: ScenarioArtifacts) -> Values:
    """Per SGX function, the trusted nodes' mean cycles per call."""
    accountants = artifacts.bundle.cycle_accountants
    found = [accountants[node] for node in artifacts.bundle.trusted_ids if node in accountants]
    return tuple(summarize([each.mean_cost(function) for each in found
                            if each.invocations.get(function)]).mean
                 for function in PeerSamplingFunction.ALL)


def _table1_rows(cell: Cell, sgx: Values, standard: Values) -> List[List[str]]:
    labels = ("Pull request", "Push message", "Trusted communications",
              "Sample list comput.", "Dynamic view comput.")  # in ALL's order
    functions = zip(PeerSamplingFunction.ALL, labels, sgx, standard)
    return [[label, f"{plain:,.0f}", f"{enclave:,.0f}", f"{enclave - plain:,.0f}",
             f"{100 * TABLE_I[function].std_fraction:.0f}%"]
            for function, label, enclave, plain in functions]


def _identification(artifacts: ScenarioArtifacts) -> Values:
    """The attack's precision, recall and F1 over the pre-stability window."""
    stability = artifacts.metrics.stability_round
    report = IdentificationAttack(artifacts.bundle.coordinator).classify(
        artifacts.bundle.trusted_ids, since_round=1,
        until_round=stability if stability > 0 else artifacts.spec.rounds // 2,
    )
    return report.precision, report.recall, report.f1


def _churn(artifacts: ScenarioArtifacts) -> Values:
    """Resilience, group-key epochs, joins and leaves of one run."""
    director = artifacts.bundle.membership
    return (artifacts.metrics.resilience, director.service.chain.current.number,
            director.stats.joins, director.stats.leaves)


def _eviction_figure(title: str, eviction) -> FigureDef:
    """One of Figs. 5-9: RAPTEE over the f × t grid against Brahms."""
    return FigureDef(
        title, ("f", "t", "improvement %", "discovery overhead %", "stability overhead %"),
        _eviction_rows, {"protocol": "raptee", "eviction": eviction},
        {"byzantine_fraction": (0.10, 0.20, 0.30), "trusted_fraction": (0.01, 0.10, 0.30)},
        baseline=_brahms,
    )


_IDENTIFICATION = FigureDef(
    "Fig. 10 — identification attack, f = 10%", ("ER", "t", "precision", "recall", "F1"),
    lambda cell, values, _: [[cell["eviction"].describe(), *_percents(cell, "trusted_fraction"),
                              *(f"{value:.2f}" for value in values)]],
    # Byzantine nodes issue β·l1 pull probes a round.
    {"protocol": "raptee", "byzantine_fraction": 0.10, "probe_pulls": lambda scale: (
        BrahmsConfig().scaled(scale.n_nodes, scale.view_ratio).beta_count)},
    {"eviction": tuple(FixedEviction(rate) for rate in (0.0, 0.4, 0.6, 1.0)),
     "trusted_fraction": (0.01, 0.10, 0.30)},
    measure=_identification,
)


@dataclass(frozen=True)
class _HistoryShare:
    """A γ-ablation point: Brahms at a scale with history-sample share γ,
    α and β splitting the rest."""

    gamma: float

    def __call__(self, scale: Scale) -> BrahmsConfig:
        rest = (1.0 - self.gamma) / 2.0
        return replace(BrahmsConfig().scaled(scale.n_nodes, scale.view_ratio),
                       alpha=rest, beta=rest, gamma=self.gamma)


_ABLATION = {"protocol": "raptee", "byzantine_fraction": 0.20, "trusted_fraction": 0.20}

#: Every table and figure ``repro figure`` regenerates, by its id.
FIGURES: Dict[str, FigureDef] = {
    "fig3": FigureDef(
        "Fig. 3 — Brahms under Byzantine faults",
        ("f", "byz-in-views %", "discovery rounds", "stability rounds"),
        lambda cell, values, _: [_percents(cell, "byzantine_fraction") + [
            f"{100 * values[0]:.1f}", f"{values[1]:.0f}", f"{values[2]:.0f}"]],
        {"protocol": "brahms"}, {"byzantine_fraction": (0.10, 0.14, 0.18, 0.22, 0.26, 0.30)},
    ),
    # §V-A's micro-benchmark (at most 200 nodes, a third of the rounds but
    # at least 20) paying the enclave overhead, against the plain cost.
    "table1": FigureDef(
        "Table I — SGX performance overhead (CPU cycles)",
        ("Peer sampling function", "Standard", "SGX", "Mean overhead", "Std dev"), _table1_rows,
        {"protocol": "raptee", "byzantine_fraction": 0.0, "trusted_fraction": 0.5,
         "with_cycle_accounting": True, "cycle_mode": "sgx",
         "n_nodes": lambda scale: min(scale.n_nodes, 200),
         "rounds": lambda scale: max(20, scale.rounds // 3)},
        baseline=lambda cell: {**cell, "cycle_mode": "standard"}, measure=_cycle_costs,
    ),
    "fig5": _eviction_figure("Fig. 5 — eviction rate 0%", FixedEviction(0.0)),
    "fig6": _eviction_figure("Fig. 6 — eviction rate 40%", FixedEviction(0.4)),
    "fig7": _eviction_figure("Fig. 7 — eviction rate 60%", FixedEviction(0.6)),
    "fig8": _eviction_figure("Fig. 8 — eviction rate 100%", FixedEviction(1.0)),
    "fig9": _eviction_figure("Fig. 9 — adaptive eviction rate", AdaptiveEviction()),
    "fig10": _IDENTIFICATION,
    "fig11": replace(_IDENTIFICATION, title="Fig. 11 — identification attack, f = 30%",
                     cell={**_IDENTIFICATION.cell, "byzantine_fraction": 0.30}),
    "fig12": replace(_IDENTIFICATION, title="Fig. 12 — identification attack, adaptive",
                     axes={**_IDENTIFICATION.axes, "eviction": (AdaptiveEviction(),)}),
    # Injected view-poisoned trusted nodes (0: the paper's black line).
    "fig13": FigureDef(
        "Fig. 13 — corrupted trusted node injection", ("t", "poisoned", "f", "improvement %"),
        lambda cell, values, baseline: [
            _percents(cell, "trusted_fraction", "poisoned_fraction", "byzantine_fraction")
            + [_improvement(values, baseline)]],
        {"protocol": "raptee"},
        {"trusted_fraction": (0.01, 0.10, 0.30),
         "poisoned_fraction": (0.0, 0.01, 0.05, 0.10, 0.20, 0.30),
         "byzantine_fraction": (0.10, 0.20, 0.30)},
        baseline=_brahms,
    ),
    # Ablations beyond the paper (DESIGN.md §7).  γ: Brahms defense (iv)
    # bounds the pollution spiral.
    "ablation-gamma": FigureDef(
        "Ablation — history-sample share γ (Brahms defense iv)", ("gamma", "byz-in-views %"),
        lambda cell, values, _: [[f"{cell['brahms'].gamma:.1f}", f"{100 * values[0]:.1f}"]],
        {"protocol": "brahms", "byzantine_fraction": 0.20},
        {"brahms": tuple(_HistoryShare(share) for share in (0.0, 0.1, 0.2, 0.3))},
    ),
    # RAPTEE's gain attributed to its two mechanisms.
    "ablation-components": FigureDef(
        "Ablation — RAPTEE component attribution (f=20%, t=20%)",
        ("trusted exchange", "eviction", "improvement %"),
        lambda cell, values, baseline: [[
            _on(cell["trusted_exchange_enabled"]), _on(cell["eviction_enabled"]),
            _improvement(values, baseline)]],
        _ABLATION, {"trusted_exchange_enabled": (False, True), "eviction_enabled": (False, True)},
        baseline=_brahms,
    ),
    # The adaptive rule's anchor rates around the paper's 20/80.
    "ablation-anchors": FigureDef(
        "Ablation — adaptive eviction anchors (low rate / high rate)",
        ("low rate", "high rate", "improvement %"),
        lambda cell, values, baseline: [[
            f"{cell['eviction'].low_rate:.1f}", f"{cell['eviction'].high_rate:.1f}",
            _improvement(values, baseline)]],
        _ABLATION, {"eviction": tuple(AdaptiveEviction(low_rate=low, high_rate=high)
                                      for low, high in ((0.0, 1.0), (0.2, 0.8), (0.4, 0.6)))},
        baseline=_brahms,
    ),
    # §VIII's future work: a count-min sketch flattens the pulled-ID stream
    # before view renewal.
    "ablation-countmin": FigureDef(
        "Ablation — count-min stream unbiasing (future work, f=20%, t=10%)",
        ("eviction", "sketch", "improvement %"),
        lambda cell, values, baseline: [[
            cell["eviction"].describe(), _on(cell["sketch_unbias_enabled"]),
            _improvement(values, baseline)]],
        {**_ABLATION, "trusted_fraction": 0.10},
        {"eviction": (FixedEviction(0.0), AdaptiveEviction()),
         "sketch_unbias_enabled": (False, True)},
        baseline=_brahms,
    ),
    # Each round one trusted node joins and one leaves with probability
    # ``rate``; every leave rotates the group key.
    "churn": FigureDef(
        "Churn — pollution under trusted-set churn",
        ("churn/round", "byz-in-views %", "epochs", "joins", "leaves"),
        lambda cell, values, _: [[f"{cell['membership'].join_rate:.0%}", f"{100 * values[0]:.1f}",
                                  *(f"{count:.1f}" for count in values[1:])]],
        {"protocol": "raptee", "byzantine_fraction": 0.10, "trusted_fraction": 0.20},
        {"membership": tuple(MembershipConfig(join_rate=rate, leave_rate=rate)
                             for rate in (0.0, 0.02, 0.05))},
        measure=_churn,
    ),
}
