"""Per-figure reproduction entry points.

Each public function regenerates one table or figure of the paper and
returns a :class:`FigureResult` whose rows mirror the paper's series.  The
benchmarks under ``benchmarks/`` call these with a scaled-down
:class:`Scale`; ``examples/full_scale.py`` shows the paper-sized settings.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.adversary.identification import IdentificationAttack, IdentificationReport
from repro.analysis.metrics import (
    overhead_percent,
    resilience_improvement,
)
from repro.analysis.stats import summarize
from repro.core.eviction import AdaptiveEviction, EvictionPolicy, FixedEviction
from repro.experiments.reporting import format_table
from repro.experiments.runner import RunMetrics, map_ordered, repeat
from repro.experiments.scenarios import TopologySpec
from repro.membership.service import MembershipConfig
from repro.sgx.cycles import PeerSamplingFunction, TABLE_I

if TYPE_CHECKING:  # pragma: no cover - repro.scenario imports this package
    from repro.scenario.run import ScenarioArtifacts
    from repro.scenario.spec import ScenarioSpec

__all__ = [
    "Scale",
    "TEST_SCALE",
    "BENCH_SCALE",
    "PAPER_SCALE",
    "FigureResult",
    "BaselineCache",
    "figure3_brahms_baseline",
    "table1_sgx_overhead",
    "eviction_figure",
    "identification_figure",
    "figure13_poisoned_injection",
    "membership_churn_figure",
    "slo_figure",
    "straggler_figure",
]


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
#: The scale of every number in EXPERIMENTS.md (``benchmarks/`` and
#: ``repro figure --scale bench``): view size 24 keeps the paper's
#: trusted-meeting dynamics while a full sweep stays tractable.
BENCH_SCALE = Scale(n_nodes=300, rounds=80, repetitions=1, view_ratio=0.08, base_seed=2024)
#: The paper's setting: 10,000 nodes, view 200, 200 rounds, 10 repetitions.
PAPER_SCALE = Scale(n_nodes=10_000, rounds=200, repetitions=10, view_ratio=0.02)


@dataclass
class FigureResult:
    """Rows of one regenerated table/figure, renderable as ASCII."""

    figure_id: str
    headers: List[str]
    rows: List[List[object]] = field(default_factory=list)

    def render(self) -> str:
        return format_table(self.headers, self.rows, title=self.figure_id)

    def column(self, name: str) -> List[object]:
        index = self.headers.index(name)
        return [row[index] for row in self.rows]


def _scenario(
    scale: Scale,
    protocol: str,
    byzantine_fraction: float,
    trusted_fraction: float = 0.0,
    poisoned_fraction: float = 0.0,
    **sections,
) -> "ScenarioSpec":
    """One cell of a figure: a deployment at ``scale`` as a runnable
    :class:`~repro.scenario.spec.ScenarioSpec` carrying the scale's base
    seed (:func:`_run` re-seeds it per repetition); ``sections`` are its
    ``raptee`` / ``membership`` / ``engine`` fields."""
    from repro.scenario.spec import ScenarioSpec

    return ScenarioSpec(
        name="figure",
        protocol=protocol,
        seed=scale.base_seed,
        rounds=scale.rounds,
        topology=TopologySpec(
            n_nodes=scale.n_nodes,
            byzantine_fraction=byzantine_fraction,
            trusted_fraction=trusted_fraction,
            poisoned_fraction=poisoned_fraction,
            view_ratio=scale.view_ratio,
        ),
        **sections,
    )


def _run(spec: "ScenarioSpec", seed: int, telemetry=None, **wiring) -> "ScenarioArtifacts":
    """Run one seed of one cell — the only way a figure runs anything —
    without a telemetry hub unless given one; ``wiring`` is ``run_scenario``'s."""
    from repro.scenario.run import run_scenario

    return run_scenario(replace(spec, seed=seed), telemetry=telemetry, **wiring)


def _cell_metrics(spec: "ScenarioSpec", seed: int) -> RunMetrics:
    # Module-level (as are the other per-seed cell functions below) so that
    # ``partial(fn, spec)`` stays picklable for a ``repeat`` worker pool.
    return _run(spec, seed).metrics


def _mean_metrics(scale: Scale, spec: "ScenarioSpec") -> Tuple[float, float, float]:
    """(resilience, discovery, stability) of one cell averaged over the
    scale's seeds; a milestone no seed reached reports -1."""
    runs = repeat(partial(_cell_metrics, spec), scale.seeds())
    return (
        runs.resilience.mean,
        runs.discovery_round.mean if runs.discovery_round else -1.0,
        runs.stability_round.mean if runs.stability_round else -1.0,
    )


class BaselineCache:
    """Brahms baselines at one scale, keyed by f — shared across figures."""

    def __init__(self, scale: Scale):
        self.scale = scale
        self._cache: Dict[float, Tuple[float, float, float]] = {}

    def mean_metrics(self, byzantine_fraction: float) -> Tuple[float, float, float]:
        """(resilience, discovery, stability) averaged over the seeds."""
        if byzantine_fraction not in self._cache:
            self._cache[byzantine_fraction] = _mean_metrics(
                self.scale, _scenario(self.scale, "brahms", byzantine_fraction)
            )
        return self._cache[byzantine_fraction]


# ---------------------------------------------------------------------------
# Fig. 3 — Brahms baseline
# ---------------------------------------------------------------------------

def figure3_brahms_baseline(
    scale: Scale,
    f_values: Sequence[float] = (0.10, 0.14, 0.18, 0.22, 0.26, 0.30),
    cache: Optional[BaselineCache] = None,
) -> FigureResult:
    """Brahms resilience / discovery / stability vs Byzantine share."""
    cache = cache or BaselineCache(scale)
    result = FigureResult(
        figure_id="Fig. 3 — Brahms under Byzantine faults",
        headers=["f", "byz-in-views %", "discovery rounds", "stability rounds"],
    )
    for f in f_values:
        resilience, discovery, stability = cache.mean_metrics(f)
        result.rows.append(
            [f"{f:.0%}", f"{100 * resilience:.1f}", f"{discovery:.0f}", f"{stability:.0f}"]
        )
    return result


# ---------------------------------------------------------------------------
# Table I — SGX per-function overhead
# ---------------------------------------------------------------------------

_TABLE1_LABELS = {
    PeerSamplingFunction.PULL_REQUEST: "Pull request",
    PeerSamplingFunction.PUSH_MESSAGE: "Push message",
    PeerSamplingFunction.TRUSTED_COMMUNICATIONS: "Trusted communications",
    PeerSamplingFunction.SAMPLE_LIST_COMPUTATION: "Sample list comput.",
    PeerSamplingFunction.DYNAMIC_VIEW_COMPUTATION: "Dynamic view comput.",
}


def table1_sgx_overhead(
    scale: Scale,
    rounds: Optional[int] = None,
    trusted_fraction: float = 0.5,
) -> FigureResult:
    """The micro-benchmark of §V-A: per-function cycles, standard vs SGX.

    Mirrors the paper's two experiment sets — the same deployment run once
    with trusted nodes paying the enclave overhead and once with the plain
    (emulated-standard) cost — then reports per-function means and the
    overhead's relative standard deviation.
    """
    from repro.scenario.spec import RapteeOptions

    micro = replace(
        scale, n_nodes=min(scale.n_nodes, 200), rounds=rounds or max(20, scale.rounds // 3)
    )

    def collect(cycle_mode: str) -> Dict[str, List[float]]:
        options = RapteeOptions(with_cycle_accounting=True, cycle_mode=cycle_mode)
        bundle = _run(
            _scenario(micro, "raptee", 0.0, trusted_fraction, raptee=options),
            micro.base_seed,
        ).bundle
        per_function: Dict[str, List[float]] = {}
        for node_id in bundle.trusted_ids:
            accountant = bundle.cycle_accountants.get(node_id)
            if accountant is None:
                continue
            for function in PeerSamplingFunction.ALL:
                if accountant.invocations.get(function):
                    per_function.setdefault(function, []).append(
                        accountant.mean_cost(function)
                    )
        return per_function

    sgx = collect("sgx")
    standard = collect("standard")

    result = FigureResult(
        figure_id="Table I — SGX performance overhead (CPU cycles)",
        headers=["Peer sampling function", "Standard", "SGX", "Mean overhead", "Std dev"],
    )
    for function in PeerSamplingFunction.ALL:
        standard_summary = summarize(standard.get(function, []))
        sgx_summary = summarize(sgx.get(function, []))
        if standard_summary is None or sgx_summary is None:
            continue
        overhead = sgx_summary.mean - standard_summary.mean
        reference = TABLE_I[function]
        result.rows.append(
            [
                _TABLE1_LABELS[function],
                f"{standard_summary.mean:,.0f}",
                f"{sgx_summary.mean:,.0f}",
                f"{overhead:,.0f}",
                f"{100 * reference.std_fraction:.0f}%",
            ]
        )
    return result


# ---------------------------------------------------------------------------
# Figs. 5-9 — resilience improvement + overheads per eviction configuration
# ---------------------------------------------------------------------------

def eviction_figure(
    figure_id: str,
    eviction: EvictionPolicy,
    scale: Scale,
    f_values: Sequence[float] = (0.10, 0.20, 0.30),
    t_values: Sequence[float] = (0.01, 0.10, 0.30),
    cache: Optional[BaselineCache] = None,
) -> FigureResult:
    """One of Figs. 5-9: subfigures (a) resilience improvement,
    (b) system-discovery overhead, (c) view-stability overhead, as rows
    over the f × t grid for one eviction configuration."""
    from repro.scenario.spec import RapteeOptions

    cache = cache or BaselineCache(scale)
    options = RapteeOptions(eviction=eviction)
    result = FigureResult(
        figure_id=figure_id,
        headers=[
            "f", "t",
            "improvement %", "discovery overhead %", "stability overhead %",
        ],
    )
    for f in f_values:
        base_resilience, base_discovery, base_stability = cache.mean_metrics(f)
        for t in t_values:
            resilience, discovery, stability = _mean_metrics(
                scale, _scenario(scale, "raptee", f, t, raptee=options)
            )
            improvement = resilience_improvement(base_resilience, resilience)
            discovery_overhead = overhead_percent(int(base_discovery), int(discovery))
            stability_overhead = overhead_percent(int(base_stability), int(stability))
            result.rows.append(
                [
                    f"{f:.0%}",
                    f"{t:.0%}",
                    f"{improvement:+.1f}",
                    "n/r" if discovery_overhead is None else f"{discovery_overhead:+.1f}",
                    "n/r" if stability_overhead is None else f"{stability_overhead:+.1f}",
                ]
            )
    return result


def fixed_eviction_figure(rate: float, scale: Scale, **kwargs) -> FigureResult:
    """Figs. 5 (0 %), 6 (40 %), 7 (60 %), 8 (100 %)."""
    labels = {0.0: "Fig. 5", 0.4: "Fig. 6", 0.6: "Fig. 7", 1.0: "Fig. 8"}
    figure_id = (
        f"{labels.get(rate, 'Fig. 5-8')} — eviction rate {rate:.0%}"
    )
    return eviction_figure(figure_id, FixedEviction(rate), scale, **kwargs)


def figure9_adaptive(scale: Scale, **kwargs) -> FigureResult:
    return eviction_figure(
        "Fig. 9 — adaptive eviction rate", AdaptiveEviction(), scale, **kwargs
    )


# ---------------------------------------------------------------------------
# Figs. 10-12 — trusted-node identification attack
# ---------------------------------------------------------------------------

def _identification_cell(spec: "ScenarioSpec", seed: int) -> IdentificationReport:
    """The attack's classification over the pre-stability window of one seed."""
    artifacts = _run(spec, seed)
    stability = artifacts.metrics.stability_round
    return IdentificationAttack(artifacts.bundle.coordinator).classify(
        artifacts.bundle.trusted_ids,
        since_round=1,
        until_round=stability if stability > 0 else spec.rounds // 2,
    )


def identification_figure(
    figure_id: str,
    byzantine_fraction: float,
    scale: Scale,
    policies: Sequence[EvictionPolicy] = (
        FixedEviction(0.0),
        FixedEviction(0.4),
        FixedEviction(0.6),
        FixedEviction(1.0),
    ),
    t_values: Sequence[float] = (0.01, 0.10, 0.30),
) -> FigureResult:
    """Figs. 10/11 (fixed rates at f = 10 %/30 %) and Fig. 12 (adaptive).

    Byzantine nodes issue β·l1 pull probes per round; the classifier runs
    over the pre-stability window, where the paper shows the attack is
    strongest.
    """
    from repro.scenario.spec import RapteeOptions

    result = FigureResult(
        figure_id=figure_id,
        headers=["ER", "t", "precision", "recall", "F1"],
    )
    for policy in policies:
        for t in t_values:
            spec = _scenario(scale, "raptee", byzantine_fraction, t)
            probes = spec.topology.brahms_config().beta_count
            spec = replace(spec, raptee=RapteeOptions(eviction=policy, probe_pulls=probes))
            reports = map_ordered(partial(_identification_cell, spec), scale.seeds())
            result.rows.append(
                [
                    policy.describe(),
                    f"{t:.0%}",
                    f"{summarize([report.precision for report in reports]).mean:.2f}",
                    f"{summarize([report.recall for report in reports]).mean:.2f}",
                    f"{summarize([report.f1 for report in reports]).mean:.2f}",
                ]
            )
    return result


# ---------------------------------------------------------------------------
# Fig. 13 — view-poisoned trusted-node injection
# ---------------------------------------------------------------------------

def figure13_poisoned_injection(
    scale: Scale,
    t_values: Sequence[float] = (0.01, 0.10, 0.30),
    poison_values: Sequence[float] = (0.0, 0.01, 0.05, 0.10, 0.20, 0.30),
    f_values: Sequence[float] = (0.10, 0.20, 0.30),
    cache: Optional[BaselineCache] = None,
) -> FigureResult:
    """Resilience improvement vs f, for honest-trusted shares t and several
    shares of injected view-poisoned trusted nodes (0 = the paper's black
    baseline line)."""
    cache = cache or BaselineCache(scale)
    result = FigureResult(
        figure_id="Fig. 13 — corrupted trusted node injection",
        headers=["t", "poisoned", "f", "improvement %"],
    )
    for t in t_values:
        for poisoned in poison_values:
            for f in f_values:
                base_resilience, _, _ = cache.mean_metrics(f)
                # No ``raptee`` section: adaptive eviction is the default.
                resilience, _, _ = _mean_metrics(
                    scale, _scenario(scale, "raptee", f, t, poisoned)
                )
                result.rows.append(
                    [
                        f"{t:.0%}",
                        f"{poisoned:.0%}",
                        f"{f:.0%}",
                        f"{resilience_improvement(base_resilience, resilience):+.1f}",
                    ]
                )
    return result


# ---------------------------------------------------------------------------
# Extension — pollution rate under trusted-set churn (dynamic membership)
# ---------------------------------------------------------------------------

def _churn_cell(spec: "ScenarioSpec", seed: int) -> Tuple[float, int, int, int]:
    """(resilience, epochs, joins, leaves) of one seed under trusted-set churn."""
    artifacts = _run(spec, seed)
    director = artifacts.bundle.membership
    return (
        artifacts.metrics.resilience,
        director.service.chain.current.number,
        director.stats.joins,
        director.stats.leaves,
    )


def membership_churn_figure(
    scale: Scale,
    churn_rates: Sequence[float] = (0.0, 0.02, 0.05),
    byzantine_fraction: float = 0.10,
    trusted_fraction: float = 0.20,
) -> FigureResult:
    """Pollution vs trusted-set churn rate (beyond the paper's static set).

    Each row runs the full RAPTEE deployment with dynamic membership: a
    per-round probability ``rate`` of one trusted node joining and one
    leaving, every leave forcing a group-key rotation the surviving
    trusted set must re-attest through.  The pollution column shows how
    much Byzantine presence the overlay absorbs while the trusted set is
    repeatedly re-keying — the cost of revocation-capable membership.
    """
    result = FigureResult(
        figure_id="Churn — pollution under trusted-set churn",
        headers=["churn/round", "byz-in-views %", "epochs", "joins", "leaves"],
    )
    for rate in churn_rates:
        # The membership section brings the fault layer with it, whose
        # per-round hook ticks the director — which drives the churn.
        spec = _scenario(
            scale, "raptee", byzantine_fraction, trusted_fraction,
            membership=MembershipConfig(join_rate=rate, leave_rate=rate),
        )
        resilience, epochs, joins, leaves = (
            summarize(column).mean
            for column in zip(*map_ordered(partial(_churn_cell, spec), scale.seeds()))
        )
        result.rows.append(
            [
                f"{rate:.0%}",
                f"{100 * resilience:.1f}",
                f"{epochs:.1f}",
                f"{joins:.1f}",
                f"{leaves:.1f}",
            ]
        )
    return result


def _histogram_percentile(histogram, quantile: float) -> float:
    """Smallest bucket bound covering ``quantile`` of the observations.

    Registry histograms are fixed-bucket (no raw samples), so percentiles
    are upper bounds — deterministic and monotone, which is all the SLO
    curve needs.  Observations above the last bound report that bound.
    """
    if histogram.count == 0:
        return 0.0
    target = quantile * histogram.count
    cumulative = 0
    for index, bound in enumerate(histogram.buckets):
        cumulative += histogram.bucket_counts[index]
        if cumulative >= target:
            return bound
    return histogram.buckets[-1]


def slo_figure(
    scale: Scale,
    loads: Sequence[Tuple[int, float]] = ((10, 30.0), (40, 30.0), (160, 30.0)),
    latency_spec: str = "lognormal:40:0.6",
    slo_ms: float = 200.0,
    byzantine_fraction: float = 0.10,
    trusted_fraction: float = 0.10,
) -> FigureResult:
    """Latency/throughput SLO curve under client load (event engine).

    Sweeps offered load (clients × requests/minute) over one RAPTEE
    deployment running continuously with per-link latency; every column
    is computed from the telemetry registry (``load.*`` series), so the
    figure doubles as an end-to-end check that the event engine's
    metrics surface is complete.
    """
    from repro.events.network import LATENCY_BUCKETS_MS
    from repro.scenario.spec import EngineSpec
    from repro.telemetry import TelemetryConfig

    result = FigureResult(
        figure_id=f"SLO — sampling latency/throughput (link {latency_spec})",
        headers=["load", "served", "failed", "p50 ms", "p95 ms",
                 f"<= {slo_ms:g} ms %", "byz %", "req/s"],
    )
    for clients, per_minute in loads:
        spec = _scenario(
            scale, "raptee", byzantine_fraction, trusted_fraction,
            engine=EngineSpec(
                kind="events", latency=latency_spec,
                load=f"{clients}:{per_minute!r}",
            ),
        )
        artifacts = _run(spec, scale.base_seed, telemetry=TelemetryConfig(tracing=False))
        registry = artifacts.bundle.telemetry.registry
        served = registry.value("load.requests")
        failed = registry.value("load.failures")
        byzantine = registry.value("load.byzantine_samples")
        latency = registry.histogram("load.latency_ms", LATENCY_BUCKETS_MS)
        within = 0
        for index, bound in enumerate(latency.buckets):
            if bound <= slo_ms:
                within += latency.bucket_counts[index]
        duration = scale.rounds * spec.engine.tick_interval
        result.rows.append([
            f"{clients}x{per_minute:g}",
            f"{served:.0f}",
            f"{failed:.0f}",
            f"{_histogram_percentile(latency, 0.50):g}",
            f"{_histogram_percentile(latency, 0.95):g}",
            f"{100.0 * within / served if served else 0.0:.1f}",
            f"{100.0 * byzantine / served if served else 0.0:.1f}",
            f"{served / duration:.1f}",
        ])
    return result


def straggler_figure(
    scale: Scale,
    profiles: Sequence[Tuple[float, float]] = ((0.0, 1.0), (0.1, 4.0), (0.1, 16.0)),
    latency_spec: str = "lognormal:40:0.6",
    byzantine_fraction: float = 0.10,
    trusted_fraction: float = 0.10,
) -> FigureResult:
    """Overlay health vs straggler severity (event engine).

    Each row slows a deterministic subset of nodes by the given factor:
    their gossip cycles stretch past the round period, they exchange
    less, and the figure reports what that costs — pollution, late-cycle
    share, and protocol invariant violations observed at round
    boundaries by a record-only checker.
    """
    from repro.scenario.spec import EngineSpec

    result = FigureResult(
        figure_id=f"Stragglers — overlay health (link {latency_spec})",
        headers=["stragglers", "byz-in-views %", "cycles", "late %", "violations"],
    )
    for fraction, slowdown in profiles:
        spec = _scenario(
            scale, "raptee", byzantine_fraction, trusted_fraction,
            engine=EngineSpec(
                kind="events", latency=latency_spec,
                straggler=f"{fraction!r}:{slowdown!r}" if fraction > 0 else None,
            ),
        )
        artifacts = _run(spec, scale.base_seed, check_invariants=True)
        metrics = artifacts.metrics
        engine = artifacts.bundle.events.engine
        label = (f"{100.0 * fraction:g}% @ {slowdown:g}x" if fraction > 0
                 else "none")
        result.rows.append([
            label,
            f"{metrics.resilience_percent:.1f}",
            f"{engine.cycles}",
            f"{100.0 * engine.late_fraction:.1f}",
            f"{len(artifacts.checker.violations)}",
        ])
    return result
