"""Wire and run a scenario spec: the one place a scenario becomes a run.

:func:`run_scenario` is what every front-end calls, for all three engines
(CLI ``run`` with ``--engine events`` or ``--shards`` / ``trace`` /
``attack``, figures, the vector generator and conformance runner; a fault
drill is a catalog entry run by ``trace --scenario``): compile the spec,
then either wire the per-node instrumentation stack (telemetry → faults →
events) and run whichever per-node engine ended up attached, or hand the
shard engine its hub and run it.  No other
module under ``src/repro`` calls ``wire_telemetry`` / ``wire_faults`` /
``wire_events`` (``tests/test_scenario_differential.py`` checks).

:class:`ScenarioArtifacts` is the finished run; the determinism contract
of the differential suites — trace JSONL, metrics CSV, final views,
traffic totals, the paper's three end metrics — is computed when read,
through six members a ``SimulationBundle`` and a ``ShardSimulation`` both
have (``telemetry``, ``stats``, ``view_size``, ``view_records``,
``discovery_round``, ``all_views()``); nothing in it asks which engine ran.

:func:`artifact_sections` reduces those artifacts to the named, JSON-safe
sections a conformance vector stores (bulky artifacts shrink to sha256
digests; the compact ones are kept verbatim so drift reports can show
*what* changed, not just that something did).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.events.harness import wire_events
from repro.experiments.runner import RunMetrics, bundle_metrics
from repro.faults.harness import wire_faults
from repro.faults.invariants import InvariantChecker
from repro.scenario.compile import (
    compile_spec,
    event_options_from_spec,
    fault_plan_from_spec,
)
from repro.scenario.errors import ScenarioSpecError
from repro.scenario.spec import ScenarioSpec, spec_to_dict
from repro.telemetry import (
    Telemetry,
    TelemetryConfig,
    metrics_to_csv,
    trace_to_jsonl,
    wire_telemetry,
)

__all__ = ["ScenarioArtifacts", "run_scenario", "artifact_sections"]


_NETWORK_TOTALS = ("pushes_sent", "pushes_delivered", "requests_sent",
                   "replies_delivered", "messages_lost", "bytes_encrypted")


@dataclass
class ScenarioArtifacts:
    """One finished scenario run; every export is computed when read."""

    spec: ScenarioSpec
    #: The engine object that ran: a ``SimulationBundle`` or a ``ShardSimulation``.
    bundle: Any
    #: The record-only checker that observed every round, when asked for.
    checker: Optional[InvariantChecker] = None

    @property
    def trace_jsonl(self) -> str:
        return trace_to_jsonl(self.bundle.telemetry.trace.events)

    @property
    def metrics_csv(self) -> str:
        return metrics_to_csv(self.bundle.telemetry.registry)

    @property
    def final_views(self) -> Dict[int, Tuple[int, ...]]:
        return self.bundle.all_views()

    @property
    def metrics(self) -> RunMetrics:
        return bundle_metrics(self.bundle, self.spec.rounds)

    @property
    def network_totals(self) -> Tuple[int, int, int, int, int, int]:
        stats = self.bundle.stats
        return tuple(getattr(stats, name) for name in _NETWORK_TOTALS)


def run_scenario(
    spec: ScenarioSpec,
    telemetry: Optional[TelemetryConfig] = TelemetryConfig(
        tracing=True, trace_messages=True, trace_ecalls=True
    ),
    check_invariants: bool = False,
    workers: int = 1,
) -> ScenarioArtifacts:
    """Compile one spec, wire its instrumentation stack, and run it.

    On the per-node engines each ``wire_*`` call changes the bundle in
    place, and order matters: telemetry first, so the fault layer and the
    event engine pick the hub up from the simulation; faults second, so
    the controller fires at every round boundary of either clock; events
    last, replacing ``bundle.engine``.  The shard engine compiled its
    faults in and only takes the hub.

    ``telemetry`` is the hub configuration, ``None`` for no hub; the
    default (full message and ECALL tracing) is what the conformance
    vectors digest.  ``check_invariants`` has a record-only
    :class:`~repro.faults.invariants.InvariantChecker` observe every round
    (returned as ``artifacts.checker``); it reads node objects, so a shard
    spec refuses it.  ``workers`` is ``compile_spec``'s.
    """
    if spec.rounds < 1:
        raise ScenarioSpecError(
            f"scenario {spec.name!r} has no round count; only specs with "
            f"rounds >= 1 are runnable",
            "rounds",
        )
    on_shard = spec.engine.kind == "shard"
    if on_shard and check_invariants:
        from repro.shard.compile import ShardUnsupportedError

        raise ShardUnsupportedError("the InvariantChecker (check_invariants)")
    bundle = compile_spec(spec, workers=workers)
    if on_shard:
        if telemetry is not None:
            bundle.telemetry = Telemetry(telemetry)
        bundle.run(spec.rounds)
        return ScenarioArtifacts(spec=spec, bundle=bundle)
    if telemetry is not None:
        wire_telemetry(bundle, telemetry)
    plan = fault_plan_from_spec(spec)
    if plan is not None:
        wire_faults(bundle, plan, seed=spec.seed)
    events = event_options_from_spec(spec)
    if events is not None:
        wire_events(bundle, events)
    checker = (
        InvariantChecker(record_only=True, membership=bundle.membership)
        if check_invariants
        else None
    )
    bundle.run(
        spec.rounds, extra_observers=() if checker is None else (checker,)
    )
    return ScenarioArtifacts(spec=spec, bundle=bundle, checker=checker)


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _view_trace_section(artifacts: ScenarioArtifacts) -> List[Dict[str, Any]]:
    """Per-round views, canonicalized to JSON-safe types.

    Node IDs become string keys (JSON objects key on strings); kinds use
    their enum names.  Values are the exact binary floats the run
    produced — JSON round-trips them losslessly, so equality is exact.
    """
    rows: List[Dict[str, Any]] = []
    for record in artifacts.bundle.view_records:
        rows.append(
            {
                "round": record.round_number,
                "byzantine_fraction": {
                    str(node_id): fraction
                    for node_id, fraction in sorted(record.byzantine_fraction.items())
                },
                "by_kind": {
                    kind.name: list(values)
                    for kind, values in sorted(
                        record.by_kind.items(), key=lambda item: item[0].name
                    )
                },
            }
        )
    return rows


def artifact_sections(artifacts: ScenarioArtifacts) -> Dict[str, Any]:
    """The named sections a conformance vector for this run stores."""
    trace = artifacts.trace_jsonl
    metrics_csv = artifacts.metrics_csv
    metrics = artifacts.metrics
    network = dict(zip(_NETWORK_TOTALS, artifacts.network_totals))
    return {
        "spec": spec_to_dict(artifacts.spec),
        "view_trace": _view_trace_section(artifacts),
        "final_views": {
            str(node_id): list(view)
            for node_id, view in artifacts.final_views.items()
        },
        "trace_digest": {
            "sha256": _sha256_text(trace),
            "lines": trace.count("\n"),
        },
        "metrics_digest": {
            "sha256": _sha256_text(metrics_csv),
            "rows": metrics_csv.count("\n"),
        },
        "pollution": {
            "resilience": metrics.resilience,
            "discovery_round": metrics.discovery_round,
            "stability_round": metrics.stability_round,
            "rounds": metrics.rounds,
            "network": network,
        },
    }
