"""Wiring: attach a telemetry hub to a built simulation bundle.

:func:`wire_telemetry` mirrors :func:`repro.faults.harness.wire_faults`: one
call against a :class:`~repro.experiments.scenarios.SimulationBundle` builds
a :class:`~repro.telemetry.hub.Telemetry` hub and threads it through every
instrumented layer — the engine (round/phase spans, churn events), the
network (message counters and events), every node (degrade/promote events),
every enclave host (ECALL counters), and the trusted
infrastructure's attestation and provisioning services.  It also installs a
:class:`TelemetryObserver` on the bundle so per-round aggregates (alive
nodes, per-round message volumes, currently-degraded trusted nodes) land in
the registry after every completed round, and returns the bundle.

Telemetry must be wired *before* :func:`~repro.faults.harness.wire_faults`
when both are used — the fault layer picks the hub up from the simulation so
injected faults emit trace events too.

This module imports protocol types only for type checking; at runtime the
telemetry package stays a pure leaf of the dependency graph.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.telemetry.hub import Telemetry, TelemetryConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.scenarios import SimulationBundle
    from repro.sim.engine import Simulation
    from repro.sim.observers import RoundRecorder

__all__ = ["TelemetryObserver", "wire_telemetry"]


class TelemetryObserver:
    """Per-round aggregates, computed after every completed round.

    Satisfies the :class:`repro.sim.engine.Observer` protocol and runs
    after ``recorder``, whose record of the round holds its traffic.
    Everything it records is derived from simulation state, so it stays
    inside the deterministic surface.
    """

    def __init__(self, telemetry: Telemetry, recorder: "RoundRecorder"):
        self.telemetry = telemetry
        self.recorder = recorder

    def on_round_end(self, simulation: "Simulation") -> None:
        tel = self.telemetry
        alive = simulation.alive_nodes()
        tel.gauge("sim.alive_nodes").set(len(alive))

        record = self.recorder.records[-1]
        tel.histogram("round.pushes").observe(record.pushes)
        tel.histogram("round.requests").observe(record.requests)
        tel.histogram("round.losses").observe(record.losses)

        degraded = sum(1 for node in alive if getattr(node, "degraded", False))
        tel.gauge("raptee.degraded_nodes").set(degraded)


def wire_telemetry(
    bundle: "SimulationBundle",
    config: Optional[TelemetryConfig] = None,
) -> "SimulationBundle":
    """Attach a telemetry hub to every instrumented layer of a bundle;
    returns the bundle."""
    telemetry = Telemetry(config)
    simulation = bundle.simulation
    simulation.set_telemetry(telemetry)
    simulation.network.set_telemetry(telemetry)
    for node_id in sorted(simulation.nodes):
        node = simulation.nodes[node_id]
        node.telemetry = telemetry
        enclave = getattr(node, "enclave", None)
        if enclave is not None:
            enclave.set_telemetry(telemetry, node_id)
    if bundle.infrastructure is not None:
        bundle.infrastructure.attestation.set_telemetry(telemetry)
        bundle.infrastructure.provisioner.set_telemetry(telemetry)
    if bundle.membership is not None:
        # Covers every provisioner replica (replica 0 is the legacy
        # provisioner wired above — set_telemetry is idempotent) plus the
        # membership counters and gauges.
        bundle.membership.set_telemetry(telemetry)
    bundle.telemetry = telemetry
    bundle.telemetry_observer = TelemetryObserver(telemetry, bundle.trace)
    return bundle
