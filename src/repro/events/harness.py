"""Wiring: put a built simulation bundle on the event clock.

:func:`wire_events` is the last of the three ``wire_*`` calls, after
:func:`repro.telemetry.harness.wire_telemetry` (the engine, latency adapter
and load generator pick the hub up from the simulation) and
:func:`repro.faults.harness.wire_faults` (the installed
:class:`~repro.sim.engine.FaultController` fires at every round-open
boundary on the event clock, which also drives membership gossip).  It
makes an :class:`EventEngine` the bundle's ``engine``, so
:meth:`~repro.experiments.scenarios.SimulationBundle.run` drives the
bundle's standard observer stack (round recorder, telemetry observer)
at the event clock's round boundaries, and every downstream
metric reads as it does after a round-loop run.
"""

from __future__ import annotations

from repro.events.engine import EventEngine, EventOptions
from repro.experiments.scenarios import SimulationBundle

__all__ = ["wire_events"]


def wire_events(bundle: SimulationBundle, options: EventOptions) -> SimulationBundle:
    """Make an :class:`EventEngine` the bundle's clock; returns the bundle."""
    bundle.engine = EventEngine(bundle.simulation, options)
    return bundle
