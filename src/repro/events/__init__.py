"""Event-driven continuous-time simulation over the round-based core.

The round engine (:mod:`repro.sim.engine`) is lockstep: every node acts
once per global round.  This package runs the same protocol objects as a
deterministic discrete-event simulation — a seeded event queue with a
FIFO tie-break, a link latency model (zero, constant or log-normal) and
latency-stretched per-node gossip cycles.  Lockstep rounds stay the round
engine's job: a ``mode='barrier'`` spec compiles to no event engine and
runs on the round loop.

Entry points: ``run_scenario`` on a ``kind='events'`` spec, or
``repro run --engine events`` on the CLI.  By hand:
:func:`~repro.events.harness.wire_events` (after telemetry/faults) makes
an :class:`EventEngine` the bundle's ``engine`` and returns the bundle.
"""

from repro.events.engine import EventEngine, EventOptions
from repro.events.harness import wire_events
from repro.events.latency import (
    ConstantLatency,
    LatencyModel,
    LogNormalLatency,
    parse_latency_model,
)
from repro.events.network import EventRoundContext, LatencyNetwork
from repro.events.queue import Event, EventQueue

__all__ = [
    "Event",
    "EventQueue",
    "LatencyModel",
    "ConstantLatency",
    "LogNormalLatency",
    "parse_latency_model",
    "LatencyNetwork",
    "EventRoundContext",
    "EventOptions",
    "EventEngine",
    "wire_events",
]
