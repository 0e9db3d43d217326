"""The telemetry hub: one object bundling registry and trace.

A :class:`Telemetry` instance is the single handle instrumented layers hold
(engine, network, enclave hosts, attestation, provisioning, fault injector,
recovery manager).  It owns:

* the :class:`~repro.telemetry.registry.MetricsRegistry`;
* the :class:`~repro.telemetry.trace.TraceCollector` (``None`` when tracing
  is off);
* the *simulation clock*: ``current_round`` and ``current_phase``, advanced
  by the engine so components without a round counter of their own (the
  attestation service, the provisioner) still stamp events correctly.

Every emit helper is a no-op-cheap guard away from doing nothing, so code
can hold a ``telemetry`` that is ``None`` and pay one attribute check when
telemetry is not wired.  With a trace, each helper hands
:meth:`TraceCollector.record` one fields dict — the keyword arguments it was
called with — and a phase records its begin/end lines the same way, so
an event is encoded to its JSONL line once and never re-packed.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    LabelValue,
    MetricsRegistry,
)
from repro.telemetry.trace import TraceCollector

__all__ = ["TelemetryConfig", "Telemetry"]


@dataclass(frozen=True)
class TelemetryConfig:
    """What to collect.

    ``trace_messages`` gates the per-message network/fault-drop events
    (the bulkiest stream); ``trace_ecalls`` gates one event per SGX ECALL
    (noisier still — counters are always kept either way).
    """

    tracing: bool = True
    trace_messages: bool = True
    trace_ecalls: bool = False


class Telemetry:
    """Shared instrumentation context for one simulation run."""

    def __init__(self, config: Optional[TelemetryConfig] = None):
        self.config = config or TelemetryConfig()
        self.registry = MetricsRegistry()
        self.trace: Optional[TraceCollector] = (
            TraceCollector() if self.config.tracing else None
        )
        self.current_round = 0
        self.current_phase: Optional[str] = None

    # -- registry passthroughs ----------------------------------------------

    def counter(self, name: str, **labels: LabelValue) -> Counter:
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels: LabelValue) -> Gauge:
        return self.registry.gauge(name, **labels)

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None,
        **labels: LabelValue,
    ) -> Histogram:
        if buckets is None:
            return self.registry.histogram(name, **labels)
        return self.registry.histogram(name, buckets, **labels)

    # -- trace helpers -------------------------------------------------------

    def event(
        self,
        name: str,
        node: Optional[int] = None,
        phase: Optional[str] = None,
        **fields: object,
    ) -> None:
        """Emit one trace event stamped with the current round/phase."""
        trace = self.trace
        if trace is not None:
            trace.record(
                name, self.current_round, node,
                self.current_phase if phase is None else phase, "event", fields,
            )

    @contextmanager
    def phase(self, phase_name: str) -> Iterator[None]:
        """Engine phase span: sets ``current_phase`` for nested events."""
        trace = self.trace
        round_number = self.current_round
        begin = (
            None if trace is None
            else trace.record("phase", round_number, None, phase_name, "begin", {})
        )
        previous = self.current_phase
        self.current_phase = phase_name
        try:
            yield
        finally:
            self.current_phase = previous
            if trace is not None:
                trace.record("phase", round_number, None, phase_name, "end",
                             {"span": begin})

    def begin_round(self, round_number: int) -> None:
        """Advance the telemetry clock; called by the engine per round."""
        self.current_round = round_number
        self.current_phase = None
        self.counter("sim.rounds").inc()
        self.event("round.begin")

    def end_round(self, alive_nodes: int) -> None:
        self.event("round.end", alive=alive_nodes)
