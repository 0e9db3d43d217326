"""The event-driven engine: continuous time over the round-based core.

The round is decomposed into events on one scheduler
(:class:`~repro.events.queue.EventQueue`).  Round boundaries stay global
(churn, the fault controller, membership gossip via the injector hook,
observers and invariant checks all fire at boundaries, on the new clock),
but each node runs its own *cycle*: at its scheduled time it begins and
gossips; its ``end_round`` lands after ``max(period, session_time)``,
where session time is the sum of its request RTTs over the sampled link
delays (see :class:`~repro.events.network.LatencyNetwork`).  A node behind
slow links cycles late, gossips less often per wall-clock round, and ages
out of views exactly the way lockstep rounds cannot express.

Lockstep rounds are not a mode of this engine: a ``mode='barrier'`` spec
compiles to no event engine at all and runs on the round loop
(:func:`~repro.scenario.compile.event_options_from_spec`).

Scheduling randomness (initial per-node offsets) and link randomness live
on dedicated ``Sha256Prng`` streams derived from the run seed with the
labels ``("events", ...)``, independent of every protocol stream — so
traces are identical across process boundaries and worker counts.
"""

from __future__ import annotations

import math
import random
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Set, Tuple

from repro.crypto.prng import Sha256Prng, derive_seed
from repro.events.latency import ConstantLatency, LatencyModel
from repro.events.network import (
    LATENCY_BUCKETS_MS,
    EventRoundContext,
    LatencyNetwork,
)
from repro.events.queue import EventQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Observer, Simulation

__all__ = ["EventOptions", "EventEngine"]


@dataclass(frozen=True)
class EventOptions:
    """Configuration of one event-driven run."""

    seed: int
    #: Round period in seconds (the paper's deployment uses 2.5 s rounds).
    tick_interval: float = 1.0
    #: One-way delay of every link.
    latency: LatencyModel = ConstantLatency()

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tick_interval) and self.tick_interval > 0):
            raise ValueError("tick_interval must be finite and positive")


class EventEngine:
    """Drives one :class:`Simulation` from an event queue."""

    def __init__(self, simulation: "Simulation", options: EventOptions):
        self.simulation = simulation
        self.options = options
        self.queue = EventQueue()
        self.now = 0.0
        self.rounds_completed = 0
        self._target_round = 0
        self._observers: Tuple = ()
        self._done = False
        self._started = False
        telemetry = simulation.telemetry
        self.latency_network = LatencyNetwork(
            simulation.network,
            options.latency,
            Sha256Prng(derive_seed(options.seed, "events", "latency")),
            telemetry,
        )
        self.latency_network.bind(self.queue)
        self._offset_rng: random.Random = Sha256Prng(
            derive_seed(options.seed, "events", "schedule")
        )
        self._ctx = EventRoundContext(simulation, self.latency_network)
        self._cycled: Set[int] = set()
        self.cycles = 0
        self.late_cycles = 0
        self._cycle_histogram = None

    # -- public surface --------------------------------------------------------

    @property
    def late_fraction(self) -> float:
        return self.late_cycles / self.cycles if self.cycles else 0.0

    def run(self, rounds: int, observers: Sequence["Observer"] = ()) -> None:
        """Run ``rounds`` rounds of simulated time, then stop.

        Single-shot: the engine owns absolute time starting at 0.0 and
        does not support resuming a drained queue (use
        :mod:`repro.snapshot` with the round engine for resumable runs).
        """
        if self._started:
            raise RuntimeError("EventEngine.run is single-shot; build a new engine")
        self._started = True
        if rounds < 1:
            return
        self._observers = tuple(observers)
        interval = self.options.tick_interval
        self._target_round = self.simulation.round_number + rounds
        for index in range(1, rounds + 1):
            self.queue.schedule(index * interval, "round.boundary",
                                self._round_boundary)
        self._open_round()
        self._drain()

    # -- scheduler loop --------------------------------------------------------

    def _drain(self) -> None:
        while self.queue and not self._done:
            event = self.queue.pop()
            self.now = event.time
            self.latency_network.now = event.time
            event.action()
        self._done = True

    # -- round boundaries ------------------------------------------------------

    def _open_round(self) -> None:
        simulation = self.simulation
        simulation.open_round()
        self._ctx.round_number = simulation.round_number
        # Churn arrivals (and the whole population, on the first open) get
        # cycles at seeded offsets inside the coming round.
        fresh = sorted(
            node_id for node_id in simulation.nodes if node_id not in self._cycled
        )
        for node_id in fresh:
            self._cycled.add(node_id)
            offset = self._offset_rng.random() * self.options.tick_interval
            self.queue.schedule(self.now + offset, "cycle.begin",
                                _NodeCycle(self, node_id))

    def _round_boundary(self) -> None:
        simulation = self.simulation
        simulation.close_round()
        for observer in self._observers:
            observer.on_round_end(simulation)
        self.rounds_completed += 1
        if simulation.round_number >= self._target_round:
            self._done = True
            return
        self._open_round()

    # -- node cycles -------------------------------------------------------------

    def _run_cycle(self, node_id: int) -> None:
        if self._done:
            return
        simulation = self.simulation
        node = simulation.nodes.get(node_id)
        if node is None:
            # Departed for good: churn never reuses IDs, drop the cycle.
            self._cycled.discard(node_id)
            return
        interval = self.options.tick_interval
        if not node.alive:
            # Crashed but still registered: poll again next round so a
            # fault-controller revival resumes gossiping.
            self.queue.schedule(self.now + interval, "cycle.begin",
                                _NodeCycle(self, node_id))
            return
        telemetry = simulation.telemetry
        self.latency_network.begin_session()
        scope = telemetry.phase("gossip") if telemetry is not None else nullcontext()
        with scope:
            node.begin_round(self._ctx)
            node.gossip(self._ctx)
        busy = self.latency_network.session_time
        cycle_time = max(interval, busy)
        self.cycles += 1
        if busy > interval:
            self.late_cycles += 1
        if telemetry is not None:
            if self._cycle_histogram is None:
                self._cycle_histogram = telemetry.histogram(
                    "events.cycle_ms", buckets=LATENCY_BUCKETS_MS
                )
            self._cycle_histogram.observe(1000.0 * cycle_time)
        # End-of-cycle first, next begin second, at the same timestamp:
        # the FIFO tie-break guarantees end_round integrates this cycle's
        # exchanges before the next begin wipes the buffers.
        self.queue.schedule(self.now + cycle_time, "cycle.end",
                            _NodeCycleEnd(self, node_id))
        self.queue.schedule(self.now + cycle_time, "cycle.begin",
                            _NodeCycle(self, node_id))

    def _end_cycle(self, node_id: int) -> None:
        if self._done:
            return
        simulation = self.simulation
        node = simulation.nodes.get(node_id)
        if node is None or not node.alive:
            return
        telemetry = simulation.telemetry
        scope = telemetry.phase("end") if telemetry is not None else nullcontext()
        with scope:
            node.end_round(self._ctx)


class _NodeCycle:
    """Scheduled begin+gossip of one node's cycle."""

    __slots__ = ("_engine", "_node_id")

    def __init__(self, engine: EventEngine, node_id: int):
        self._engine = engine
        self._node_id = node_id

    def __call__(self) -> None:
        self._engine._run_cycle(self._node_id)


class _NodeCycleEnd:
    """Scheduled end_round of one node's cycle."""

    __slots__ = ("_engine", "_node_id")

    def __init__(self, engine: EventEngine, node_id: int):
        self._engine = engine
        self._node_id = node_id

    def __call__(self) -> None:
        self._engine._end_cycle(self._node_id)
