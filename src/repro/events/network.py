"""Latency-aware message delivery wrapping the round engine's network.

:class:`LatencyNetwork` sits between nodes and the existing
:class:`~repro.sim.network.Network`.  All of that machinery — loss,
reachability, per-message fault hooks, encrypted-byte accounting,
push/pull statistics, telemetry counters — keeps working unchanged; the
adapter only decides *when* the underlying delivery runs:

* **pushes** are one-way: the adapter samples the link's one-way delay
  and schedules ``Network.send_push`` on the event queue.  Loss, fault
  and reachability gates therefore apply at *delivery* time (a node that
  crashes while a push is in flight eats the message), which is the
  physically honest ordering.  Zero-delay links deliver inline, drawing
  nothing from the latency RNG.
* **request/response sessions** (pull, auth handshake, trusted swap) are
  executed synchronously — the reply is computed from the callee's
  current state, like a real RPC — but the sampled forward + return
  delays are charged to the calling node's *session time*, which the
  engine uses to stretch that node's cycle.  A node behind slow links
  gossips less often; it does not see stale data.

:class:`EventRoundContext` is the duck-typed stand-in for
:class:`~repro.sim.engine.RoundContext` handed to nodes: same
``send_push``/``send_pushes``/``request``/``network``/``round_number``
surface, but ``round_number`` is mutable (the engine advances it at
round-open) and message sends detour through the adapter.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.events.latency import LatencyModel
from repro.sim.messages import Message
from repro.sim.network import Network

if TYPE_CHECKING:  # pragma: no cover - typing only
    import random

    from repro.events.queue import EventQueue
    from repro.sim.engine import Simulation
    from repro.telemetry.hub import Telemetry

__all__ = ["LatencyNetwork", "EventRoundContext"]

#: Histogram bounds for link/session delays, in milliseconds.
LATENCY_BUCKETS_MS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0,
                      500.0, 1000.0, 2000.0, 5000.0)


class _PushDelivery:
    """Scheduled one-way push arrival (a named class keeps tracebacks
    readable; a closure would do the same job)."""

    __slots__ = ("_network", "_src", "_dst")

    def __init__(self, network: Network, src: int, dst: int):
        self._network = network
        self._src = src
        self._dst = dst

    def __call__(self) -> None:
        self._network.send_push(self._src, self._dst)


class LatencyNetwork:
    """Delay-scheduling adapter over the wire-level :class:`Network`."""

    def __init__(
        self,
        network: Network,
        model: LatencyModel,
        rng: "random.Random",
        telemetry: Optional["Telemetry"] = None,
    ):
        self.network = network
        self.model = model
        self._rng = rng
        self._telemetry = telemetry
        self._queue: Optional["EventQueue"] = None
        #: Simulation clock (seconds), advanced by the engine per event.
        self.now = 0.0
        #: Accumulated request RTTs of the gossip session in progress
        #: (reset by the engine around each node's cycle).
        self.session_time = 0.0
        # Instruments are created lazily so a zero-latency run adds no
        # metric family it never observed (creating one adds a CSV family).
        self._push_histogram = None
        self._rtt_histogram = None

    def bind(self, queue: "EventQueue") -> None:
        """Attach the engine's event queue (deferred pushes land on it)."""
        self._queue = queue

    def begin_session(self) -> None:
        self.session_time = 0.0

    # -- message surface -----------------------------------------------------

    def send_push(self, src: int, dst: int) -> bool:
        """Send a push; returns True when accepted for transmission.

        With a non-zero link delay the outcome (loss, fault drop, dead
        destination) is only known at delivery time, so the return value
        means "handed to the wire", not "delivered" — no protocol code
        inspects it either way.
        """
        delay = self.model.sample(self._rng)
        if delay <= 0.0 or self._queue is None:
            return self.network.send_push(src, dst)
        if self._telemetry is not None:
            if self._push_histogram is None:
                self._push_histogram = self._telemetry.histogram(
                    "events.push_latency_ms", buckets=LATENCY_BUCKETS_MS
                )
            self._push_histogram.observe(1000.0 * delay)
        self._queue.schedule(
            self.now + delay, "deliver.push", _PushDelivery(self.network, src, dst)
        )
        return True

    def request(self, src: int, dst: int, message: Message) -> Optional[Message]:
        """Run one request/response session, charging its RTT to the caller."""
        rtt = self.model.sample(self._rng) + self.model.sample(self._rng)
        if rtt > 0.0:
            self.session_time += rtt
            if self._telemetry is not None:
                if self._rtt_histogram is None:
                    self._rtt_histogram = self._telemetry.histogram(
                        "events.rtt_ms", buckets=LATENCY_BUCKETS_MS
                    )
                self._rtt_histogram.observe(1000.0 * rtt)
        return self.network.request(src, dst, message)


class EventRoundContext:
    """Mutable-round :class:`~repro.sim.engine.RoundContext` twin.

    One long-lived instance per run: nodes keep the same context object
    across cycles while the engine advances ``round_number`` at each
    round-open boundary, mirroring how the round engine rebuilds its
    context every round.
    """

    __slots__ = ("_simulation", "_latency_network", "_network", "round_number")

    def __init__(self, simulation: "Simulation", latency_network: LatencyNetwork):
        self._simulation = simulation
        self._latency_network = latency_network
        self._network = latency_network.network
        self.round_number = 0

    @property
    def network(self) -> Network:
        """The raw wire network (reachability checks, stats) — delays are
        only applied to sends routed through this context."""
        return self._network

    def send_push(self, src: int, dst: int) -> bool:
        return self._latency_network.send_push(src, dst)

    def send_pushes(self, src: int, targets: Iterable[int]) -> int:
        """One push per target, each with its own sampled delay; returns
        how many were accepted for transmission."""
        send_push = self._latency_network.send_push
        return sum(send_push(src, dst) for dst in targets)

    def request(self, src: int, dst: int, message: Message) -> Optional[Message]:
        return self._latency_network.request(src, dst, message)
