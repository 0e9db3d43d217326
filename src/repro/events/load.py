"""Client load generator: sampling requests against live node views.

The "millions of users" leg of the paper's deployment story: clients call
the peer sampling service, each call hits one correct node and draws a
peer from its current view.  :class:`LoadGenerator` models that traffic
as ``active_clients`` independent Poisson arrival processes (exponential
inter-arrival times at ``requests_per_minute`` each, the AsyncFlow
``RqsGenerator`` shape) riding the same event queue as the protocol.

Per request the generator records, into the telemetry registry:

* ``load.requests`` / ``load.failures`` — served vs unservable (no
  correct node alive, or the chosen node's view still empty);
* ``load.latency_ms`` — client-observed latency (request + response leg
  over the client's access link, drawn from the run's default latency
  model);
* ``load.byzantine_samples`` — served samples that returned a Byzantine
  ID, tying service quality to the pollution metric the paper optimises.

Everything is driven by one dedicated ``Sha256Prng`` stream
(``derive_seed(seed, "events", "load")``), so load arrival times never
perturb protocol randomness and the whole trace is reproducible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.events.latency import LatencyModel
from repro.events.network import LATENCY_BUCKETS_MS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.events.queue import EventQueue
    from repro.sim.engine import Simulation
    from repro.telemetry.hub import Telemetry

__all__ = ["LoadSpec", "LoadGenerator", "parse_load", "percentile"]


@dataclass(frozen=True)
class LoadSpec:
    """Offered load: ``active_clients`` × ``requests_per_minute`` each."""

    active_clients: int
    requests_per_minute: float

    def __post_init__(self) -> None:
        if self.active_clients < 1:
            raise ValueError("active_clients must be at least 1")
        if not (math.isfinite(self.requests_per_minute)
                and self.requests_per_minute > 0):
            raise ValueError("requests_per_minute must be finite and positive")

    @property
    def rate_per_second(self) -> float:
        return self.requests_per_minute / 60.0

    def describe(self) -> str:
        return (f"{self.active_clients} clients x "
                f"{self.requests_per_minute:g} req/min")


def parse_load(spec: str) -> LoadSpec:
    """Parse a CLI load spec ``CLIENTS:REQUESTS_PER_MINUTE``."""
    parts = spec.strip().split(":")
    if len(parts) == 2:
        try:
            return LoadSpec(int(parts[0]), float(parts[1]))
        except ValueError as error:
            raise ValueError(f"bad load spec {spec!r}: {error}") from error
    raise ValueError(
        f"bad load spec {spec!r}: expected CLIENTS:REQ_PER_MIN (e.g. 40:30)"
    )


def percentile(values: List[float], quantile: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    if not 0.0 < quantile <= 1.0:
        raise ValueError("quantile must be in (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(quantile * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


class LoadGenerator:
    """Poisson client traffic sampling peers from node views."""

    def __init__(
        self,
        spec: LoadSpec,
        simulation: "Simulation",
        access_latency: LatencyModel,
        rng: random.Random,
        telemetry: Optional["Telemetry"] = None,
    ):
        self.spec = spec
        self._simulation = simulation
        self._access_latency = access_latency
        self._rng = rng
        self._telemetry = telemetry
        self._queue: Optional["EventQueue"] = None
        self._horizon = 0.0
        self.served = 0
        self.failed = 0
        self.byzantine_samples = 0
        self.latencies_ms: List[float] = []
        #: One dict per request, in arrival order — the latency trace
        #: artifact exported by ``repro run --events-trace-out``.
        self.records: List[Dict[str, object]] = []

    # -- scheduling -----------------------------------------------------------

    def prime(self, queue: "EventQueue", horizon: float) -> None:
        """Schedule every client's first arrival on ``queue``."""
        self._queue = queue
        self._horizon = horizon
        for client in range(self.spec.active_clients):
            self._schedule_next(client, 0.0)

    def _schedule_next(self, client: int, now: float) -> None:
        # expovariate draws through random() only — checkpoint-safe on
        # Sha256Prng, unlike gauss (see repro.events.latency).
        at = now + self._rng.expovariate(self.spec.rate_per_second)
        if at <= self._horizon and self._queue is not None:
            self._queue.schedule(at, "load.request", _ClientRequest(self, client, at))

    # -- one request -----------------------------------------------------------

    def _fire(self, client: int, now: float) -> None:
        self._serve(client, now)
        self._schedule_next(client, now)

    def _serve(self, client: int, now: float) -> None:
        simulation = self._simulation
        correct_ids = sorted(simulation.correct_node_ids())
        node = None
        peer: Optional[int] = None
        if correct_ids:
            node = simulation.nodes[
                correct_ids[self._rng.randrange(len(correct_ids))]
            ]
            view = list(node.view_ids())
            if view:
                peer = view[self._rng.randrange(len(view))]
        if peer is None:
            self.failed += 1
            if self._telemetry is not None:
                self._telemetry.counter("load.failures").inc()
            self.records.append({
                "time": round(now, 6), "client": client,
                "node": None if node is None else node.node_id,
                "peer": None, "latency_ms": None, "byzantine": False,
            })
            return
        latency_ms = 1000.0 * (self._access_latency.sample(self._rng)
                               + self._access_latency.sample(self._rng))
        polluted = peer in simulation.byzantine_ids
        self.served += 1
        self.latencies_ms.append(latency_ms)
        if polluted:
            self.byzantine_samples += 1
        if self._telemetry is not None:
            self._telemetry.counter("load.requests").inc()
            self._telemetry.histogram(
                "load.latency_ms", buckets=LATENCY_BUCKETS_MS
            ).observe(latency_ms)
            if polluted:
                self._telemetry.counter("load.byzantine_samples").inc()
        self.records.append({
            "time": round(now, 6), "client": client, "node": node.node_id,
            "peer": peer, "latency_ms": round(latency_ms, 3),
            "byzantine": polluted,
        })

    # -- summary ---------------------------------------------------------------

    @property
    def byzantine_fraction(self) -> float:
        return self.byzantine_samples / self.served if self.served else 0.0

    def latency_percentile_ms(self, quantile: float) -> float:
        return percentile(self.latencies_ms, quantile)


class _ClientRequest:
    """Scheduled arrival of one client request (picklable-free closure)."""

    __slots__ = ("_generator", "_client", "_at")

    def __init__(self, generator: LoadGenerator, client: int, at: float):
        self._generator = generator
        self._client = client
        self._at = at

    def __call__(self) -> None:
        self._generator._fire(self._client, self._at)
