"""Round-based simulation engine.

Brahms and RAPTEE are round-synchronous protocols (the paper runs 200 rounds
of 2.5 s); the engine executes each round in three phases over all alive
nodes:

1. **begin** — every node resets its per-round buffers;
2. **gossip** — every node, in a per-round shuffled order, sends its pushes
   and runs its pull/auth/swap sessions synchronously;
3. **end** — every node integrates received IDs into its view and samplers.

In a Brahms-only population views change only in phase 3, so every pull
reply is computed from start-of-round state and the order of nodes inside
phase 2 has no effect on what any node learns.  Under RAPTEE that does not
hold: a trusted swap (§IV-B) reassigns both partners' views during phase 2,
so a later pull sees the swapped view and the outcome depends on the gossip
order.  That order is the seeded shuffle, which is what makes every run
reproducible under its seed.
"""

from __future__ import annotations

import random
from contextlib import contextmanager, nullcontext
from typing import (
    TYPE_CHECKING,
    Callable,
    ContextManager,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
)

from repro.sim.churn import ChurnModel
from repro.sim.network import Network
from repro.sim.node import NodeBase, NodeKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.hub import Telemetry

__all__ = ["RoundContext", "Observer", "FaultController", "Simulation"]


class RoundContext:
    """Per-round handle nodes use to act on the network.

    ``send_push``, ``send_pushes`` and ``request`` are the network's own
    bound methods, bound once a round: a node's call reaches the network
    with no forwarding call in between.
    """

    __slots__ = ("network", "round_number", "send_push", "send_pushes", "request")

    def __init__(self, simulation: "Simulation", round_number: int):
        network = simulation.network
        self.network: Network = network
        self.round_number = round_number
        self.send_push = network.send_push
        self.send_pushes = network.send_pushes
        self.request = network.request


class Observer:
    """Hook invoked after every completed round."""

    def on_round_end(self, simulation: "Simulation") -> None:
        raise NotImplementedError


class FaultController:
    """Hook invoked at the start of every round, before any node acts.

    The fault layer (:mod:`repro.faults`) uses it to crash/restart nodes,
    toggle SGX-infrastructure outages and drive enclave recovery.  Exactly
    one controller can be installed per simulation.
    """

    def on_round_start(self, simulation: "Simulation") -> None:
        raise NotImplementedError


class Simulation:
    """Drives a population of :class:`NodeBase` through synchronous rounds."""

    def __init__(
        self,
        network: Network,
        nodes: Iterable[NodeBase],
        rng: random.Random,
        churn: Optional[ChurnModel] = None,
        node_factory: Optional[Callable[[int], NodeBase]] = None,
    ):
        self.network = network
        self.nodes: Dict[int, NodeBase] = {}
        self._rng = rng
        self.set_churn(churn, node_factory)
        self._fault_controller: Optional[FaultController] = None
        #: Optional instrumentation hub (see :mod:`repro.telemetry`); the
        #: engine advances its round/phase clock and emits lifecycle events.
        self.telemetry: Optional["Telemetry"] = None
        self.round_number = 0
        self._next_node_id = 0
        #: Every node ID that was ever part of the membership (departed ones
        #: included) — the reference set for "views never cite a node that
        #: never existed" invariant checks.
        self.ever_registered: Set[int] = set()
        for node in nodes:
            self.add_node(node)

    def set_churn(
        self,
        churn: Optional[ChurnModel],
        node_factory: Optional[Callable[[int], NodeBase]] = None,
    ) -> None:
        """Attach a churn model, or clear it with ``None`` (static
        membership).

        Scenario builders assemble the node population first and decide on
        churn later; this is the supported seam for that — the constructor
        goes through it too, so both validate that arrivals have a factory.
        """
        if churn is not None and node_factory is None and churn.may_produce_arrivals:
            raise ValueError(
                f"churn model {type(churn).__name__} produces arrivals; "
                f"a node_factory is required to build the joining nodes"
            )
        self._churn = churn
        self._node_factory = node_factory

    # -- membership ------------------------------------------------------------

    def add_node(self, node: NodeBase) -> None:
        self.nodes[node.node_id] = node
        self.network.register(node)
        self._next_node_id = max(self._next_node_id, node.node_id + 1)
        self.ever_registered.add(node.node_id)
        if self.telemetry is not None:
            # Churn arrivals join after wiring time; hand them the hub so
            # their degrade/promote events and profiling timers still land.
            node.telemetry = self.telemetry
        self._invalidate_kind_cache()

    def remove_node(self, node_id: int) -> None:
        node = self.nodes.pop(node_id, None)
        if node is None:
            # Unknown ID: explicit no-op.  Touching the network here would
            # be wrong — another registry (or nothing) may own that ID, and
            # unregister drops whatever the network holds under it.
            return
        node.alive = False
        self.network.unregister(node_id)
        self._invalidate_kind_cache()

    def set_node_alive(self, node_id: int, alive: bool) -> None:
        """Toggle a node's liveness in place (crash / restart).

        Unlike :meth:`remove_node`, the node stays registered: messages to
        it are dropped while it is down, and it resumes with its pre-crash
        protocol state when revived.  Goes through the engine so the
        kind-query caches stay coherent.
        """
        node = self.nodes.get(node_id)
        if node is None:
            raise KeyError(f"no node {node_id} in the simulation")
        if node.alive != alive:
            node.alive = alive
            self._invalidate_kind_cache()

    def alive_nodes(self) -> List[NodeBase]:
        return [node for node in self.nodes.values() if node.alive]

    def _invalidate_kind_cache(self) -> None:
        self._kind_cache: Dict[NodeKind, frozenset] = {}

    def ids_of_kind(self, kind: NodeKind) -> frozenset:
        """Alive node IDs of a given kind (cached until membership changes)."""
        cached = self._kind_cache.get(kind)
        if cached is None:
            cached = frozenset(
                node.node_id for node in self.nodes.values()
                if node.alive and node.kind is kind
            )
            self._kind_cache[kind] = cached
        return cached

    @property
    def byzantine_ids(self) -> frozenset:
        return self.ids_of_kind(NodeKind.BYZANTINE)

    def correct_node_ids(self) -> frozenset:
        """All alive non-Byzantine IDs (honest + trusted + poisoned-trusted)."""
        return frozenset(
            node.node_id for node in self.nodes.values()
            if node.alive and node.kind is not NodeKind.BYZANTINE
        )

    def correct_nodes(self) -> List[NodeBase]:
        # Read by every per-round observer: the kind is compared directly
        # rather than through the ``is_byzantine`` property, a Python call
        # per node.
        return [
            node for node in self.nodes.values()
            if node.alive and node.kind is not NodeKind.BYZANTINE
        ]

    # -- fault layer -----------------------------------------------------------

    def set_fault_controller(self, controller: Optional[FaultController]) -> None:
        """Install (or clear, with ``None``) the round-start fault hook."""
        self._fault_controller = controller

    # -- telemetry -------------------------------------------------------------

    def set_telemetry(self, telemetry: Optional["Telemetry"]) -> None:
        """Install (or clear, with ``None``) the instrumentation hub.

        Prefer :func:`repro.telemetry.harness.wire_telemetry`, which also
        threads the hub through the network, nodes, enclaves and services.
        """
        self.telemetry = telemetry

    def _phase(self, name: str) -> ContextManager[None]:
        if self.telemetry is None:
            return nullcontext()
        return self._instrumented_phase(name)

    @contextmanager
    def _instrumented_phase(self, name: str) -> Iterator[None]:
        # The profiler timer is inert unless profiling is armed; stacking it
        # here is what gives `repro trace --profile` its phase.* rows.
        with self.telemetry.phase(name):
            with self.telemetry.timer(f"phase.{name}"):
                yield

    # -- execution -------------------------------------------------------------

    def _apply_churn(self) -> None:
        """Apply this round's churn events (departures, then arrivals)."""
        if self._churn is None:
            return
        # Only *alive* nodes are candidates for departure and count toward
        # the arrival rate: a crashed (alive=False) node is already out of
        # the protocol, so letting churn "depart" it would silently swallow
        # a departure event and inflate UniformChurn's arrival population.
        alive_ids = sorted(
            node_id for node_id, node in self.nodes.items() if node.alive
        )
        event = self._churn.events_for_round(self.round_number, alive_ids, self._rng)
        for node_id in event.departures:
            self.remove_node(node_id)
            if self.telemetry is not None:
                self.telemetry.event("churn.departure", node=node_id)
        if event.arrivals and self._node_factory is None:
            raise RuntimeError(
                f"churn model {type(self._churn).__name__} produced "
                f"{event.arrivals} arrival(s) at round {self.round_number} "
                f"but no node_factory is set"
            )
        for _ in range(event.arrivals):
            new_node = self._node_factory(self._next_node_id)
            self.add_node(new_node)
            if self.telemetry is not None:
                self.telemetry.event("churn.arrival", node=new_node.node_id)

    def open_round(self) -> None:
        """Start the next round: advance the round clock, apply churn, fire
        the fault controller.  The one round boundary of both per-node
        clocks — the head of :meth:`run_round`, and what the event engine
        (:mod:`repro.events`) calls when its own clock opens a round."""
        self.round_number += 1
        self.network.current_round = self.round_number
        if self.telemetry is not None:
            self.telemetry.begin_round(self.round_number)
        self._apply_churn()
        if self._fault_controller is not None:
            with self._phase("faults"):
                self._fault_controller.on_round_start(self)

    def close_round(self) -> None:
        """Finish the round :meth:`open_round` started."""
        if self.telemetry is not None:
            self.telemetry.end_round(len(self.alive_nodes()))

    def run_round(self) -> None:
        """Execute one full round."""
        self.open_round()
        ctx = RoundContext(self, self.round_number)

        alive = self.alive_nodes()
        with self._phase("begin"):
            for node in alive:
                node.begin_round(ctx)

        order = list(alive)
        self._rng.shuffle(order)
        with self._phase("gossip"):
            for node in order:
                if node.alive:
                    node.gossip(ctx)

        with self._phase("end"):
            for node in alive:
                if node.alive:
                    node.end_round(ctx)
        self.close_round()

    def run(self, rounds: int, observers: Sequence[Observer] = ()) -> None:
        """Run ``rounds`` rounds, invoking observers after each."""
        for _ in range(rounds):
            self.run_round()
            for observer in observers:
                observer.on_round_end(self)

    def final_views(self) -> Dict[int, List[int]]:
        """Every correct node's current view, in id order.

        The same byte-compare surface the sharded engine exposes
        (:meth:`repro.shard.engine.ShardSimulation.final_views`), so
        cross-engine comparisons read both through one call.  Crashed
        (``alive=False``) correct nodes are included — their frozen view
        is part of the state being compared — while departed nodes are
        not, matching the shard engine's crash model.
        """
        return {
            node_id: list(self.nodes[node_id].view_ids())
            for node_id in sorted(self.nodes)
            if not self.nodes[node_id].kind.is_byzantine
        }
