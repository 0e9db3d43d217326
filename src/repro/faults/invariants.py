"""Runtime safety invariants checked after every simulation round.

Fault drills are only convincing if the system's *safety* properties hold
while faults fire; the :class:`InvariantChecker` observer asserts them each
round and fails loudly — naming the node, the round, and the violated
invariant — instead of letting a corrupted view propagate silently for
another hundred rounds.

Checked per round, over every alive correct node:

* **no-self** — a node never holds its own ID in its view;
* **registered-ids** — every view entry refers to a node that was at some
  point part of the membership (:attr:`Simulation.ever_registered`);
* **view-known** — the view is a subset of the node's known-ID set;
* **no-duplicates** (*opt-in*) — no repeated view entries.  Off by
  default: Brahms views legitimately repeat IDs (pushes and samples are
  drawn with replacement), so this only makes sense for protocols that
  deduplicate;
* **connectivity** (after a grace period) — the undirected graph induced
  by correct alive nodes' views has a giant component covering (almost)
  every correct node, i.e. the overlay did not silently partition.  A
  small tolerance absorbs transiently isolated stragglers — under heavy
  pollution a node's view can momentarily hold only Byzantine IDs without
  the overlay being split.

With a membership director attached (dynamic trusted sets,
:mod:`repro.membership`), two more hold each round:

* **epoch-exchange** — no trusted node completed a §IV-B swap this round
  under any epoch other than the current one; in particular, never under
  a *revoked* epoch's key, and never while its own device is revoked;
* **membership-staleness** — no alive trusted node's membership view lags
  a log record older than ``staleness_bound`` rounds (revocations must
  propagate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.sim.engine import Observer, Simulation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.membership.director import MembershipDirector

__all__ = ["InvariantViolation", "Violation", "InvariantChecker"]


class InvariantViolation(AssertionError):
    """A per-round safety property failed."""


@dataclass(frozen=True)
class Violation:
    """One recorded invariant failure."""

    round_number: int
    invariant: str
    node_id: Optional[int]
    detail: str

    def describe(self) -> str:
        where = f"node {self.node_id}" if self.node_id is not None else "overlay"
        return (f"round {self.round_number}: invariant '{self.invariant}' "
                f"violated at {where}: {self.detail}")


class InvariantChecker(Observer):
    """Observer asserting the per-round safety invariants.

    With ``record_only=True`` violations are collected in :attr:`violations`
    instead of raised — useful for post-mortem analysis of a deliberately
    broken run.
    """

    def __init__(
        self,
        check_duplicate_entries: bool = False,
        connectivity_grace: int = 10,
        connectivity_tolerance: float = 0.05,
        record_only: bool = False,
        membership: Optional["MembershipDirector"] = None,
    ):
        if not 0.0 <= connectivity_tolerance < 1.0:
            raise ValueError("connectivity_tolerance must be in [0, 1)")
        self.check_duplicate_entries = check_duplicate_entries
        self.connectivity_grace = connectivity_grace
        self.connectivity_tolerance = connectivity_tolerance
        self.record_only = record_only
        self.membership = membership
        self.rounds_checked = 0
        self.violations: List[Violation] = []

    # -- entry point -----------------------------------------------------------

    def on_round_end(self, simulation: Simulation) -> None:
        self.rounds_checked += 1
        for node in sorted(simulation.correct_nodes(), key=lambda n: n.node_id):
            self._check_node(simulation, node)
        if simulation.round_number > self.connectivity_grace:
            self._check_connectivity(simulation)
        if self.membership is not None:
            self._check_membership(simulation)

    # -- per-node checks -------------------------------------------------------

    def _check_node(self, simulation: Simulation, node) -> None:
        view = list(node.view_ids())
        if node.node_id in view:
            self._fail(simulation, "no-self", node.node_id,
                       "the node's own ID is in its view")
        unknown = sorted(set(view) - simulation.ever_registered)
        if unknown:
            self._fail(simulation, "registered-ids", node.node_id,
                       f"view cites never-registered IDs {unknown}")
        missing = sorted(set(view).difference(node.known_ids()))
        if missing:
            self._fail(simulation, "view-known", node.node_id,
                       f"view entries {missing} missing from known-ID set")
        if self.check_duplicate_entries and len(set(view)) != len(view):
            duplicated = sorted(
                entry for entry in sorted(set(view)) if view.count(entry) > 1
            )
            self._fail(simulation, "no-duplicates", node.node_id,
                       f"view repeats IDs {duplicated}")

    # -- overlay connectivity --------------------------------------------------

    def _check_connectivity(self, simulation: Simulation) -> None:
        members = {
            node.node_id: node for node in simulation.correct_nodes()
            if node.view_ids()
        }
        if len(members) < 2:
            return
        # Undirected reachability over view edges between correct alive
        # nodes (edges to Byzantine or departed nodes carry no gossip we
        # can rely on).
        adjacency = {node_id: set() for node_id in members}
        for node_id, node in sorted(members.items()):
            for peer in node.view_ids():
                if peer in members:
                    adjacency[node_id].add(peer)
                    adjacency[peer].add(node_id)
        visited = set()
        giant = set()
        for origin in sorted(members):
            if origin in visited:
                continue
            component = {origin}
            frontier = [origin]
            while frontier:
                current = frontier.pop()
                for peer in sorted(adjacency[current]):
                    if peer not in component:
                        component.add(peer)
                        frontier.append(peer)
            visited |= component
            if len(component) > len(giant):
                giant = component
        stranded = sorted(set(members) - giant)
        allowed = max(1, int(self.connectivity_tolerance * len(members)))
        if len(stranded) > allowed:
            self._fail(
                simulation, "connectivity", None,
                f"overlay split: {len(stranded)} of {len(members)} correct "
                f"nodes unreachable (e.g. {stranded[:5]})",
            )

    # -- dynamic trusted-set membership ----------------------------------------

    def _check_membership(self, simulation: Simulation) -> None:
        director = self.membership
        service = director.service
        chain = service.chain
        current = chain.current.number
        round_number = simulation.round_number
        for node in sorted(simulation.correct_nodes(), key=lambda n: n.node_id):
            if not getattr(node, "trusted_role", False):
                continue
            epochs = getattr(node, "round_exchange_epochs", ())
            if not epochs:
                continue
            if service.is_revoked(node.node_id):
                self._fail(
                    simulation, "epoch-exchange", node.node_id,
                    f"revoked node completed {len(epochs)} trusted "
                    f"exchange(s) this round",
                )
            revoked_used = sorted(
                {epoch for epoch in epochs if chain.is_revoked_epoch(epoch)}
            )
            if revoked_used:
                self._fail(
                    simulation, "epoch-exchange", node.node_id,
                    f"trusted exchange used revoked epoch(s) {revoked_used}",
                )
            stale_used = sorted(
                {epoch for epoch in epochs if epoch != current}
            )
            if stale_used:
                self._fail(
                    simulation, "epoch-exchange", node.node_id,
                    f"trusted exchange used non-current epoch(s) "
                    f"{stale_used} (current {current})",
                )
        bound = director.config.staleness_bound
        log = service.log
        for node_id in sorted(director.views):
            node = simulation.nodes.get(node_id)
            if node is None or not node.alive:
                continue
            view = director.views[node_id]
            overdue = sorted(
                record.seq
                for record in log.records_since(view.applied_seq)
                if round_number - record.round_number > bound
            )
            if overdue:
                self._fail(
                    simulation, "membership-staleness", node_id,
                    f"log records {overdue} still unapplied after "
                    f"{bound} round(s)",
                )

    # -- reporting -------------------------------------------------------------

    def _fail(
        self,
        simulation: Simulation,
        invariant: str,
        node_id: Optional[int],
        detail: str,
    ) -> None:
        violation = Violation(simulation.round_number, invariant, node_id, detail)
        self.violations.append(violation)
        if not self.record_only:
            raise InvariantViolation(violation.describe())

    @property
    def ok(self) -> bool:
        return not self.violations
