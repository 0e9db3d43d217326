"""Reusable observers: per-round trace collection.

The per-round records produced here are the raw material for every paper
metric (resilience, discovery time, stability time — computed in
:mod:`repro.analysis.metrics`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Dict, List, Sequence, Set

from repro.sim.engine import Observer, Simulation
from repro.sim.node import KnownIds, NodeBase, NodeKind

__all__ = ["RoundRecord", "ViewTraceObserver", "DiscoveryObserver", "byzantine_count"]


def byzantine_count(view: Sequence[int], byzantine: AbstractSet[int]) -> int:
    """How many entries of ``view`` (repeats counted) are in ``byzantine``:
    one C-level pass, no Python step per entry."""
    return sum(map(byzantine.__contains__, view))


@dataclass
class RoundRecord:
    """Snapshot of view composition at the end of one round.

    ``byzantine_fraction`` maps each correct node to the fraction of
    Byzantine IDs in its dynamic view; ``by_kind`` groups the same values by
    node kind, which the identification-attack analysis needs.
    """

    round_number: int
    byzantine_fraction: Dict[int, float] = field(default_factory=dict)
    by_kind: Dict[NodeKind, List[float]] = field(default_factory=dict)

    @property
    def mean_byzantine_fraction(self) -> float:
        if not self.byzantine_fraction:
            return 0.0
        return sum(self.byzantine_fraction.values()) / len(self.byzantine_fraction)


class ViewTraceObserver(Observer):
    """Records, per round, the Byzantine pollution of every correct view."""

    def __init__(self) -> None:
        self.records: List[RoundRecord] = []

    def on_round_end(self, simulation: Simulation) -> None:
        byzantine = simulation.byzantine_ids
        record = RoundRecord(round_number=simulation.round_number)
        for node in simulation.correct_nodes():
            view = node.view_ids()
            fraction = byzantine_count(view, byzantine) / len(view) if view else 0.0
            record.byzantine_fraction[node.node_id] = fraction
            record.by_kind.setdefault(node.kind, []).append(fraction)
        self.records.append(record)


class DiscoveryObserver(Observer):
    """Tracks the round at which each correct node has discovered at least
    ``threshold`` of the non-Byzantine IDs (paper: 75 %).

    Discovery is cumulative: an ID counts once seen in any push, pull reply
    or trusted exchange (nodes expose this as :meth:`NodeBase.known_ids`).

    The count is ``|target ∩ (known ∪ {self})|`` over the correct ids of
    the first observed round, taken from the non-correct side: every
    known id was registered at some point, so ``|known ∩ target|`` is
    ``|known|`` less the known ids among the other registered ones (the
    Byzantine ids and churn arrivals).  Those others are one
    :meth:`KnownIds.mask <repro.sim.node.KnownIds.mask>` a round, and each
    node answers :meth:`NodeBase.count_known` against it — a Brahms node
    with a popcount over its bytemap, no Python step per id.
    """

    def __init__(self, threshold: float = 0.75):
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        self.threshold = threshold
        self.discovery_round: Dict[int, int] = {}
        self._target_ids: Set[int] = set()

    def on_round_end(self, simulation: Simulation) -> None:
        if not self._target_ids:
            self._target_ids = set(simulation.correct_node_ids())
        target_count = len(self._target_ids)
        if target_count == 0:
            return
        others = KnownIds(simulation.ever_registered - self._target_ids).mask()
        threshold = self.threshold
        for node in simulation.correct_nodes():
            if node.node_id in self.discovery_round:
                continue
            # The count is at most |known| + 1: below the threshold even
            # then, the node needs no count this round.
            if (len(node.known_ids()) + 1) / target_count < threshold:
                continue
            if self._known_count(node, others) / target_count >= threshold:
                self.discovery_round[node.node_id] = simulation.round_number

    def _known_count(self, node: NodeBase, others: int) -> int:
        """``|target ∩ (known ∪ {self})|`` for ``node``, where ``others`` is
        the mask of ``simulation.ever_registered − target``."""
        count = node.count_known(others)
        # A node always knows itself (a churn arrival is not a target).
        if (node.node_id not in self._target_ids
                or node.node_id not in node.known_ids()):
            count += 1
        return count

    def all_discovered_round(self, simulation: Simulation) -> int:
        """Round by which *all* correct nodes reached the threshold.

        Returns -1 if some node has not yet reached it.
        """
        correct = simulation.correct_node_ids()
        if not correct.issubset(self.discovery_round.keys()):
            return -1
        return max(self.discovery_round[node_id] for node_id in correct)
