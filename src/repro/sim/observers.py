"""The per-round record: the columns every paper metric reduces.

Every engine appends one :class:`RoundRecord` when a round closes — the
per-node engines through the :class:`RoundRecorder` observer, the shard
engine from the arrays its own round close computes — and the paper's
metrics (resilience, discovery time, stability time) are reductions over
the list (:mod:`repro.analysis.metrics`).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import AbstractSet, Dict, List, Mapping, Sequence, Set

import numpy as np

from repro.analysis.metrics import DISCOVERY_THRESHOLD
from repro.sim.engine import Observer, Simulation
from repro.sim.node import KnownIds, NodeBase, NodeKind

__all__ = ["KIND_CODE", "RoundRecord", "RoundRecorder", "byzantine_count"]

#: What a record's ``kinds`` column holds for each node kind.
KIND_CODE: Dict[NodeKind, int] = {kind: code for code, kind in enumerate(NodeKind)}


def byzantine_count(view: Sequence[int], byzantine: AbstractSet[int]) -> int:
    """How many entries of ``view`` (repeats counted) are in ``byzantine``:
    one C-level pass, no Python step per entry."""
    return sum(map(byzantine.__contains__, view))


@dataclass(frozen=True, eq=False)
class RoundRecord:
    """One closed round, as columns.

    ``nodes``, ``kinds`` and ``shares`` hold one entry per alive correct
    node, in ascending id order: its id (int64), its kind as its
    :data:`KIND_CODE` (int8), and the Byzantine share of its view (float64;
    an empty view counts 0.0).  ``pushes``, ``requests`` and ``losses`` are
    the round's traffic.
    """

    round_number: int
    nodes: np.ndarray
    kinds: np.ndarray
    shares: np.ndarray
    pushes: int
    requests: int
    losses: int

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoundRecord):
            return NotImplemented
        return (
            (self.round_number, self.pushes, self.requests, self.losses)
            == (other.round_number, other.pushes, other.requests, other.losses)
            and all(np.array_equal(getattr(self, name), getattr(other, name))
                    for name in ("nodes", "kinds", "shares"))
        )

    @property
    def byzantine_fraction(self) -> Mapping[int, float]:
        """Node id → view share, read-only; built on each read."""
        return MappingProxyType(dict(zip(self.nodes.tolist(), self.shares.tolist())))

    @property
    def mean_byzantine_fraction(self) -> float:
        # Python's left-to-right sum, in id order: a numpy sum is pairwise
        # and would move the last bits of pinned floats.
        shares = self.shares.tolist()
        return sum(shares) / len(shares) if shares else 0.0

    def shares_of(self, kind: NodeKind) -> List[float]:
        """The view shares of the nodes of ``kind``, in id order."""
        return self.shares[self.kinds == KIND_CODE[kind]].tolist()


class RoundRecorder(Observer):
    """The per-node engines' round close: one walk over the correct nodes
    appends the round's :class:`RoundRecord` and notes the round in which
    each node first discovered :data:`DISCOVERY_THRESHOLD` of the correct
    ids (the paper's 75 %).

    A round's traffic is what the network's lifetime totals grew by since
    the previous round closed.

    Discovery is cumulative: an id counts once seen in any push, pull reply
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

    def __init__(self) -> None:
        self.records: List[RoundRecord] = []
        self.discovery_round: Dict[int, int] = {}
        self._target_ids: Set[int] = set()
        self._totals = (0, 0, 0)

    def on_round_end(self, simulation: Simulation) -> None:
        stats = simulation.network.stats
        totals = (stats.pushes_sent, stats.requests_sent, stats.messages_lost)
        pushes, requests, losses = (now - then for now, then in zip(totals, self._totals))
        self._totals = totals
        if not self._target_ids:
            self._target_ids = set(simulation.correct_node_ids())
        target = self._target_ids
        target_count = len(target)
        byzantine = simulation.byzantine_ids
        discovered = self.discovery_round
        round_number = simulation.round_number
        others = None
        ids: List[int] = []
        kinds: List[int] = []
        shares: List[float] = []
        for node in simulation.correct_nodes():
            node_id = node.node_id
            view = node.view_ids()
            ids.append(node_id)
            kinds.append(KIND_CODE[node.kind])
            shares.append(byzantine_count(view, byzantine) / len(view) if view else 0.0)
            # The count is at most |known| + 1: below the threshold even
            # then, the node needs no count this round.
            if (node_id in discovered or not target_count
                    or (len(node.known_ids()) + 1) / target_count < DISCOVERY_THRESHOLD):
                continue
            if others is None:
                others = KnownIds(simulation.ever_registered - target).mask()
            if self._known_count(node, others) / target_count >= DISCOVERY_THRESHOLD:
                discovered[node_id] = round_number
        self.records.append(RoundRecord(
            round_number,
            np.array(ids, dtype=np.int64),
            np.array(kinds, dtype=np.int8),
            np.array(shares, dtype=np.float64),
            pushes, requests, losses,
        ))

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
