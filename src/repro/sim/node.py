"""Node interface for the round-based simulator.

A protocol (Brahms, RAPTEE, a Byzantine strategy) is a :class:`NodeBase`
subclass.  The engine drives three phases per round:

1. ``begin_round`` — reset per-round buffers;
2. ``gossip`` — the node's *active* behaviour: emit pushes and run pull
   sessions (synchronous request-response) through the
   :class:`~repro.sim.engine.RoundContext`;
3. ``end_round`` — integrate what was received into view and samples.

Passive behaviour — answering pushes and requests from other nodes — goes
through :meth:`on_push` and :meth:`handle_request`, called by the network
when messages arrive.
"""

from __future__ import annotations

import collections.abc
import enum
from itertools import compress, count
from typing import TYPE_CHECKING, AbstractSet, Iterable, Iterator, List, Optional

from repro.sim.messages import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import RoundContext
    from repro.telemetry.hub import Telemetry

__all__ = ["NodeKind", "NodeBase", "KnownIds"]


class NodeKind(enum.Enum):
    """Role of a node in the experiment topology.

    ``POISONED_TRUSTED`` nodes are genuine SGX devices bought by the
    adversary (§VI-B): they run the *correct* trusted code but start with
    adversarially poisoned views.  They are counted on the adversary's side
    for injection budgets but, having correct code, are not Byzantine.
    """

    HONEST = "honest"
    TRUSTED = "trusted"
    BYZANTINE = "byzantine"
    POISONED_TRUSTED = "poisoned_trusted"

    @property
    def runs_trusted_code(self) -> bool:
        return self in (NodeKind.TRUSTED, NodeKind.POISONED_TRUSTED)

    @property
    def is_byzantine(self) -> bool:
        return self is NodeKind.BYZANTINE

    @classmethod
    def for_banded_id(
        cls, node_id: int, n_byzantine: int, n_trusted: int = 0
    ) -> "NodeKind":
        """Role under the id-banded layout every topology builder uses:
        ids ``[0, n_byzantine)`` are Byzantine, the next ``n_trusted`` are
        trusted, the rest honest.  The struct-of-arrays engine
        (:mod:`repro.shard`) has no node objects to ask, so it derives
        roles from this band structure — keeping the mapping here makes
        both engines answer "who is node i" from one definition.
        """
        if node_id < n_byzantine:
            return cls.BYZANTINE
        if node_id < n_byzantine + n_trusted:
            return cls.TRUSTED
        return cls.HONEST


class KnownIds(collections.abc.Set):
    """A set of non-negative node ids held as one byte per id.

    Byte ``i`` of one ``bytearray`` is 1 when id ``i`` is in the set: a
    node's ever-seen ids cost N bytes, where a Python ``set`` of them costs
    ~51 bytes an entry.  The map's length is a power of two; an id past the
    end (a churn arrival's) grows it to the next power of two above that
    id, so at least doubles it.  A negative id is refused with
    ``ValueError`` rather than indexing the map from its end.

    ``add`` and ``update`` are those of ``set``; iteration is in ascending
    id order.
    """

    __slots__ = ("_map",)

    def __init__(self, ids: Iterable[int] = ()):
        self._map = bytearray()
        self.update(ids)

    def __contains__(self, node_id: int) -> bool:
        return 0 <= node_id < len(self._map) and self._map[node_id] == 1

    def __iter__(self) -> Iterator[int]:
        return compress(count(), self._map)

    def __len__(self) -> int:
        return self._map.count(1)

    def __repr__(self) -> str:
        return f"KnownIds({list(self)})"

    def _grow(self, top: int) -> None:
        """Lengthen the map to the power of two above id ``top``."""
        self._map.extend(bytes((1 << top.bit_length()) - len(self._map)))

    def add(self, node_id: int) -> None:
        if node_id < 0:
            raise ValueError(f"node ids are non-negative, got {node_id}")
        try:
            self._map[node_id] = 1
        except IndexError:
            self._grow(node_id)
            self._map[node_id] = 1

    def update(self, ids: Iterable[int]) -> None:
        ids = tuple(ids)
        if ids and min(ids) < 0:
            raise ValueError(f"node ids are non-negative, got {min(ids)}")
        known = self._map
        try:
            for node_id in ids:
                known[node_id] = 1
        except IndexError:  # an id past the end: grow, then mark them all
            self._grow(max(ids))
            for node_id in ids:
                known[node_id] = 1

    def mask(self) -> int:
        """The map read as one little-endian int: bit ``8·i`` is set
        exactly when id ``i`` is in the set."""
        return int.from_bytes(self._map, "little")

    def count_outside(self, outside: int) -> int:
        """How many ids in the set are not in ``outside``, another set's
        :meth:`mask`: two C-level passes over the map and one AND, with
        no Python step per id."""
        return self._map.count(1) - (self.mask() & outside).bit_count()


class NodeBase:
    """Base class for all simulated nodes."""

    def __init__(self, node_id: int, kind: NodeKind):
        self.node_id = node_id
        self.kind = kind
        self.alive = True
        #: Optional instrumentation hub (see :mod:`repro.telemetry`), set by
        #: ``wire_telemetry`` or by the engine for churn arrivals.
        self.telemetry: Optional["Telemetry"] = None

    # -- active phase -------------------------------------------------------

    def begin_round(self, ctx: "RoundContext") -> None:
        """Reset per-round state.  Default: nothing."""

    def gossip(self, ctx: "RoundContext") -> None:
        """Emit pushes and run pull sessions for this round."""
        raise NotImplementedError

    def end_round(self, ctx: "RoundContext") -> None:
        """Integrate the round's received information.  Default: nothing."""

    # -- passive phase --------------------------------------------------------

    def on_push(self, sender_id: int) -> None:
        """A push from ``sender_id`` arrived this round.  Default: ignore."""

    def handle_request(self, message: Message) -> Optional[Message]:
        """Answer a synchronous request; ``None`` means no answer (drop)."""
        raise NotImplementedError

    # -- introspection (used by metrics and bootstrapping) ---------------------

    def view_ids(self) -> List[int]:
        """The node's current dynamic view (IDs, possibly with duplicates)."""
        raise NotImplementedError

    def known_ids(self) -> AbstractSet[int]:
        """Every distinct ID this node has ever learned (discovery metric).

        The node's own live state, not a copy (a Brahms node's
        :class:`KnownIds` bytemap): the invariant checker tests its view's
        ids against it after every round, and callers must not mutate it.
        Every id in it was at some point registered with the simulation (a
        subset of :attr:`~repro.sim.engine.Simulation.ever_registered`),
        which is what lets discovery be counted from the non-correct side
        (:meth:`count_known`).
        """
        raise NotImplementedError

    def count_known(self, outside: int) -> int:
        """How many of :meth:`known_ids` are not in ``outside``, a
        :meth:`KnownIds.mask` (the discovery count, read after every round
        by :class:`~repro.sim.observers.RoundRecorder`).  This default
        copies :meth:`known_ids` into a map first; a node that keeps a
        :class:`KnownIds` answers from it directly."""
        return KnownIds(self.known_ids()).count_outside(outside)

    def seed_view(self, ids: List[int]) -> None:
        """Install the bootstrap view (uniform sample of global membership)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} id={self.node_id} kind={self.kind.value}>"
