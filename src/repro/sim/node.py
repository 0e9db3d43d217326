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

import enum
from contextlib import nullcontext
from typing import TYPE_CHECKING, AbstractSet, ContextManager, List, Optional

from repro.sim.messages import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import RoundContext
    from repro.telemetry.hub import Telemetry

__all__ = ["NodeKind", "NodeBase"]


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


class NodeBase:
    """Base class for all simulated nodes."""

    def __init__(self, node_id: int, kind: NodeKind):
        self.node_id = node_id
        self.kind = kind
        self.alive = True
        #: Optional instrumentation hub (see :mod:`repro.telemetry`), set by
        #: ``wire_telemetry`` or by the engine for churn arrivals.
        self.telemetry: Optional["Telemetry"] = None

    # -- telemetry -----------------------------------------------------------

    def _profiled(self, name: str) -> ContextManager[None]:
        """Opt-in wall-clock timer for a hot path (no-op without telemetry)."""
        if self.telemetry is None:
            return nullcontext()
        return self.telemetry.timer(name)

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

        The node's own live set, not a copy: it is read after every round
        by :class:`~repro.sim.observers.DiscoveryObserver` and the
        invariant checker, and callers must not mutate it.  Every id in it
        was at some point registered with the simulation (a subset of
        :attr:`~repro.sim.engine.Simulation.ever_registered`), which is
        what lets discovery be counted from the non-correct side.
        """
        raise NotImplementedError

    def seed_view(self, ids: List[int]) -> None:
        """Install the bootstrap view (uniform sample of global membership)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} id={self.node_id} kind={self.kind.value}>"
