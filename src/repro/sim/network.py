"""Message transport between simulated nodes.

The network delivers pushes (fire-and-forget) and runs synchronous
request-response sessions (pull, auth, trusted swap).  It models:

* message loss (``loss_rate``), applied independently per message;
* node failure (messages to dead nodes are dropped);
* injected faults — an installed fault hook (see
  :class:`repro.faults.injector.FaultInjector`) is consulted per message and
  per direction, which is how partitions, eclipse cuts, per-link loss
  overrides, loss bursts and omission nodes are realised;
* transport encryption, accounted rather than executed — the paper encrypts
  *all* pairwise communication with symmetric keys against an eavesdropping
  adversary (§III-B).  The adversary modelled here is a global-knowledge
  coordinator that never reads the wire, so no ciphertext would ever be
  read.  An encrypted network therefore counts the bytes it would encrypt
  — for each request and reply that reaches the other side,
  :func:`repro.sim.messages.wire_bytes`: a fixed frame plus a fixed cost
  per id carried, the formula the shard engine charges too — and hands
  the message object over as is.

All traffic is counted in lifetime totals, applied eagerly per request
and per push call (one sender's pushes of a round go out in one
:meth:`Network.send_pushes` call), so a holder of the ``stats`` reference
reads them current at any point.  A round's traffic is not kept here: the
round record (:class:`repro.sim.observers.RoundRecorder`) takes it as what
the totals grew by since the previous round closed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterable, Optional

from repro.sim.messages import Message, wire_bytes
from repro.sim.node import NodeBase

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.hub import Telemetry
    from repro.telemetry.registry import Counter as MetricCounter

__all__ = ["Network", "NetworkStats", "FaultHook"]

#: Per-message injection gate: ``(src, dst, round_number)`` → truthy to drop.
FaultHook = Callable[[int, int, int], object]


@dataclass
class NetworkStats:
    """Counters over the lifetime of a simulation."""

    pushes_sent: int = 0
    pushes_delivered: int = 0
    requests_sent: int = 0
    replies_delivered: int = 0
    messages_lost: int = 0
    bytes_encrypted: int = 0


class Network:
    """Round-scoped transport over a registry of nodes."""

    def __init__(
        self,
        rng: random.Random,
        loss_rate: float = 0.0,
        encrypt: bool = False,
    ):
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self._nodes: Dict[int, NodeBase] = {}
        self._rng = rng
        self._loss_rate = loss_rate
        self._encrypt = encrypt
        self._fault_hook: Optional[FaultHook] = None
        self._stats = NetworkStats()
        self._current_round = 0
        self.telemetry: Optional["Telemetry"] = None
        # Cached telemetry handles; None / False when no hub is wired, so
        # the un-instrumented hot path pays one attribute test per message.
        self._trace_messages = False
        self._ctr_pushes_sent: Optional["MetricCounter"] = None
        self._ctr_pushes_delivered: Optional["MetricCounter"] = None
        self._ctr_messages_lost: Optional["MetricCounter"] = None
        self._ctr_requests_sent: Dict[str, "MetricCounter"] = {}
        self._ctr_replies_delivered: Dict[str, "MetricCounter"] = {}

    def set_telemetry(self, telemetry: Optional["Telemetry"]) -> None:
        """Mirror traffic counters (and per-message events) into a hub."""
        self.telemetry = telemetry
        self._ctr_requests_sent = {}
        self._ctr_replies_delivered = {}
        if telemetry is None:
            self._trace_messages = False
            self._ctr_pushes_sent = None
            self._ctr_pushes_delivered = None
            self._ctr_messages_lost = None
        else:
            self._trace_messages = (
                telemetry.config.trace_messages and telemetry.trace is not None
            )
            self._ctr_pushes_sent = telemetry.counter("network.pushes_sent")
            self._ctr_pushes_delivered = telemetry.counter("network.pushes_delivered")
            self._ctr_messages_lost = telemetry.counter("network.messages_lost")

    # -- statistics ------------------------------------------------------------

    @property
    def stats(self) -> NetworkStats:
        """Lifetime counters, always current — tallies apply eagerly."""
        return self._stats

    @property
    def current_round(self) -> int:
        return self._current_round

    @current_round.setter
    def current_round(self, round_number: int) -> None:
        self._current_round = round_number

    # -- topology --------------------------------------------------------------

    def register(self, node: NodeBase) -> None:
        if node.node_id in self._nodes:
            raise ValueError(f"node id {node.node_id} already registered")
        self._nodes[node.node_id] = node

    def unregister(self, node_id: int) -> None:
        self._nodes.pop(node_id, None)

    def node(self, node_id: int) -> Optional[NodeBase]:
        return self._nodes.get(node_id)

    def is_reachable(self, node_id: int) -> bool:
        node = self._nodes.get(node_id)
        return node is not None and node.alive

    # -- fault injection -------------------------------------------------------

    def install_fault_hook(self, hook: Optional[FaultHook]) -> None:
        """Install (or clear, with ``None``) the per-message injection gate."""
        self._fault_hook = hook

    # -- encryption ------------------------------------------------------------

    def _through_wire(self, message: Message) -> Message:
        """Count the bytes encrypting ``message`` would take and deliver it.

        Called on an encrypted network only; an unencrypted one hands the
        message object over uncounted."""
        self._stats.bytes_encrypted += wire_bytes(message)
        return message

    # -- delivery ------------------------------------------------------------
    #
    # Each direction of a message passes three gates, inline and in this
    # order: the fault hook, the loss draw (an RNG draw, taken only when
    # the hook let the message through) and, on the way to the callee,
    # its reachability.  The destination node is fetched once.

    def _count_loss(self, lost: int = 1) -> None:
        self._stats.messages_lost += lost
        if self._ctr_messages_lost is not None:
            self._ctr_messages_lost.inc(lost)

    def _emit_message(self, name: str, src: int, fields: Dict[str, object]) -> None:
        # Callers guard on self._trace_messages, which implies a hub with a
        # trace; the fields dict goes to the collector as built.
        telemetry = self.telemetry
        telemetry.trace.record(name, telemetry.current_round, src,
                               telemetry.current_phase, "event", fields)

    def send_push(self, src: int, dst: int) -> bool:
        """Deliver a push from ``src`` to ``dst``; returns delivery success."""
        return self.send_pushes(src, (dst,)) == 1

    def send_pushes(self, src: int, targets: Iterable[int]) -> int:
        """Deliver one push from ``src`` to each of ``targets``, in order;
        returns how many were delivered.

        The one push-delivery loop: a node hands it its whole round of
        pushes, so the per-call set-up and the tallies are paid once per
        sender.  Every message still passes its own gates, and traces its
        own event, in the order of ``targets``.
        """
        current_round = self._current_round
        hook, loss_rate, nodes = self._fault_hook, self._loss_rate, self._nodes
        draw = self._rng.random
        trace = self._trace_messages
        delivered = lost = 0
        for dst in targets:
            node = None
            if not (
                (hook is not None and hook(src, dst, current_round))
                or (loss_rate > 0.0 and draw() < loss_rate)
            ):
                node = nodes.get(dst)
            if node is None or not node.alive:
                lost += 1
                if trace:
                    self._emit_message("net.push", src,
                                       {"dst": dst, "delivered": False})
                continue
            node.on_push(src)
            delivered += 1
            if trace:
                self._emit_message("net.push", src,
                                   {"dst": dst, "delivered": True})
        sent = delivered + lost
        if sent:
            stats = self._stats
            stats.pushes_sent += sent
            stats.pushes_delivered += delivered
            if self._ctr_pushes_sent is not None:
                self._ctr_pushes_sent.inc(sent)
                self._ctr_pushes_delivered.inc(delivered)
            if lost:
                self._count_loss(lost)
        return delivered

    def _request_counter(
        self, cache: Dict[str, "MetricCounter"], name: str, kind: str
    ) -> "MetricCounter":
        counter = cache.get(kind)
        if counter is None:
            counter = self.telemetry.counter(name, kind=kind)
            cache[kind] = counter
        return counter

    def request(self, src: int, dst: int, message: Message) -> Optional[Message]:
        """Synchronous request-response; ``None`` on loss or dead peer."""
        stats = self._stats
        stats.requests_sent += 1
        current_round = self._current_round
        # The message kind only labels telemetry (trace_messages implies it).
        instrumented = self.telemetry is not None
        kind = ""
        if instrumented:
            kind = type(message).__name__
            self._request_counter(
                self._ctr_requests_sent, "network.requests_sent", kind
            ).inc()
        hook, loss_rate = self._fault_hook, self._loss_rate
        node = None
        if not (
            (hook is not None and hook(src, dst, current_round))
            or (loss_rate > 0.0 and self._rng.random() < loss_rate)
        ):
            node = self._nodes.get(dst)
        if node is None or not node.alive:
            self._count_loss()
            if self._trace_messages:
                self._emit_message("net.request", src, {
                    "dst": dst, "delivered": False, "message": kind,
                })
            return None
        encrypt = self._encrypt
        reply = node.handle_request(
            self._through_wire(message) if encrypt else message
        )
        if reply is None:
            if self._trace_messages:
                self._emit_message("net.request", src, {
                    "dst": dst, "delivered": True, "message": kind,
                    "answered": False,
                })
            return None
        if (hook is not None and hook(dst, src, current_round)) or (
            loss_rate > 0.0 and self._rng.random() < loss_rate
        ):
            self._count_loss()
            if self._trace_messages:
                self._emit_message("net.request", src, {
                    "dst": dst, "delivered": True, "message": kind,
                    "answered": True, "reply_delivered": False,
                })
            return None
        stats.replies_delivered += 1
        if instrumented:
            self._request_counter(
                self._ctr_replies_delivered, "network.replies_delivered", kind
            ).inc()
        if self._trace_messages:
            self._emit_message("net.request", src, {
                "dst": dst, "delivered": True, "message": kind,
                "answered": True, "reply_delivered": True,
            })
        return self._through_wire(reply) if encrypt else reply
