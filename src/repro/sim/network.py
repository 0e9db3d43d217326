"""Message transport between simulated nodes.

The network delivers pushes (fire-and-forget) and runs synchronous
request-response sessions (pull, auth, trusted swap).  It models:

* message loss (``loss_rate``), applied independently per message;
* node failure (messages to dead nodes are dropped);
* injected faults — an installed fault hook (see
  :class:`repro.faults.injector.FaultInjector`) is consulted per message and
  per direction, which is how partitions, eclipse cuts, per-link loss
  overrides, loss bursts and omission nodes are realised;
* optional transport encryption — the paper encrypts *all* pairwise
  communication with symmetric keys against an eavesdropping adversary
  (§III-B).  When enabled, every payload is serialized and AES-CTR-encrypted
  under a per-pair key, with one global nonce counter.  The per-pair block
  cipher is cached, the CTR involution lets one keystream serve both wire
  directions, and the keystream itself is read ahead a session at a time
  (below), which is what makes encrypted paper-scale runs feasible.

Keystream read-ahead.  A RAPTEE pull session is six encrypted messages on
*one* pair under *consecutive* nonces (``AuthChallenge`` / ``AuthResponse``,
``AuthConfirm`` / ``AuthResult``, ``PullRequest`` / ``PullReply``; a trusted
pair adds a swap request and reply), 5 to 9 AES blocks each, and CTR
keystream depends on (key, nonce, counter) only.  So the wire asks
:func:`repro.crypto.ctr.keystream_rows` for a *window* — the keystream of
the next ``_WINDOW_ROWS`` nonces under the current pair's cipher, one numpy
pass that costs about what a single message costs block by block — and the
session's remaining messages take their rows from it.  Invariants: a row is
served only to the exact ``(pair, nonce)`` it was computed for, under the
key current at that message (the window is dropped by ``rekey_pairs`` and
``unregister``); anything else recomputes the window from its own nonce, so
unused rows are simply dropped; at most one window exists; it is a memo and
is left out of snapshots like the cipher cache.  The ciphertext is byte for
byte what per-message :class:`repro.crypto.ctr.AesCtr` produces.

All traffic is counted — total and per round.  Per-round tallies are
applied eagerly, message by message: a lazy flush would leave the shared
:class:`NetworkStats` object internally inconsistent for any holder of the
``stats`` reference (totals eager, per-round Counters stale) and risks
misattributing a round's tail to its successor.  Counter increments keyed
by a small int are cheap enough for the hot path.
"""

from __future__ import annotations

import pickle
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

import numpy as np

from repro.crypto.aes import AES128, BLOCK_SIZE
from repro.crypto.ctr import keystream_rows
from repro.crypto.hashing import hkdf
from repro.sim.messages import Message
from repro.sim.node import NodeBase

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.hub import Telemetry
    from repro.telemetry.registry import Counter as MetricCounter

__all__ = ["Network", "NetworkStats", "FaultHook"]

#: Per-message injection gate: ``(src, dst, round_number)`` → truthy to drop.
FaultHook = Callable[[int, int, int], object]

#: Consecutive nonces one keystream window covers.  Sized to the measured
#: session: on the ledger's ``pernode-raptee-enc`` spec (N = 200, t = 5%,
#: seed 1, 2 rounds, 12,974 messages of 5 / 6 / 7 / 9 blocks) the 2,167
#: sessions are 6 messages on one pair under consecutive nonces (auth x 4,
#: pull x 2) 2,160 times and 8 messages (the same plus a trusted swap) 7
#: times; 8 covers both.  The two rows a plain session leaves over cost
#: ~5 µs of a ~100 µs pass, and they are the first two messages of the next
#: session when it is on the same pair (127 times).  Measured hit rate:
#: 10,813 / 12,974 = 5/6, one miss per session.
_WINDOW_ROWS = 8

#: ``(pair, first nonce, [rows, width] keystream bytes)``.
_Window = Tuple[Tuple[int, int], int, np.ndarray]


@dataclass
class NetworkStats:
    """Counters over the lifetime of a simulation."""

    pushes_sent: int = 0
    pushes_delivered: int = 0
    requests_sent: int = 0
    replies_delivered: int = 0
    messages_lost: int = 0
    bytes_encrypted: int = 0
    per_round_pushes: Counter = field(default_factory=Counter)
    per_round_requests: Counter = field(default_factory=Counter)
    per_round_losses: Counter = field(default_factory=Counter)


class Network:
    """Round-scoped transport over a registry of nodes."""

    def __init__(
        self,
        rng: random.Random,
        loss_rate: float = 0.0,
        encrypt: bool = False,
        transport_secret: bytes = b"\x00" * 16,
    ):
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self._nodes: Dict[int, NodeBase] = {}
        self._rng = rng
        self._loss_rate = loss_rate
        self._encrypt = encrypt
        self._transport_secret = transport_secret
        self._pair_keys: Dict[Tuple[int, int], bytes] = {}
        self._pair_ciphers: Dict[Tuple[int, int], AES128] = {}
        # Keystream read-ahead (module docstring): the one current window,
        # and its width in blocks — the largest message carried so far.
        self._window: Optional[_Window] = None
        self._window_blocks = 1
        # Group-key-epoch salt (see repro.membership): b"" reproduces the
        # legacy pair-key derivation byte for byte.
        self._pair_salt = b""
        self._nonce_counter = 0
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

    # -- snapshot support ------------------------------------------------------

    def __getstate__(self) -> Dict[str, object]:
        """Pickle the network with the cipher cache and the keystream
        read-ahead dropped.

        Both are pure memos over ``_pair_keys`` (each entry is re-derived
        on demand from the kept key), so dropping them shrinks snapshots
        without changing a single observable byte of a resumed run.
        Tallies are eager, so the serialized :class:`NetworkStats` is
        exactly what a reader of :attr:`stats` sees.
        """
        state = dict(self.__dict__)
        state["_pair_ciphers"] = {}
        del state["_window"], state["_window_blocks"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self._window = None
        self._window_blocks = 1
        self.__dict__.update(state)

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
        """Lifetime counters, always consistent — tallies apply eagerly,
        so a reference held across messages or a round boundary never sees
        totals ahead of the per-round Counters."""
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
        # Departed nodes never talk again; dropping their pair keys keeps
        # long churny encrypted runs from accumulating dead key material.
        stale = [pair for pair in self._pair_keys if node_id in pair]
        for pair in stale:
            del self._pair_keys[pair]
            self._pair_ciphers.pop(pair, None)
        self._window = None

    def node(self, node_id: int) -> Optional[NodeBase]:
        return self._nodes.get(node_id)

    def is_reachable(self, node_id: int) -> bool:
        node = self._nodes.get(node_id)
        return node is not None and node.alive

    # -- fault injection -------------------------------------------------------

    def install_fault_hook(self, hook: Optional[FaultHook]) -> None:
        """Install (or clear, with ``None``) the per-message injection gate."""
        self._fault_hook = hook

    def _fault_dropped(self, src: int, dst: int) -> bool:
        return self._fault_hook is not None and bool(
            self._fault_hook(src, dst, self._current_round)
        )

    # -- encryption ------------------------------------------------------------

    def rekey_pairs(self, salt: bytes) -> None:
        """Re-derive every per-pair transport key under a new salt.

        Called on a group-key-epoch rotation: every memo layer (the derived
        keys, the expanded cipher contexts built from them *and* the
        keystream read ahead under one of them) is invalidated, so no
        message is ever protected by key material tied to a retired epoch.
        """
        self._pair_salt = salt
        self._pair_keys.clear()
        self._pair_ciphers.clear()
        self._window = None

    def _pair_key(self, a: int, b: int) -> bytes:
        pair = (a, b) if a <= b else (b, a)
        key = self._pair_keys.get(pair)
        if key is None:
            info = (
                b"pair"
                + pair[0].to_bytes(8, "big")
                + pair[1].to_bytes(8, "big")
                + self._pair_salt
            )
            key = hkdf(self._transport_secret, info, length=16)
            self._pair_keys[pair] = key
        return key

    def _pair_cipher(self, a: int, b: int) -> AES128:
        """The pair's block cipher, expanded once and re-nonced per message."""
        pair = (a, b) if a <= b else (b, a)
        cipher = self._pair_ciphers.get(pair)
        if cipher is None:
            cipher = AES128(self._pair_key(a, b))
            self._pair_ciphers[pair] = cipher
        return cipher

    def _keystream(self, src: int, dst: int, nonce: int, length: int) -> bytes:
        """``length`` bytes of the pair's keystream under ``nonce``: the
        message's row of the current window, or of a new one starting here."""
        pair = (src, dst) if src <= dst else (dst, src)
        window = self._window
        if window is not None:
            window_pair, first_nonce, rows = window
            row = nonce - first_nonce
            if (
                window_pair == pair
                and 0 <= row < rows.shape[0]
                and length <= rows.shape[1]
            ):
                return rows[row, :length].tobytes()
        self._window_blocks = max(self._window_blocks, -(-length // BLOCK_SIZE))
        rows = keystream_rows(
            self._pair_cipher(src, dst), nonce, _WINDOW_ROWS, self._window_blocks
        )
        self._window = (pair, nonce, rows)
        return rows[0, :length].tobytes()

    def _through_wire(self, src: int, dst: int, message: Message) -> Message:
        """Simulate serialization + encryption + decryption of a payload."""
        if not self._encrypt:
            return message
        self._nonce_counter += 1
        plaintext = pickle.dumps(message)
        keystream = self._keystream(src, dst, self._nonce_counter, len(plaintext))
        ks_int = int.from_bytes(keystream, "big")
        ciphertext = (int.from_bytes(plaintext, "big") ^ ks_int).to_bytes(
            len(plaintext), "big"
        )
        self._stats.bytes_encrypted += len(ciphertext)
        # CTR is an involution, so the decrypt half of the round trip
        # reuses the keystream instead of re-running AES over it.
        decrypted = (int.from_bytes(ciphertext, "big") ^ ks_int).to_bytes(
            len(ciphertext), "big"
        )
        return pickle.loads(decrypted)

    # -- delivery ------------------------------------------------------------

    def _lost(self) -> bool:
        return self._loss_rate > 0.0 and self._rng.random() < self._loss_rate

    def _count_loss(self) -> None:
        self._stats.messages_lost += 1
        self._stats.per_round_losses[self._current_round] += 1
        if self._ctr_messages_lost is not None:
            self._ctr_messages_lost.inc()

    def _emit_message(self, name: str, src: int, fields: Dict[str, object]) -> None:
        # Callers guard on self._trace_messages, which implies a hub with a
        # trace; the fields dict goes to the collector as built.
        telemetry = self.telemetry
        telemetry.trace.record(name, telemetry.current_round, src,
                               telemetry.current_phase, "event", fields)

    def send_push(self, src: int, dst: int) -> bool:
        """Deliver a push from ``src`` to ``dst``; returns delivery success."""
        stats = self._stats
        stats.pushes_sent += 1
        stats.per_round_pushes[self._current_round] += 1
        if self._ctr_pushes_sent is not None:
            self._ctr_pushes_sent.inc()
        if self._fault_dropped(src, dst) or self._lost() or not self.is_reachable(dst):
            self._count_loss()
            if self._trace_messages:
                self._emit_message("net.push", src,
                                   {"dst": dst, "delivered": False})
            return False
        self._nodes[dst].on_push(src)
        stats.pushes_delivered += 1
        if self._ctr_pushes_delivered is not None:
            self._ctr_pushes_delivered.inc()
        if self._trace_messages:
            self._emit_message("net.push", src, {"dst": dst, "delivered": True})
        return True

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
        stats.per_round_requests[self._current_round] += 1
        kind = type(message).__name__
        instrumented = self.telemetry is not None
        if instrumented:
            self._request_counter(
                self._ctr_requests_sent, "network.requests_sent", kind
            ).inc()
        if self._fault_dropped(src, dst) or self._lost() or not self.is_reachable(dst):
            self._count_loss()
            if self._trace_messages:
                self._emit_message("net.request", src, {
                    "dst": dst, "delivered": False, "message": kind,
                })
            return None
        delivered = self._through_wire(src, dst, message)
        reply = self._nodes[dst].handle_request(delivered)
        if reply is None:
            if self._trace_messages:
                self._emit_message("net.request", src, {
                    "dst": dst, "delivered": True, "message": kind,
                    "answered": False,
                })
            return None
        if self._fault_dropped(dst, src) or self._lost():
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
        return self._through_wire(dst, src, reply)
