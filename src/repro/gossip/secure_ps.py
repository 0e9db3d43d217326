"""Secure Peer Sampling (Jesi, Montresor, van Steen, 2010) — related work.

The paper's §VIII baseline: each node runs a gossip PSS plus a *detection
mechanism* that identifies and blacklists maliciously-acting nodes.  The
detector targets hub attacks — an attacker whose identifiers appear in
exchanged buffers far more often than honest ones.  Each node keeps an
occurrence counter over the descriptors it receives; an ID whose observed
frequency exceeds ``detection_threshold`` times the average is locally
blacklisted: its entries are purged from the view and ignored in future
exchanges.

The RAPTEE paper's criticism — "this protocol remains, however, vulnerable
to rapid flooding attack as correct nodes cannot identify and blacklist
attackers before being overwhelmed" — is reproduced by
``tests/test_gossip_secure_ps.py``: a slow hub attacker is caught, a fast
flood is not.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import List, Optional, Set

from repro.gossip.framework import (
    GossipPssConfig,
    GossipPssNode,
    ViewExchangeReply,
    ViewExchangeRequest,
)
from repro.gossip.partial_view import ViewEntry
from repro.sim.messages import Message
from repro.sim.node import NodeKind

__all__ = ["SecurePsNode"]


class SecurePsNode(GossipPssNode):
    """A gossip-PSS node with Jesi et al.'s hub-detection blacklist."""

    def __init__(
        self,
        node_id: int,
        view_size: int,
        rng: random.Random,
        kind: NodeKind = NodeKind.HONEST,
        detection_threshold: float = 4.0,
        warmup_observations: int = 50,
    ):
        super().__init__(node_id, GossipPssConfig.cyclon(view_size), rng, kind)
        if detection_threshold <= 1.0:
            raise ValueError("detection_threshold must exceed 1")
        self.detection_threshold = detection_threshold
        self.warmup_observations = warmup_observations
        self._observed = Counter()
        self._observations = 0
        self.blacklist: Set[int] = set()

    # -- detection ---------------------------------------------------------

    def _record_and_filter(self, entries: List[ViewEntry]) -> List[ViewEntry]:
        """Update occurrence statistics, refresh the blacklist, and drop
        blacklisted descriptors from the received buffer."""
        for entry in entries:
            self._observed[entry.node_id] += 1
            self._observations += 1

        if self._observations >= self.warmup_observations and self._observed:
            average = self._observations / len(self._observed)
            for node_id, count in self._observed.items():
                if count > self.detection_threshold * average:
                    if node_id not in self.blacklist:
                        self.blacklist.add(node_id)
                        self.view.remove_id(node_id)

        return [entry for entry in entries if entry.node_id not in self.blacklist]

    # -- framework overrides with filtering ----------------------------------

    def gossip(self, ctx) -> None:
        peer = self._select_peer()
        if peer is None or peer in self.blacklist:
            self.view.increase_ages()
            return
        buffer = self._build_buffer()
        reply = ctx.request(
            self.node_id,
            peer,
            ViewExchangeRequest(sender=self.node_id, entries=tuple(buffer)),
        )
        if isinstance(reply, ViewExchangeReply):
            received = [
                entry for entry in reply.entries if entry.node_id != self.node_id
            ]
            received = self._record_and_filter(received)
            self.known.update(entry.node_id for entry in received)
            self.view.select(
                received,
                healer=self.config.healer,
                swapper=self.config.swapper,
                sent_count=len(buffer) - 1,
                rng=self.rng,
            )
        self.view.increase_ages()

    def handle_request(self, message: Message) -> Optional[Message]:
        if not isinstance(message, ViewExchangeRequest):
            return None
        if message.sender in self.blacklist:
            return None
        reply_entries = tuple(self._build_buffer())
        received = [
            entry for entry in message.entries if entry.node_id != self.node_id
        ]
        received = self._record_and_filter(received)
        self.known.update(entry.node_id for entry in received)
        self.view.select(
            received,
            healer=self.config.healer,
            swapper=self.config.swapper,
            sent_count=len(reply_entries) - 1 if reply_entries else 0,
            rng=self.rng,
        )
        return ViewExchangeReply(sender=self.node_id, entries=reply_entries)
