"""Byzantine node behaviour (§III-B, §V-B).

A Byzantine node:

* pushes its ID to the victims the coordinator assigns (a balanced
  schedule, within the rate limit — the coordinator's budget is
  :attr:`~repro.brahms.config.BrahmsConfig.effective_push_limit` ×
  ``BYZANTINE_PUSH_LIMIT_MULTIPLIER`` per identity and it never hands out
  more);
* answers every pull request with a view of exclusively Byzantine IDs;
* participates in the mutual-auth handshake with a random key of its own —
  it cannot forge K_T, and refusing to answer would make it conspicuous;
* optionally issues pull requests of its own ("probing"), both as cover
  traffic and to collect the view compositions the §VI-A identification
  attack feeds on.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.adversary.coordinator import AdversaryCoordinator
from repro.core.auth import AuthScheme, KEY_BYTES
from repro.sim.engine import RoundContext
from repro.sim.messages import (
    AuthChallenge,
    AuthConfirm,
    AuthResponse,
    AuthResult,
    Message,
    PullReply,
    PullRequest,
)
from repro.sim.node import NodeBase, NodeKind

__all__ = ["ByzantineNode"]


class ByzantineNode(NodeBase):
    """One Byzantine identity driven by the global coordinator."""

    def __init__(
        self,
        node_id: int,
        coordinator: AdversaryCoordinator,
        view_size: int,
        rng: random.Random,
        probe_pulls: int = 0,
        auth_mode: str = "hmac",
    ):
        super().__init__(node_id, NodeKind.BYZANTINE)
        self.coordinator = coordinator
        self.view_size = view_size
        self.rng = rng
        self.probe_pulls = probe_pulls
        self._scheme = AuthScheme(auth_mode)
        # The adversary cannot forge the group key; each identity blends in
        # with an ordinary random key, like any untrusted node.
        self._own_key = rng.getrandbits(KEY_BYTES * 8).to_bytes(KEY_BYTES, "big")
        self._pending_auth: Dict[int, tuple] = {}

    # -- introspection ---------------------------------------------------------

    def view_ids(self) -> List[int]:
        """A Byzantine 'view' is whatever the adversary wants to advertise."""
        return self.coordinator.fake_view(self.view_size)

    def known_ids(self) -> List[int]:
        # Global knowledge (§III-B): the adversary knows the membership.
        return list(self.coordinator.correct_ids) + list(self.coordinator.byzantine_ids)

    def seed_view(self, ids: List[int]) -> None:
        # Membership knowledge is global; the bootstrap sample is ignored.
        return None

    # -- active behaviour ---------------------------------------------------------

    def begin_round(self, ctx: RoundContext) -> None:
        self._pending_auth = {}

    def gossip(self, ctx: RoundContext) -> None:
        for victim in self.coordinator.push_targets_for(self.node_id, ctx.round_number):
            ctx.send_push(self.node_id, victim)
        for target in self.coordinator.pull_targets_for(self.node_id, self.probe_pulls):
            self._probe(ctx, target)

    def _probe(self, ctx: RoundContext, target: int) -> None:
        """Full protocol-conformant pull session, recording the answer."""
        r_a = AuthScheme.make_challenge(self.rng)
        response = ctx.request(
            self.node_id, target, AuthChallenge(sender=self.node_id, r_a=r_a)
        )
        if not isinstance(response, AuthResponse):
            return
        confirm = self._scheme.confirm(self._own_key, r_a, response.r_b)
        ctx.request(self.node_id, target, AuthConfirm(sender=self.node_id, proof=confirm))
        reply = ctx.request(self.node_id, target, PullRequest(self.node_id))
        if isinstance(reply, PullReply):
            self.coordinator.record_pull_answer(target, reply.ids, ctx.round_number)

    # -- passive behaviour -----------------------------------------------------------

    def on_push(self, sender_id: int) -> None:
        # Nothing to learn: membership is already global knowledge.
        return None

    def handle_request(self, message: Message) -> Optional[Message]:
        if isinstance(message, AuthChallenge):
            parts = self._scheme.respond(self._own_key, message.r_a, self.rng)
            self._pending_auth[message.sender] = (message.r_a, parts.r_b)
            return AuthResponse(sender=self.node_id, r_b=parts.r_b, proof=parts.proof)
        if isinstance(message, AuthConfirm):
            self._pending_auth.pop(message.sender, None)
            return AuthResult(sender=self.node_id, mutual=False)
        if isinstance(message, PullRequest):
            return PullReply(
                sender=self.node_id,
                ids=tuple(self.coordinator.fake_view(self.view_size)),
            )
        # TrustedSwapRequest etc.: a Byzantine node can never have passed
        # the confirm check, so honest trusted nodes never send these; an
        # unsolicited one is simply dropped.
        return None
