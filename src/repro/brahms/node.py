"""The Brahms node (§II): push-pull gossip + min-wise sampling + defenses.

Per round, a Brahms node:

* sends its own ID to ⌈α·l1⌉ targets drawn (with repetitions, as in the
  original algorithm) from its dynamic view V;
* sends pull requests to ⌈β·l1⌉ targets drawn the same way and collects the
  returned views;
* at round end — unless the attack-detection rule blocks the update — renews
  V from α·l1 pushed IDs, β·l1 pulled IDs and γ·l1 history samples, and
  streams every received ID through its l2 samplers.

The defense mechanisms map to code as follows:

(i)   limited pushes       → :attr:`BrahmsConfig.effective_push_limit`: honest
                             nodes send α·l1 pushes by design, and the
                             scenario builders cap every Byzantine identity
                             at ``BYZANTINE_PUSH_LIMIT_MULTIPLIER`` times it
                             (the cap is that number on every engine; the
                             puzzle mechanism §II assumes is not modelled);
(ii)  attack detection     → the ``blocked`` predicate in :meth:`end_round`;
(iii) push/pull balancing  → the α/β split of the view renewal;
(iv)  history sampling     → the γ portion drawn from the sample list S.

Subclassing hooks (used by RAPTEE): ``_do_pull`` wraps one pull session and
``_effective_pulled_ids`` filters the pulled stream before it reaches the
samplers and the β slots — exactly the two points where RAPTEE grafts
mutual authentication, trusted exchanges, and Byzantine eviction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import AbstractSet, List, Optional, Tuple

from repro.brahms.config import BrahmsConfig
from repro.brahms.sampler import SamplerGroup
from repro.crypto.minwise import MinWiseFamily
from repro.sgx.cycles import CycleAccountant, PeerSamplingFunction
from repro.sim.engine import RoundContext
from repro.sim.messages import Message, PullReply, PullRequest
from repro.sim.node import KnownIds, NodeBase, NodeKind

__all__ = ["BrahmsNode", "PulledBatch"]


@dataclass
class PulledBatch:
    """IDs obtained from one pull (or trusted-exchange) session."""

    source: int
    ids: Tuple[int, ...]
    trusted_source: bool = False


class BrahmsNode(NodeBase):
    """A node executing Brahms."""

    def __init__(
        self,
        node_id: int,
        kind: NodeKind,
        config: BrahmsConfig,
        rng: random.Random,
        cycle_accountant: Optional[CycleAccountant] = None,
    ):
        super().__init__(node_id, kind)
        self.config = config
        self.rng = rng
        self.cycles = cycle_accountant
        self.view: List[int] = []
        self.samplers = SamplerGroup(config.sample_size, MinWiseFamily(rng))
        self.known = KnownIds((node_id,))
        self.blocked_rounds = 0
        # Per-round buffers.
        self._received_pushes: List[int] = []
        self._pulled: List[PulledBatch] = []
        # Messages are frozen, so the pull request is built once and the
        # pull reply once per view object: every writer of ``self.view``
        # assigns a new list rather than mutating the current one.
        self._pull_request = PullRequest(node_id)
        self._reply_view: Optional[List[int]] = None
        self._reply: Optional[PullReply] = None

    # -- NodeBase introspection -------------------------------------------

    def view_ids(self) -> List[int]:
        return list(self.view)

    def known_ids(self) -> AbstractSet[int]:
        return self.known

    def count_known(self, outside: int) -> int:
        return self.known.count_outside(outside)

    def seed_view(self, ids: List[int]) -> None:
        self.view = [peer for peer in ids if peer != self.node_id]
        self.known.update(self.view)

    # -- cycle accounting ----------------------------------------------------

    def _charge(self, function: str) -> None:
        # The per-message and per-round callers test ``self.cycles`` before
        # the call, so a node with no accountant wired pays none.
        if self.cycles is not None:
            self.cycles.charge(function, trusted=self.kind.runs_trusted_code)

    # -- active phase ----------------------------------------------------------

    def begin_round(self, ctx: RoundContext) -> None:
        self._received_pushes = []
        self._pulled = []

    def _select_targets(self, count: int) -> List[int]:
        """Draw ``count`` gossip partners from V, with repetitions (Brahms)."""
        if not self.view:
            return []
        return self.rng.choices(self.view, k=count)

    def gossip(self, ctx: RoundContext) -> None:
        # Called once per node-round: the pushes go out in one network
        # call, and the pulled ids are marked known in one update at the
        # end (pushes are marked as they arrive, in ``on_push``).
        node_id = self.node_id
        targets = [
            target for target in self._select_targets(self.config.alpha_count)
            if target != node_id
        ]
        if self.cycles is not None:
            for _ in targets:
                self._charge(PeerSamplingFunction.PUSH_MESSAGE)
        ctx.send_pushes(node_id, targets)
        pulled, pulled_ids = self._pulled, []
        for target in self._select_targets(self.config.beta_count):
            if target == node_id:
                continue
            batch = self._do_pull(ctx, target)
            if batch is not None:
                pulled.append(batch)
                pulled_ids.extend(batch.ids)
        self.known.update(pulled_ids)

    def _do_pull(self, ctx: RoundContext, target: int) -> Optional[PulledBatch]:
        """One pull session; RAPTEE overrides to run auth + trusted swap."""
        if self.cycles is not None:
            self._charge(PeerSamplingFunction.PULL_REQUEST)
        reply = ctx.request(self.node_id, target, self._pull_request)
        if not isinstance(reply, PullReply):
            return None
        return PulledBatch(source=target, ids=reply.ids)

    # -- passive phase -----------------------------------------------------------

    def on_push(self, sender_id: int) -> None:
        self._received_pushes.append(sender_id)
        self.known.add(sender_id)

    def handle_request(self, message: Message) -> Optional[Message]:
        if isinstance(message, PullRequest):
            if self._reply_view is not self.view:
                self._reply_view = self.view
                self._reply = PullReply(sender=self.node_id, ids=tuple(self.view))
            return self._reply
        return None

    # -- round-end update ---------------------------------------------------------

    def _effective_pulled_ids(self) -> List[int]:
        """Pulled IDs that participate in sampling and view renewal.

        Plain Brahms uses everything; RAPTEE's trusted nodes evict here.
        """
        ids: List[int] = []
        for batch in self._pulled:
            ids.extend(batch.ids)
        return ids

    def end_round(self, ctx: RoundContext) -> None:
        config, node_id = self.config, self.node_id
        # A node's own id is filtered out of both streams; a C-level scan
        # first finds out whether there is anything to filter.
        pushed = self._received_pushes
        if node_id in pushed:
            pushed = [peer for peer in pushed if peer != node_id]
        pulled = self._effective_pulled_ids()
        if node_id in pulled:
            pulled = [peer for peer in pulled if peer != node_id]

        # Defense (ii): attack detection and blocking.  A node flooded with
        # more pushes than the protocol's expectation skips its view update.
        blocked = config.blocking_enabled and len(pushed) > config.alpha_count
        if blocked:
            self.blocked_rounds += 1

        # Sampling component: every received ID enters the sampler stream —
        # except the IDs a trusted node chose to evict (already filtered).
        # One feed of the concatenated stream is the same as pushed then
        # pulled: a running minimum commutes with concatenation, and on a
        # tie the earlier id is kept either way.
        if self.cycles is not None:
            self._charge(PeerSamplingFunction.SAMPLE_LIST_COMPUTATION)
        self.samplers.update(pushed + pulled)

        # View renewal: requires non-blocked round with both flows present
        # (the pull condition is on *received answers*, so an evicting
        # trusted node still renews — with empty β slots if it evicted all).
        received_any_pull = any(batch.ids for batch in self._pulled)
        if not blocked and pushed and received_any_pull:
            if self.cycles is not None:
                self._charge(PeerSamplingFunction.DYNAMIC_VIEW_COMPUTATION)
            self.view = self._renew_view(pushed, pulled)

        if (
            config.validation_period
            and ctx.round_number % config.validation_period == 0
        ):
            self.samplers.validate(ctx.network.is_reachable)

        self._received_pushes = []
        self._pulled = []

    def _renew_view(self, pushed: List[int], pulled: List[int]) -> List[int]:
        """V ← rand(pushed, α·l1) ∪ rand(pulled, β·l1) ∪ rand(S, γ·l1)."""
        config = self.config
        new_view: List[int] = []

        unique_pushed = list(dict.fromkeys(pushed))
        if len(unique_pushed) <= config.alpha_count:
            new_view.extend(unique_pushed)
        else:
            new_view.extend(self.rng.sample(unique_pushed, config.alpha_count))

        if pulled:
            new_view.extend(self.rng.choices(pulled, k=config.beta_count))

        new_view.extend(self.samplers.random_samples(config.gamma_count, self.rng))
        return new_view
