"""The RAPTEE node (§IV): Brahms + mutual auth + trusted comms + eviction.

Every non-Byzantine node in a RAPTEE deployment runs this class:

* **honest untrusted** nodes (kind ``HONEST``) participate in the mutual
  authentication that precedes every pull — each with its own random key,
  so no handshake ever succeeds for them — and otherwise execute Brahms
  unmodified;
* **trusted** nodes (kind ``TRUSTED`` or ``POISONED_TRUSTED``) carry a
  provisioned :class:`~repro.core.enclave.RapteeEnclave`.  When a pull
  partner proves knowledge of the group key, the pair runs the §IV-B
  half-view swap, and at round end the node evicts a policy-determined
  fraction of the IDs pulled from *untrusted* peers (§IV-C).

Crucially, a trusted node's observable behaviour is identical to an honest
node's: same number of pushes, pulls, and auth messages per round.  Only
the *content* of its pull answers can differ — the leakage channel §VI-A's
identification attack exploits.

**Failure hardening.**  A trusted node whose enclave becomes unavailable
(crash, EPC loss — raised as :class:`~repro.sgx.errors.EnclaveUnavailable`
at the first ECALL) does not take the whole node down: it *degrades* to
honest-untrusted Brahms behaviour — same message pattern, a private random
auth key that proves nothing — and keeps gossiping.  Once a fresh enclave
is restored (sealed-storage reload or re-attestation, driven by
:class:`~repro.core.recovery.EnclaveRecoveryManager`), the node *promotes*
itself back and resumes trusted swaps and eviction.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.brahms.config import BrahmsConfig
from repro.brahms.countmin import StreamUnbiaser
from repro.brahms.node import BrahmsNode, PulledBatch
from repro.core.auth import AuthScheme, KEY_BYTES
from repro.core.config import RapteeConfig
from repro.core.trusted_exchange import apply_swap, build_offer
from repro.sgx.cycles import CycleAccountant, PeerSamplingFunction
from repro.sgx.enclave import EnclaveHost
from repro.sgx.errors import EnclaveUnavailable
from repro.sim.engine import RoundContext
from repro.sim.messages import (
    AuthChallenge,
    AuthConfirm,
    AuthResponse,
    AuthResult,
    Message,
    PullReply,
    TrustedSwapReply,
    TrustedSwapRequest,
)
from repro.sim.node import NodeKind

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.membership.log import NodeMembershipView

__all__ = ["RapteeNode"]


class RapteeNode(BrahmsNode):
    """A node executing the RAPTEE-modified Brahms."""

    def __init__(
        self,
        node_id: int,
        kind: NodeKind,
        config: BrahmsConfig,
        raptee_config: RapteeConfig,
        rng: random.Random,
        enclave: Optional[EnclaveHost] = None,
        cycle_accountant: Optional[CycleAccountant] = None,
    ):
        super().__init__(node_id, kind, config, rng, cycle_accountant)
        self.raptee_config = raptee_config
        self._scheme = AuthScheme(raptee_config.auth_mode)
        self._trusted_role = kind.runs_trusted_code
        self.degraded = False
        if self._trusted_role:
            if enclave is None:
                raise ValueError("trusted nodes require a provisioned enclave")
            if not enclave.is_provisioned():
                raise ValueError("enclave must be provisioned with the group key")
            self.enclave = enclave
            self._own_key: Optional[bytes] = None
        else:
            if enclave is not None:
                raise ValueError("untrusted nodes must not carry an enclave")
            self.enclave = None
            self._own_key = rng.getrandbits(KEY_BYTES * 8).to_bytes(KEY_BYTES, "big")

        self._unbiaser = (
            StreamUnbiaser(rng) if raptee_config.sketch_unbias_enabled else None
        )
        # Per-round authentication and contact bookkeeping.
        self._pending_auth: Dict[int, Tuple[bytes, bytes]] = {}
        self._trusted_sessions: Set[int] = set()
        self._id_contacts = 0          # sessions in which this node received IDs
        self._trusted_id_contacts = 0  # ... of which the peer proved trusted
        self.last_eviction_rate: Optional[float] = None
        self.evicted_ids_total = 0
        self.trusted_exchanges_total = 0
        self.degradations_total = 0
        self.promotions_total = 0
        # Dynamic trusted-set membership (None = legacy static deployment).
        self.membership_view: Optional["NodeMembershipView"] = None
        self.enclave_epoch = 0
        self._round_exchange_epochs: List[int] = []

    # -- trusted status and enclave failure handling -----------------------------

    @property
    def trusted(self) -> bool:
        """Whether the node *currently* operates as a trusted node.

        A trusted-role node that lost its enclave is ``trusted == False``
        until re-promoted — observationally an honest untrusted node.
        """
        return self._trusted_role and not self.degraded

    @property
    def trusted_role(self) -> bool:
        """Whether the node was deployed as a trusted node (never changes)."""
        return self._trusted_role

    def note_enclave_failure(self) -> None:
        """Degrade to honest-untrusted behaviour after an enclave failure.

        Idempotent.  The node draws a private random auth key (exactly what
        honest untrusted nodes carry) so handshakes keep their shape but
        never prove knowledge of K_T.
        """
        if not self._trusted_role or self.degraded:
            return
        self.degraded = True
        self.degradations_total += 1
        if self.telemetry is not None:
            self.telemetry.counter("raptee.degradations").inc()
            self.telemetry.event("node.degrade", node=self.node_id)
        if self._own_key is None:
            self._own_key = self.rng.getrandbits(KEY_BYTES * 8).to_bytes(
                KEY_BYTES, "big"
            )

    def promote(self, enclave: EnclaveHost) -> None:
        """Resume trusted operation with a restored, provisioned enclave."""
        if not self._trusted_role:
            raise ValueError("only trusted-role nodes can be promoted")
        if enclave is None or not enclave.is_provisioned():
            raise ValueError("promotion requires a provisioned enclave")
        self.enclave = enclave
        if self.telemetry is not None:
            # Freshly reloaded hosts predate wiring; adopt them here so
            # their ECALLs keep being counted after recovery.
            enclave.set_telemetry(self.telemetry, self.node_id)
        if self.membership_view is not None:
            # The restored enclave may hold a rotated key: re-cache its
            # epoch so the §IV-B membership gate judges the right one.
            self.refresh_enclave_epoch()
        if self.degraded:
            self.degraded = False
            self.promotions_total += 1
            if self.telemetry is not None:
                self.telemetry.counter("raptee.promotions").inc()
                self.telemetry.event("node.promote", node=self.node_id)

    # -- dynamic trusted-set membership ------------------------------------------

    def set_membership_view(self, view: "NodeMembershipView") -> None:
        """Attach this node's verified membership-log view (see
        :mod:`repro.membership`)."""
        if not self._trusted_role:
            raise ValueError("only trusted-role nodes track membership")
        self.membership_view = view

    def refresh_enclave_epoch(self) -> None:
        """Cache the enclave's group-key epoch (one ECALL).

        The cache is what the per-exchange gate consults — an ECALL per
        swap would distort the paper's cycle accounting.
        """
        self.enclave_epoch = self.enclave.group_epoch()

    @property
    def round_exchange_epochs(self) -> Tuple[int, ...]:
        """Epochs under which this node completed swaps this round."""
        return tuple(self._round_exchange_epochs)

    def _membership_permits(self, peer_id: int) -> bool:
        """§IV-B gate extension: both ends current members on the current
        epoch.  Without a membership view (the legacy deployment) the gate
        is a constant True."""
        view = self.membership_view
        if view is None:
            return True
        return view.permits(self.node_id, self.enclave_epoch) and view.permits(
            peer_id, self.enclave_epoch
        )

    # -- round lifecycle -------------------------------------------------------

    def begin_round(self, ctx: RoundContext) -> None:
        super().begin_round(ctx)
        self._pending_auth = {}
        self._trusted_sessions = set()
        self._id_contacts = 0
        self._trusted_id_contacts = 0
        self._round_exchange_epochs = []

    # -- active pull with mutual authentication ----------------------------------

    def _do_pull(self, ctx: RoundContext, target: int) -> Optional[PulledBatch]:
        if self.cycles is not None:
            self._charge(PeerSamplingFunction.PULL_REQUEST)

        # §IV-A handshake, initiator side.
        r_a = AuthScheme.make_challenge(self.rng)
        response = ctx.request(
            self.node_id, target, AuthChallenge(sender=self.node_id, r_a=r_a)
        )
        if not isinstance(response, AuthResponse):
            return None
        peer_trusted = False
        confirm_proof: Optional[bytes] = None
        if self.trusted:
            try:
                peer_trusted = self.enclave.auth_check_response(
                    r_a, response.r_b, response.proof
                )
                confirm_proof = self.enclave.auth_confirm(r_a, response.r_b)
            except EnclaveUnavailable:
                # The enclave died mid-handshake: degrade and finish the
                # session as an honest node would (peer no longer provable).
                self.note_enclave_failure()
                peer_trusted = False
                confirm_proof = None
        if confirm_proof is None:
            peer_trusted = self._scheme.check_response(
                self._own_key, r_a, response.r_b, response.proof
            )
            confirm_proof = self._scheme.confirm(self._own_key, r_a, response.r_b)
        ctx.request(
            self.node_id, target, AuthConfirm(sender=self.node_id, proof=confirm_proof)
        )

        # Ordinary Brahms pull (all node types issue it identically — a
        # trusted node that skipped it would be trivially identifiable).
        reply = ctx.request(self.node_id, target, self._pull_request)
        batch: Optional[PulledBatch] = None
        if isinstance(reply, PullReply):
            batch = PulledBatch(
                source=target,
                ids=reply.ids,
                trusted_source=self.trusted and peer_trusted,
            )
            self._id_contacts += 1
            if batch.trusted_source:
                self._trusted_id_contacts += 1

        # §IV-B trusted communication, initiator side.
        if (
            self.trusted
            and peer_trusted
            and self.raptee_config.trusted_exchange_enabled
            and self._membership_permits(target)
        ):
            self._run_trusted_swap(ctx, target)

        return batch

    def _run_trusted_swap(self, ctx: RoundContext, target: int) -> None:
        self._charge(PeerSamplingFunction.TRUSTED_COMMUNICATIONS)
        offer = build_offer(self.view, self.node_id, self.rng, include_self=True)
        swap_reply = ctx.request(
            self.node_id,
            target,
            TrustedSwapRequest(sender=self.node_id, offered=offer.offered),
        )
        if not isinstance(swap_reply, TrustedSwapReply):
            return
        self.view = apply_swap(self.view, offer, swap_reply.offered, self.node_id)
        self._pulled.append(
            PulledBatch(source=target, ids=swap_reply.offered, trusted_source=True)
        )
        self.known.update(swap_reply.offered)
        self.trusted_exchanges_total += 1
        self._round_exchange_epochs.append(self.enclave_epoch)

    # -- passive side ---------------------------------------------------------------

    def handle_request(self, message: Message) -> Optional[Message]:
        if isinstance(message, AuthChallenge):
            r_b: Optional[bytes] = None
            proof = b""
            if self.trusted:
                try:
                    r_b, proof = self.enclave.auth_respond(message.r_a)
                except EnclaveUnavailable:
                    self.note_enclave_failure()
            if r_b is None:
                parts = self._scheme.respond(self._own_key, message.r_a, self.rng)
                r_b, proof = parts.r_b, parts.proof
            self._pending_auth[message.sender] = (message.r_a, r_b)
            return AuthResponse(sender=self.node_id, r_b=r_b, proof=proof)

        if isinstance(message, AuthConfirm):
            pending = self._pending_auth.pop(message.sender, None)
            mutual = False
            if pending is not None:
                r_a, r_b = pending
                if self.trusted:
                    try:
                        mutual = self.enclave.auth_check_confirm(
                            r_a, r_b, message.proof
                        )
                    except EnclaveUnavailable:
                        # A degraded responder can no longer verify K_T
                        # proofs, so the session is not mutually trusted.
                        self.note_enclave_failure()
                        mutual = False
                else:
                    mutual = self._scheme.check_confirm(
                        self._own_key, r_a, r_b, message.proof
                    )
            if mutual:
                self._trusted_sessions.add(message.sender)
            return AuthResult(sender=self.node_id, mutual=mutual)

        if isinstance(message, TrustedSwapRequest):
            return self._handle_trusted_swap(message)

        return super().handle_request(message)

    def _handle_trusted_swap(
        self, message: TrustedSwapRequest
    ) -> Optional[TrustedSwapReply]:
        """Responder side of §IV-B.

        Only honoured for peers that proved knowledge of K_T *this round*
        (the ``AuthConfirm`` check) — a Byzantine node that merely observed
        a swap message cannot replay its way into one.
        """
        if (
            not self.trusted
            or not self.raptee_config.trusted_exchange_enabled
            or message.sender not in self._trusted_sessions
            or not self._membership_permits(message.sender)
        ):
            return None
        self._charge(PeerSamplingFunction.TRUSTED_COMMUNICATIONS)
        offer = build_offer(self.view, self.node_id, self.rng, include_self=False)
        self.view = apply_swap(self.view, offer, message.offered, self.node_id)
        self._pulled.append(
            PulledBatch(source=message.sender, ids=message.offered, trusted_source=True)
        )
        self.known.update(message.offered)
        self._id_contacts += 1
        self._trusted_id_contacts += 1
        self.trusted_exchanges_total += 1
        self._round_exchange_epochs.append(self.enclave_epoch)
        return TrustedSwapReply(sender=self.node_id, offered=offer.offered)

    # -- Byzantine eviction (§IV-C) ----------------------------------------------

    def _unbias(self, ids: List[int]) -> List[int]:
        """Optional count-min-sketch stream flattening (future work, §VIII)."""
        if self._unbiaser is None or not ids:
            return ids
        self._unbiaser.observe(ids)
        return self._unbiaser.unbias(ids)

    def _effective_pulled_ids(self) -> List[int]:
        if not self.trusted or not self.raptee_config.eviction_enabled:
            return self._unbias(super()._effective_pulled_ids())

        trusted_ids: List[int] = []
        untrusted_ids: List[int] = []
        for batch in self._pulled:
            (trusted_ids if batch.trusted_source else untrusted_ids).extend(batch.ids)

        trusted_share = (
            self._trusted_id_contacts / self._id_contacts if self._id_contacts else 0.0
        )
        rate = self.raptee_config.eviction.rate(trusted_share)
        self.last_eviction_rate = rate

        untrusted_ids = self._unbias(untrusted_ids)
        keep_count = len(untrusted_ids) - int(round(rate * len(untrusted_ids)))
        self.evicted_ids_total += len(untrusted_ids) - keep_count
        if keep_count <= 0:
            kept: List[int] = []
        elif keep_count >= len(untrusted_ids):
            kept = untrusted_ids
        else:
            kept = self.rng.sample(untrusted_ids, keep_count)
        return trusted_ids + kept
