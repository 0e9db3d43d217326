"""Runtime orchestration of dynamic trusted-set membership.

The :class:`MembershipDirector` is the per-round driver that the fault
injector ticks at the start of every round (before the recovery manager,
so a node degraded here can start re-attesting the same round).  It

1. applies **trusted churn** — seeded join/leave draws that add fresh
   trusted nodes through ``TrustedInfrastructure.new_trusted_enclave`` or
   retire existing ones (optionally forcing a re-key, since a leaver
   still holds the old epoch's key);
2. **enforces the current epoch** — any trusted node whose enclave holds
   a stale or revoked epoch's key is degraded immediately and its sealed
   blob discarded, so the only way back into trusted exchanges is the
   :class:`~repro.core.recovery.EnclaveRecoveryManager` re-attestation
   ladder against the replicated provisioning service;
3. **propagates the membership log** — a seeded handful of nodes sync
   straight from the service, then every trusted node anti-entropies with
   peers from its own Brahms view (skipping links the active fault plan
   cuts), so revocations reach the whole trusted set epidemically; a view
   still missing a record ``staleness_bound - 1`` rounds old then syncs
   from the service, which bounds the lag whatever the gossip reached.

All of the director's randomness comes from its own seeded stream — the
protocol RNGs never see a membership draw, which is what keeps the four
pinned legacy scenarios byte-identical when membership is off.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, TYPE_CHECKING

from repro.core.node import RapteeNode
from repro.crypto.prng import derive_seed
from repro.membership.log import NodeMembershipView
from repro.membership.service import MembershipConfig, ReplicatedProvisioningService
from repro.sgx.errors import AttestationError, ProvisioningError
from repro.sim.node import NodeKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import RapteeConfig
    from repro.core.recovery import EnclaveRecoveryManager
    from repro.faults.injector import FaultInjector
    from repro.sim.engine import Simulation
    from repro.telemetry import Telemetry

__all__ = ["MembershipStats", "MembershipDirector"]


@dataclass
class MembershipStats:
    """Director-side tallies (service-side ones live in telemetry)."""

    joins: int = 0
    failed_joins: int = 0
    leaves: int = 0
    stale_degrades: int = 0
    gossip_syncs: int = 0


class MembershipDirector:
    """Drives churn, epoch enforcement, and log gossip each round."""

    def __init__(
        self,
        service: ReplicatedProvisioningService,
        config: MembershipConfig,
        rng: random.Random,
        seed: int,
        raptee_config: Optional["RapteeConfig"] = None,
    ):
        self.service = service
        self.config = config
        self._rng = rng
        self._seed = seed
        self._raptee_config = raptee_config
        self._views: Dict[int, NodeMembershipView] = {}
        self._injector: Optional["FaultInjector"] = None
        self._recovery: Optional["EnclaveRecoveryManager"] = None
        self._telemetry: Optional["Telemetry"] = None
        self.stats = MembershipStats()

    # -- wiring ---------------------------------------------------------------

    def register_view(self, node_id: int, view: NodeMembershipView) -> None:
        self._views[node_id] = view

    def view(self, node_id: int) -> Optional[NodeMembershipView]:
        return self._views.get(node_id)

    @property
    def views(self) -> Dict[int, NodeMembershipView]:
        """The registered views, keyed by node id (read-only by convention)."""
        return self._views

    def bind(
        self,
        injector: Optional["FaultInjector"] = None,
        recovery: Optional["EnclaveRecoveryManager"] = None,
    ) -> None:
        """Hook into the fault layer: link cuts and permanent revocations."""
        if injector is not None:
            self._injector = injector
        if recovery is not None:
            self._recovery = recovery
            recovery.set_revocation_check(self.service.is_revoked)

    def set_telemetry(self, telemetry: Optional["Telemetry"]) -> None:
        self._telemetry = telemetry
        self.service.set_telemetry(telemetry)

    # -- the per-round tick ---------------------------------------------------

    def tick(self, simulation: "Simulation") -> None:
        round_number = simulation.round_number
        self._apply_trusted_churn(simulation, round_number)
        self._enforce_epochs(simulation)
        self._propagate(simulation, round_number)
        if self._telemetry is not None:
            self._telemetry.gauge("membership.epoch").set(
                self.service.chain.current.number
            )
            self._telemetry.gauge("membership.log_length").set(
                self.service.log.latest_seq
            )

    # -- churn ----------------------------------------------------------------

    def _apply_trusted_churn(
        self, simulation: "Simulation", round_number: int
    ) -> None:
        config = self.config
        if config.leave_rate > 0.0 and self._rng.random() < config.leave_rate:
            candidates = [
                node_id
                for node_id in sorted(self._views)
                if node_id in simulation.nodes
                and simulation.nodes[node_id].alive
                and not self.service.is_revoked(node_id)
            ]
            if len(candidates) > 1:  # never retire the last trusted node
                self.leave_node(
                    simulation, self._rng.choice(candidates), round_number
                )
        if config.join_rate > 0.0 and self._rng.random() < config.join_rate:
            self.join_node(simulation, round_number)

    def join_node(
        self, simulation: "Simulation", round_number: int
    ) -> Optional[RapteeNode]:
        """Provision and insert a brand-new trusted node at runtime.

        Returns ``None`` when the candidate cannot be provisioned right
        now (attestation outage, quorum loss, injected flakiness) — the
        join simply does not happen this round.
        """
        if self._raptee_config is None:
            raise RuntimeError("runtime joins require the RAPTEE node config")
        infrastructure = self.service.infrastructure
        node_id = max(simulation.ever_registered) + 1
        try:
            host, _device = infrastructure.new_trusted_enclave(node_id)
        except (ProvisioningError, AttestationError):
            self.stats.failed_joins += 1
            if self._telemetry is not None:
                self._telemetry.counter("membership.failed_joins").inc()
                self._telemetry.event("membership.join_failed", node=node_id)
            return None
        node = RapteeNode(
            node_id,
            NodeKind.TRUSTED,
            self._raptee_config,
            random.Random(derive_seed(self._seed, "node", node_id)),
            enclave=host,
        )
        # Bootstrap view: a seeded sample of currently alive nodes.
        alive_ids = sorted(
            other.node_id for other in simulation.alive_nodes()
        )
        view_size = self._raptee_config.brahms.view_size
        if alive_ids:
            node.seed_view(
                sorted(self._rng.sample(alive_ids, min(view_size, len(alive_ids))))
            )
        simulation.add_node(node)
        if simulation.telemetry is not None:
            host.set_telemetry(simulation.telemetry, node_id)
        self.service.join(node_id, round_number)
        view = self.service.new_view(node_id)
        node.set_membership_view(view)
        node.refresh_enclave_epoch()
        self.register_view(node_id, view)
        if self._recovery is not None:
            self._recovery.adopt(node)
        self.stats.joins += 1
        return node

    def leave_node(
        self, simulation: "Simulation", node_id: int, round_number: int
    ) -> None:
        """Retire a trusted node (voluntary departure)."""
        self.service.leave(
            node_id, round_number, rotate=self.config.rotate_on_leave
        )
        self._views.pop(node_id, None)
        simulation.remove_node(node_id)
        self.stats.leaves += 1

    # -- epoch enforcement ----------------------------------------------------

    def _enforce_epochs(self, simulation: "Simulation") -> None:
        """Degrade any trusted node holding a stale or revoked epoch key.

        The degraded node's sealed blob is discarded too: the seal wraps
        the *superseded* key, so the rung-1 sealed-restore shortcut must
        not resurrect it — re-attestation against the current epoch is the
        only way back (exactly the ReplicaTEE re-provisioning path).
        """
        current = self.service.chain.current.number
        for node_id in sorted(self._views):
            node = simulation.nodes.get(node_id)
            if node is None or not node.alive:
                continue
            if not isinstance(node, RapteeNode) or not node.trusted_role:
                continue
            if node.degraded:
                continue
            stale = node.enclave_epoch != current
            revoked = self.service.is_revoked(node_id)
            if not (stale or revoked):
                continue
            node.note_enclave_failure()
            if self._recovery is not None:
                self._recovery.discard_sealed_blob(node_id)
            self.stats.stale_degrades += 1
            if self._telemetry is not None:
                self._telemetry.counter("membership.stale_degrades").inc()
                self._telemetry.event(
                    "membership.stale_degrade",
                    node=node_id,
                    held_epoch=node.enclave_epoch,
                    current_epoch=current,
                    revoked=revoked,
                )

    # -- log propagation ------------------------------------------------------

    def _propagate(self, simulation: "Simulation", round_number: int) -> None:
        log = self.service.log
        if log.latest_seq == 0:
            return
        candidates = [
            node_id
            for node_id in sorted(self._views)
            if node_id in simulation.nodes and simulation.nodes[node_id].alive
        ]
        if not candidates:
            return
        # 1. Registration-authority seeding: a few nodes sync directly.
        contacts = min(self.config.service_contacts, len(candidates))
        if contacts:
            for node_id in sorted(self._rng.sample(candidates, contacts)):
                self.stats.gossip_syncs += self._views[node_id].catch_up()
        # 2. Epidemic anti-entropy along each node's own Brahms view.
        for node_id in candidates:
            view = self._views[node_id]
            node = simulation.nodes[node_id]
            contacted = 0
            seen = set()
            for peer_id in node.view_ids():
                if contacted >= self.config.gossip_fanout:
                    break
                if peer_id == node_id or peer_id in seen:
                    continue
                seen.add(peer_id)
                peer_view = self._views.get(peer_id)
                if peer_view is None:
                    continue
                peer = simulation.nodes.get(peer_id)
                if peer is None or not peer.alive:
                    continue
                if self._blocked(node_id, peer_id, round_number):
                    continue
                contacted += 1
                synced = view.sync_with(peer_view) + peer_view.sync_with(view)
                self.stats.gossip_syncs += synced
        # 3. Staleness fallback: a view that has not advanced past a record
        #    for ``staleness_bound - 1`` rounds catches up from the service,
        #    so the bound holds even when no contact or gossip peer reached
        #    it (a node whose view holds no alive trusted peer).
        deadline = round_number - (self.config.staleness_bound - 1)
        for node_id in candidates:
            view = self._views[node_id]
            oldest = log.records_since(view.applied_seq, view.applied_seq + 1)
            if oldest and oldest[0].round_number <= deadline:
                self.stats.gossip_syncs += view.catch_up()

    def _blocked(self, src: int, dst: int, round_number: int) -> bool:
        injector = self._injector
        return injector is not None and injector.blocks(src, dst, round_number)
