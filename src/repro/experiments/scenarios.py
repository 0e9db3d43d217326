"""Scenario assembly: from a scenario spec to a ready-to-run simulation.

A :class:`TopologySpec` captures the paper's experimental knobs — system
size N, Byzantine fraction f, trusted fraction t, injected poisoned-trusted
fraction, view-size ratio.  Every simulation is built from a
:class:`~repro.scenario.spec.ScenarioSpec` by
:func:`repro.scenario.compile.compile_spec`, the only caller of the two
assembly functions here:

* :func:`_build_brahms` — the baseline: f Byzantine identities against
  pure-Brahms honest nodes (§II, Fig. 3);
* :func:`_build_raptee` — the full system: honest RAPTEE nodes,
  provisioned trusted nodes, optional poisoned-trusted injections, and the
  Byzantine population under one global coordinator (§V-B).

Node counts are ``int(round(N · fraction))`` — Python rounds halves to
even, so N = 100 at f = 0.125 gives 12 Byzantine nodes, not 13; every node
(including Byzantine ones, which ignore it) receives a uniform bootstrap
view.

Randomness discipline: protocol-level randomness (target selection, nonces,
shuffles) uses Mersenne-Twister generators seeded through the SHA-256
label-derivation of :func:`repro.crypto.prng.derive_seed`, so every node's
stream is independent and the whole run is reproducible from one integer
seed.  Key material (group key, device keys) stays on the slower
:class:`~repro.crypto.prng.Sha256Prng`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.adversary.byzantine import ByzantineNode
from repro.adversary.coordinator import AdversaryCoordinator
from repro.adversary.poisoned import build_poisoned_trusted_node
from repro.brahms.config import BYZANTINE_PUSH_LIMIT_MULTIPLIER, BrahmsConfig
from repro.brahms.node import BrahmsNode
from repro.core.config import RapteeConfig
from repro.core.deployment import TrustedInfrastructure
from repro.core.node import RapteeNode
from repro.crypto.prng import Sha256Prng, derive_seed
from repro.membership.director import MembershipDirector
from repro.membership.service import ReplicatedProvisioningService
from repro.sgx.cycles import CycleAccountant, CycleModel
from repro.sim.bootstrap import UniformBootstrap
from repro.sim.engine import Simulation
from repro.sim.network import Network, NetworkStats
from repro.sim.node import NodeKind
from repro.sim.observers import DiscoveryObserver, RoundRecord, ViewTraceObserver

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.events.engine import EventEngine
    from repro.faults.injector import FaultInjector
    from repro.scenario.spec import ScenarioSpec
    from repro.telemetry.harness import TelemetryObserver
    from repro.telemetry.hub import Telemetry

__all__ = [
    "TopologySpec",
    "SimulationBundle",
    "PollutionProbe",
]


def _mt(seed: int, *labels: object) -> random.Random:
    """A fast, independent, reproducible Mersenne-Twister stream."""
    return random.Random(derive_seed(seed, *labels))


@dataclass(frozen=True)
class TopologySpec:
    """Population shape of one experiment.

    The paper's scale is N = 10,000 with view size 200 (ratio 0.02); the
    default ratio here is higher so that scaled-down populations keep
    statistically meaningful views (see DESIGN.md §5).
    """

    n_nodes: int = 300
    byzantine_fraction: float = 0.10
    trusted_fraction: float = 0.0
    poisoned_fraction: float = 0.0
    view_ratio: float = 0.06
    loss_rate: float = 0.0
    #: Count every request and reply as AES-CTR-encrypted, as the deployed
    #: system encrypts all pairwise traffic (§III-B); the adversary never
    #: reads the wire, so nothing is ciphered (``repro.sim.network``).  Off
    #: by default: it changes no protocol-visible behaviour.
    transport_encryption: bool = False

    def __post_init__(self) -> None:
        if self.n_nodes < 10:
            raise ValueError("n_nodes must be at least 10")
        for name in ("byzantine_fraction", "trusted_fraction", "poisoned_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        if self.byzantine_fraction + self.trusted_fraction >= 1.0:
            raise ValueError("Byzantine + trusted fractions must leave honest nodes")
        # The population is built from the rounded counts, which can use up
        # every node even when the fractions sum below 1.
        if self.n_honest < 1:
            raise ValueError(
                f"n_nodes {self.n_nodes} rounds to {self.n_byzantine} Byzantine "
                f"+ {self.n_trusted} trusted nodes, leaving {self.n_honest} "
                f"honest; at least one honest node is required"
            )
        if not 0.0 < self.view_ratio < 1.0:
            raise ValueError("view_ratio must be in (0, 1)")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        # The derived view (BrahmsConfig.scaled: max(8, round(N·ratio)))
        # must stay below N, or the uniform bootstrap would be asked for
        # more distinct peers than exist and seed views with duplicates.
        derived_view = max(8, int(round(self.n_nodes * self.view_ratio)))
        if derived_view >= self.n_nodes:
            raise ValueError(
                f"view_ratio {self.view_ratio} derives view size {derived_view} "
                f">= n_nodes {self.n_nodes}; views must be smaller than the "
                f"population"
            )

    @property
    def n_byzantine(self) -> int:
        return int(round(self.n_nodes * self.byzantine_fraction))

    @property
    def n_trusted(self) -> int:
        return int(round(self.n_nodes * self.trusted_fraction))

    @property
    def n_poisoned(self) -> int:
        """Poisoned injections are *additional* nodes (§VI-B adds them)."""
        return int(round(self.n_nodes * self.poisoned_fraction))

    @property
    def n_honest(self) -> int:
        return self.n_nodes - self.n_byzantine - self.n_trusted

    def brahms_config(self) -> BrahmsConfig:
        return BrahmsConfig().scaled(self.n_nodes, self.view_ratio)


@dataclass
class SimulationBundle:
    """One per-node run: the population, its observers and its clock.

    :func:`~repro.scenario.compile.compile_spec` builds it; each ``wire_*``
    call changes it in place and returns it (telemetry sets ``telemetry``,
    faults sets ``faults``, events replaces ``engine``), and :meth:`run`
    advances whatever ``engine`` is.  A finished run is read through
    ``telemetry``, ``stats``, ``view_size``, ``view_records``,
    ``discovery_round`` and ``all_views()``, which a
    :class:`~repro.shard.engine.ShardSimulation` has under the same names.
    """

    simulation: Simulation
    trace: ViewTraceObserver
    discovery: DiscoveryObserver
    #: The scenario compiled into this bundle; ``spec.rounds`` is the round
    #: target a checkpointed run (:mod:`repro.snapshot`) runs to.
    spec: "ScenarioSpec"
    #: l1 the nodes run with: ``spec.brahms_config.view_size``.
    view_size: int
    coordinator: Optional[AdversaryCoordinator] = None
    infrastructure: Optional[TrustedInfrastructure] = None
    trusted_ids: frozenset = frozenset()
    cycle_accountants: Dict[int, CycleAccountant] = field(default_factory=dict)
    #: Set by :func:`repro.telemetry.harness.wire_telemetry`; when present,
    #: the per-round telemetry observer rides along on every run.
    telemetry: Optional["Telemetry"] = None
    telemetry_observer: Optional["TelemetryObserver"] = None
    #: Dynamic trusted-set membership (built when the scenario is given a
    #: :class:`~repro.membership.service.MembershipConfig`); ``None`` keeps
    #: the legacy static trusted set, byte-identical with earlier releases.
    membership: Optional[MembershipDirector] = None
    #: Set by :func:`repro.faults.harness.wire_faults`: the attached
    #: injector, whose ``recovery`` is the enclave recovery manager.
    faults: Optional["FaultInjector"] = None
    #: The clock :meth:`run` advances: ``simulation`` itself, or the
    #: :class:`~repro.events.engine.EventEngine` that
    #: :func:`repro.events.harness.wire_events` attached.
    engine: Union[Simulation, "EventEngine"] = field(init=False)

    def __post_init__(self) -> None:
        self.engine = self.simulation

    @property
    def stats(self) -> NetworkStats:
        return self.simulation.network.stats

    @property
    def view_records(self) -> List[RoundRecord]:
        return self.trace.records

    @property
    def discovery_round(self) -> int:
        return self.discovery.all_discovered_round(self.simulation)

    def all_views(self) -> Dict[int, Tuple[int, ...]]:
        """Every node's current view, Byzantine ids included, in id order."""
        return {
            node_id: tuple(node.view_ids())
            for node_id, node in sorted(self.simulation.nodes.items())
        }

    def observer_stack(self, extra_observers: Sequence = ()) -> List:
        """The per-round observer list every engine drives: metric
        observers first, the telemetry observer, then any extras."""
        observers = [self.trace, self.discovery]
        if self.telemetry_observer is not None:
            observers.append(self.telemetry_observer)
        observers.extend(extra_observers)
        return observers

    def run(self, rounds: int, extra_observers: Sequence = ()) -> None:
        """Advance ``rounds`` rounds on ``engine`` with the observer stack."""
        self.engine.run(rounds, observers=self.observer_stack(extra_observers))


def _seed_all_views(nodes: Sequence, membership: List[int], view_size: int,
                    rng: random.Random, skip_kinds: Sequence[NodeKind] = ()) -> None:
    bootstrap = UniformBootstrap(membership, rng)
    for node in nodes:
        if node.kind in skip_kinds:
            continue
        node.seed_view(bootstrap.initial_view(node.node_id, view_size))


class PollutionProbe:
    """The adversary's v-estimate over a live simulation.

    A class rather than a closure so a fully-wired bundle stays picklable —
    :mod:`repro.snapshot` serializes the whole object graph, and the probe
    rides along with its simulation reference intact.
    """

    def __init__(self, simulation: Simulation, byzantine: frozenset):
        self._simulation = simulation
        self._byzantine = byzantine

    def __call__(self) -> float:
        total = 0.0
        counted = 0
        for node in self._simulation.correct_nodes():
            view = node.view_ids()
            if view:
                total += sum(1 for peer in view if peer in self._byzantine) / len(view)
                counted += 1
        return total / counted if counted else 0.0


def _bundle(
    scenario: "ScenarioSpec", nodes: List, coordinator: AdversaryCoordinator,
    **trusted_side,
) -> SimulationBundle:
    """Put an assembled population on the network and the round engine,
    give the adversary its v-estimate (see AdversaryCoordinator docs) and
    attach the metric observers."""
    spec, seed = scenario.topology, scenario.seed
    network = Network(_mt(seed, "network"), loss_rate=spec.loss_rate,
                      encrypt=spec.transport_encryption)
    simulation = Simulation(network, nodes, _mt(seed, "engine"))
    coordinator.set_pollution_probe(
        PollutionProbe(simulation, frozenset(coordinator.byzantine_ids))
    )
    return SimulationBundle(
        simulation=simulation,
        trace=ViewTraceObserver(),
        discovery=DiscoveryObserver(),
        spec=scenario,
        view_size=scenario.brahms_config.view_size,
        coordinator=coordinator,
        **trusted_side,
    )


def _adversary(
    scenario: "ScenarioSpec", config: BrahmsConfig, correct_ids: List[int]
) -> Tuple[AdversaryCoordinator, List[ByzantineNode]]:
    """The global coordinator and the Byzantine identities it drives (the
    lowest ids of the banded layout), for either protocol."""
    seed, options = scenario.seed, scenario.raptee_options
    byzantine_ids = list(range(scenario.topology.n_byzantine))
    coordinator = AdversaryCoordinator(
        byzantine_ids=byzantine_ids,
        correct_ids=correct_ids,
        push_limit=config.effective_push_limit * BYZANTINE_PUSH_LIMIT_MULTIPLIER,
        rng=_mt(seed, "adversary"),
        strategy=scenario.adversary_strategy,
        expected_pushes=config.alpha_count,
    )
    return coordinator, [
        ByzantineNode(
            node_id,
            coordinator,
            view_size=config.view_size,
            rng=_mt(seed, "byz", node_id),
            probe_pulls=options.probe_pulls,
            auth_mode=options.auth_mode,
        )
        for node_id in byzantine_ids
    ]


def _build_brahms(scenario: "ScenarioSpec", config: BrahmsConfig) -> SimulationBundle:
    """Assemble the Brahms population of a validated scenario spec; every
    honest node runs ``config`` (the spec's ``brahms_config``)."""
    spec, seed = scenario.topology, scenario.seed
    correct_ids = list(range(spec.n_byzantine, spec.n_nodes))
    coordinator, nodes = _adversary(scenario, config, correct_ids)
    nodes.extend(
        BrahmsNode(node_id, NodeKind.HONEST, config, _mt(seed, "node", node_id))
        for node_id in correct_ids
    )

    _seed_all_views(nodes, list(range(spec.n_nodes)), config.view_size,
                    _mt(seed, "bootstrap"))
    return _bundle(scenario, nodes, coordinator)


def _raptee_config(scenario: "ScenarioSpec") -> RapteeConfig:
    """The one node configuration of a RAPTEE scenario: its Brahms
    parameters plus the §IV switches of its ``raptee`` section."""
    options, membership = scenario.raptee_options, scenario.membership
    return RapteeConfig(
        brahms=scenario.brahms_config,
        eviction=options.eviction,
        auth_mode=options.auth_mode,
        trusted_exchange_enabled=options.trusted_exchange_enabled,
        eviction_enabled=options.eviction_enabled,
        sketch_unbias_enabled=options.sketch_unbias_enabled,
        membership_enabled=membership is not None and membership.enabled,
    )


def _build_raptee(scenario: "ScenarioSpec", raptee_config: RapteeConfig) -> SimulationBundle:
    """Assemble the RAPTEE deployment of a validated scenario spec; every
    correct node runs ``raptee_config`` (see :func:`_raptee_config`)."""
    spec, seed = scenario.topology, scenario.seed
    options, membership = scenario.raptee_options, scenario.membership
    membership_on = raptee_config.membership_enabled
    brahms_config = raptee_config.brahms
    infrastructure = TrustedInfrastructure(
        Sha256Prng(derive_seed(seed, "tcb")),
        auth_mode=options.auth_mode,
        provisioning_key_bits=options.provisioning_key_bits,
    )
    director: Optional[MembershipDirector] = None
    if membership_on:
        service = ReplicatedProvisioningService(
            infrastructure,
            Sha256Prng(derive_seed(seed, "membership", "service")),
            replica_count=membership.replica_count,
        )
        infrastructure.enable_membership(service)
        director = MembershipDirector(
            service,
            membership,
            _mt(seed, "membership", "director"),
            seed,
            raptee_config=raptee_config,
        )
    cycle_model = CycleModel() if options.with_cycle_accounting else None

    byzantine_ids = list(range(spec.n_byzantine))
    trusted_ids = list(range(spec.n_byzantine, spec.n_byzantine + spec.n_trusted))
    honest_ids = list(range(spec.n_byzantine + spec.n_trusted, spec.n_nodes))
    poisoned_ids = list(range(spec.n_nodes, spec.n_nodes + spec.n_poisoned))
    correct_ids = trusted_ids + honest_ids + poisoned_ids

    coordinator, nodes = _adversary(scenario, brahms_config, correct_ids)
    cycle_accountants: Dict[int, CycleAccountant] = {}

    def _accountant(node_id: int) -> Optional[CycleAccountant]:
        if cycle_model is None:
            return None
        accountant = CycleAccountant(
            cycle_model,
            _mt(seed, "cycles", node_id),
            force_standard=(options.cycle_mode == "standard"),
        )
        cycle_accountants[node_id] = accountant
        return accountant

    for node_id in trusted_ids:
        enclave, _device = infrastructure.new_trusted_enclave(node_id)
        nodes.append(
            RapteeNode(
                node_id,
                NodeKind.TRUSTED,
                raptee_config,
                _mt(seed, "node", node_id),
                enclave=enclave,
                cycle_accountant=_accountant(node_id),
            )
        )
    nodes.extend(
        RapteeNode(
            node_id,
            NodeKind.HONEST,
            raptee_config,
            _mt(seed, "node", node_id),
            cycle_accountant=_accountant(node_id),
        )
        for node_id in honest_ids
    )
    for node_id in poisoned_ids:
        nodes.append(
            build_poisoned_trusted_node(
                node_id,
                raptee_config,
                infrastructure,
                byzantine_ids,
                _mt(seed, "poisoned", node_id),
                join_ids=trusted_ids + honest_ids,
            )
        )

    # Poisoned nodes keep their adversarial bootstrap; everyone else gets a
    # uniform sample over the *base* membership (injected nodes join later,
    # so they are not part of anyone's initial sample).
    _seed_all_views(
        nodes,
        list(range(spec.n_nodes)),
        brahms_config.view_size,
        _mt(seed, "bootstrap"),
        skip_kinds=(NodeKind.POISONED_TRUSTED,),
    )
    if director is not None:
        # All bootstrap-time trusted devices (poisoned injections included —
        # they passed attestation legitimately) enter the roster without log
        # records; correct trusted nodes get epoch-checked membership views.
        service = director.service
        for node_id in trusted_ids + poisoned_ids:
            service.bootstrap_member(node_id)
        for node in nodes:
            if (
                isinstance(node, RapteeNode)
                and node.node_id in trusted_ids
                and node.trusted_role
            ):
                view = service.new_view(node.node_id)
                node.set_membership_view(view)
                node.refresh_enclave_epoch()
                director.register_view(node.node_id, view)
    return _bundle(
        scenario,
        nodes,
        coordinator,
        infrastructure=infrastructure,
        trusted_ids=frozenset(trusted_ids) | frozenset(poisoned_ids),
        cycle_accountants=cycle_accountants,
        membership=director,
    )
