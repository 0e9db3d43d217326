"""Declarative fault plans: what breaks, where, and when.

A :class:`FaultPlan` is a validated, immutable list of fault declarations
spanning the three layers the simulator can break:

* **network** — :class:`LinkFault` (per-link, per-direction loss),
  :class:`PartitionFault` (cut between two node groups),
  :class:`EclipseFault` (isolate a victim except for chosen peers),
  :class:`LossBurstFault` (elevated global loss for a round burst);
* **node** — :class:`CrashRestartFault` (node down for k rounds, enclave
  state lost), :class:`OmissionFault` (alive but silently dropping its own
  sends);
* **SGX** — :class:`AttestationOutageFault` (the attestation service
  refuses quotes for a window), :class:`ProvisioningFlakinessFault`
  (probabilistic provisioning refusals), :class:`EnclaveCrashFault`,
  :class:`SealedBlobCorruptionFault`, :class:`DeviceRevocationFault`;
* **membership** (dynamic trusted sets, :mod:`repro.membership`) —
  :class:`ProvisionerReplicaCrashFault` (one replica of the replicated
  provisioning service goes down), :class:`EpochRotationFault` (a forced
  group-key rotation — combine with :class:`PartitionFault` for the
  rotation-during-partition scenario), :class:`RevocationStormFault`
  (several trusted devices revoked in one round).

Plans are pure data — the :mod:`repro.faults.injector` interprets them
against a running simulation, and the shard engine runs the loss-burst
and crash-restart faults itself.  All probabilistic faults draw from the
injector's own seeded RNG, never from the protocol streams, so adding a
fault plan perturbs a run only through the faults themselves.

:func:`validate_faults` is the one schedule check of every engine: each
fault's own ``validate`` plus the rule between faults (one node's
crash-restart windows never overlap).  :class:`FaultPlan`, the scenario
spec's loader and :class:`~repro.shard.state.ShardConfig` all call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Sequence, Tuple

__all__ = [
    "RoundWindow",
    "Fault",
    "LinkFault",
    "PartitionFault",
    "EclipseFault",
    "LossBurstFault",
    "CrashRestartFault",
    "OmissionFault",
    "AttestationOutageFault",
    "ProvisioningFlakinessFault",
    "EnclaveCrashFault",
    "SealedBlobCorruptionFault",
    "DeviceRevocationFault",
    "ProvisionerReplicaCrashFault",
    "EpochRotationFault",
    "RevocationStormFault",
    "FaultPlan",
    "FaultPlanError",
    "validate_faults",
]


@dataclass(frozen=True)
class RoundWindow:
    """Inclusive range of simulation rounds a fault is active in."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 1:
            raise ValueError("fault windows start at round 1")
        if self.end < self.start:
            raise ValueError("window end must be >= start")

    def covers(self, round_number: int) -> bool:
        return self.start <= round_number <= self.end


@dataclass(frozen=True)
class Fault:
    """Base class; concrete faults add their parameters."""

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent parameters."""


def _check_rate(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")


@dataclass(frozen=True)
class LinkFault(Fault):
    """Per-link loss override for one direction (or both)."""

    src: int
    dst: int
    window: RoundWindow
    loss_rate: float = 1.0
    bidirectional: bool = False

    def validate(self) -> None:
        _check_rate("loss_rate", self.loss_rate)
        if self.src == self.dst:
            raise ValueError("a link fault needs two distinct endpoints")


@dataclass(frozen=True)
class PartitionFault(Fault):
    """Cut every message between two disjoint node groups."""

    group_a: FrozenSet[int]
    group_b: FrozenSet[int]
    window: RoundWindow

    def validate(self) -> None:
        if not self.group_a or not self.group_b:
            raise ValueError("partition groups must be non-empty")
        if self.group_a & self.group_b:
            raise ValueError("partition groups must be disjoint")


@dataclass(frozen=True)
class EclipseFault(Fault):
    """Isolate one victim: only traffic with ``allowed`` peers survives."""

    victim: int
    window: RoundWindow
    allowed: FrozenSet[int] = frozenset()

    def validate(self) -> None:
        if self.victim in self.allowed:
            raise ValueError("the victim cannot be its own allowed peer")


@dataclass(frozen=True)
class LossBurstFault(Fault):
    """Elevated message loss on every link during the window."""

    window: RoundWindow
    loss_rate: float

    def validate(self) -> None:
        _check_rate("loss_rate", self.loss_rate)


@dataclass(frozen=True)
class CrashRestartFault(Fault):
    """Node goes down at ``at_round`` and comes back ``down_rounds`` later.

    With ``crash_enclave`` (the default for trusted nodes) the in-memory
    enclave dies with the process — on restart the node is degraded until
    the recovery manager restores K_T from sealed storage or re-attests.
    """

    node_id: int
    at_round: int
    down_rounds: int
    crash_enclave: bool = True

    def validate(self) -> None:
        if self.node_id < 0:
            raise ValueError("node_id must be non-negative")
        if self.at_round < 1:
            raise ValueError("at_round must be >= 1")
        if self.down_rounds < 1:
            raise ValueError("down_rounds must be >= 1")


@dataclass(frozen=True)
class OmissionFault(Fault):
    """Node stays alive but silently drops its own outgoing messages."""

    node_id: int
    window: RoundWindow
    drop_rate: float = 1.0

    def validate(self) -> None:
        _check_rate("drop_rate", self.drop_rate)


@dataclass(frozen=True)
class AttestationOutageFault(Fault):
    """The attestation service refuses every quote during the window."""

    window: RoundWindow


@dataclass(frozen=True)
class ProvisioningFlakinessFault(Fault):
    """Each provisioning request fails with ``failure_rate`` in the window."""

    window: RoundWindow
    failure_rate: float

    def validate(self) -> None:
        _check_rate("failure_rate", self.failure_rate)


@dataclass(frozen=True)
class EnclaveCrashFault(Fault):
    """The node's enclave instance dies (the host process survives)."""

    node_id: int
    at_round: int

    def validate(self) -> None:
        if self.at_round < 1:
            raise ValueError("at_round must be >= 1")


@dataclass(frozen=True)
class SealedBlobCorruptionFault(Fault):
    """Bit-rot in a node's sealed K_T blob: the next restore must fail."""

    node_id: int
    at_round: int

    def validate(self) -> None:
        if self.at_round < 1:
            raise ValueError("at_round must be >= 1")


@dataclass(frozen=True)
class DeviceRevocationFault(Fault):
    """The attestation authority revokes a node's SGX device mid-run."""

    node_id: int
    at_round: int

    def validate(self) -> None:
        if self.at_round < 1:
            raise ValueError("at_round must be >= 1")


@dataclass(frozen=True)
class ProvisionerReplicaCrashFault(Fault):
    """One replica of the replicated provisioning service goes down.

    ``down_rounds == 0`` means the crash is permanent; otherwise the
    replica is restored (and re-synced to the current epoch) after that
    many rounds.
    """

    replica_id: int
    at_round: int
    down_rounds: int = 0

    def validate(self) -> None:
        if self.replica_id < 0:
            raise ValueError("replica_id must be non-negative")
        if self.at_round < 1:
            raise ValueError("at_round must be >= 1")
        if self.down_rounds < 0:
            raise ValueError("down_rounds must be non-negative")


@dataclass(frozen=True)
class EpochRotationFault(Fault):
    """A forced group-key rotation at a specific round."""

    at_round: int
    reason: str = "scheduled"

    def validate(self) -> None:
        if self.at_round < 1:
            raise ValueError("at_round must be >= 1")
        if not self.reason:
            raise ValueError("reason must be non-empty")


@dataclass(frozen=True)
class RevocationStormFault(Fault):
    """Several trusted devices revoked in the same round."""

    node_ids: Tuple[int, ...]
    at_round: int

    def validate(self) -> None:
        if not self.node_ids:
            raise ValueError("a revocation storm needs at least one node")
        if len(set(self.node_ids)) != len(self.node_ids):
            raise ValueError("node_ids must be distinct")
        if self.at_round < 1:
            raise ValueError("at_round must be >= 1")


#: Fault classes that require a :class:`~repro.core.deployment.TrustedInfrastructure`
#: (and a recovery manager) to be interpretable.
SGX_FAULTS = (
    AttestationOutageFault,
    ProvisioningFlakinessFault,
    EnclaveCrashFault,
    SealedBlobCorruptionFault,
    DeviceRevocationFault,
)

#: Fault classes that additionally require a membership director
#: (:class:`repro.membership.MembershipDirector`) attached to the injector.
MEMBERSHIP_FAULTS = (
    ProvisionerReplicaCrashFault,
    EpochRotationFault,
    RevocationStormFault,
)


class FaultPlanError(ValueError):
    """A fault list that breaks a schedule rule; ``index`` is the position
    of the offending fault."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def validate_faults(faults: Sequence[Fault]) -> None:
    """Check each fault's parameters, then the rule between faults.

    A crash-restart window runs from ``at_round`` to its restart round
    ``at_round + down_rounds`` inclusive: a second crash of the same node
    inside it would revive the node early or race the restart, so no two
    windows of one node may overlap.  Raises :class:`FaultPlanError`
    naming the offending fault (of an overlap, the later window).
    """
    for index, fault in enumerate(faults):
        try:
            fault.validate()
        except ValueError as exc:
            raise FaultPlanError(str(exc), index) from exc
    crashes = sorted(
        (fault.node_id, fault.at_round, index)
        for index, fault in enumerate(faults)
        if isinstance(fault, CrashRestartFault)
    )
    restart_round: Dict[int, int] = {}
    for node_id, at_round, index in crashes:
        if at_round <= restart_round.get(node_id, 0):
            raise FaultPlanError(
                f"crash at round {at_round} overlaps an earlier crash-restart "
                f"window on node {node_id}",
                index,
            )
        restart_round[node_id] = at_round + faults[index].down_rounds


class FaultPlan:
    """An immutable, validated collection of fault declarations."""

    def __init__(self, faults: Iterable[Fault] = ()):
        self._faults: Tuple[Fault, ...] = tuple(faults)
        self.validate()

    @property
    def faults(self) -> Tuple[Fault, ...]:
        return self._faults

    def validate(self) -> None:
        for fault in self.faults:
            if not isinstance(fault, Fault):
                raise TypeError(f"not a fault: {fault!r}")
        validate_faults(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def of_type(self, fault_type: type) -> Tuple[Fault, ...]:
        return tuple(f for f in self.faults if isinstance(f, fault_type))

    @property
    def needs_sgx(self) -> bool:
        return any(isinstance(f, SGX_FAULTS) for f in self.faults)

    @property
    def needs_membership(self) -> bool:
        return any(isinstance(f, MEMBERSHIP_FAULTS) for f in self.faults)
