"""Canned fault drills: named end-to-end failure scenarios.

A *drill* is a scenario spec — a full RAPTEE deployment plus a
representative fault list computed from its topology — run through
:func:`repro.scenario.run.run_scenario` with the invariant checker
observing, then summarized: what broke and what recovered.  Drills double
as executable documentation (the README walks through one) and as the CI
smoke check for the fault layer
(``python -m repro faults --drill enclave-outage``).

Available drills:

* ``enclave-outage`` — 30 % of trusted enclaves crash mid-run during an
  attestation-service outage, and a third of the victims additionally lose
  their sealed K_T backups.  Exercises degradation to honest-Brahms
  behaviour, sealed-storage restores, backoff through the outage, and
  re-promotion.
* ``partition`` — the correct population splits into two halves for a
  window, under a simultaneous global loss burst.
* ``flaky-provisioning`` — trusted nodes crash-restart with corrupted
  backups while the provisioning service refuses most requests, forcing
  recovery through many retry rounds.
* ``membership-churn`` — dynamic trusted-set membership under compound
  failure: a provisioner replica crashes, a trusted device is revoked
  (forcing a group-key rotation), a scheduled rotation lands *inside* an
  attestation outage, and background join/leave churn runs throughout.
  Exercises quorum failover, epoch enforcement (every trusted node must
  re-attest into the new epoch), revocation propagation through the
  gossiped membership log, and the epoch-exchange invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.analysis.metrics import resilience_from_trace
from repro.experiments.scenarios import TopologySpec
from repro.faults.plan import (
    AttestationOutageFault,
    CrashRestartFault,
    DeviceRevocationFault,
    EnclaveCrashFault,
    EpochRotationFault,
    Fault,
    FaultPlan,
    LossBurstFault,
    PartitionFault,
    ProvisionerReplicaCrashFault,
    ProvisioningFlakinessFault,
    RoundWindow,
    SealedBlobCorruptionFault,
)
from repro.membership import MembershipConfig
from repro.telemetry import TelemetryConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenario.run import ScenarioArtifacts

__all__ = ["DRILLS", "DrillReport", "run_drill"]


@dataclass(frozen=True)
class DrillReport:
    """Outcome of one fault drill."""

    name: str
    nodes: int
    rounds: int
    seed: int
    plan_description: str
    resilience_percent: float
    drops_by_cause: Dict[str, int]
    crashes: int
    restarts: int
    enclave_crashes: int
    degradations: int
    promotions: int
    restores_from_seal: int
    reprovisions: int
    failed_attempts: int
    still_degraded: int
    rounds_checked: int
    violations: int
    # Dynamic trusted-set membership (all zero for legacy drills).
    rotations: int = 0
    revocations: int = 0
    membership_joins: int = 0
    membership_leaves: int = 0
    stale_degrades: int = 0
    current_epoch: int = 0
    #: The full telemetry trace as JSON Lines, when captured — the CI
    #: membership smoke job uploads this as its artifact.
    trace_jsonl: Optional[str] = None

    def render(self) -> str:
        lines = [
            f"fault drill:        {self.name}",
            f"population:         {self.nodes} nodes, {self.rounds} rounds (seed {self.seed})",
            self.plan_description,
            f"messages dropped:   "
            + (", ".join(f"{cause} {count}"
                         for cause, count in sorted(self.drops_by_cause.items()))
               or "none"),
            f"node crashes:       {self.crashes} (restarts {self.restarts})",
            f"enclave crashes:    {self.enclave_crashes}",
            f"degradations:       {self.degradations} "
            f"(promotions back {self.promotions}, still degraded {self.still_degraded})",
            f"sealed restores:    {self.restores_from_seal}",
            f"re-provisionings:   {self.reprovisions} "
            f"(failed attempts {self.failed_attempts})",
            f"byz IDs in views:   {self.resilience_percent:.1f}%",
            f"invariants:         {self.rounds_checked} rounds checked, "
            f"{self.violations} violation(s)",
        ]
        if self.rotations or self.revocations or self.current_epoch:
            lines.extend([
                f"group-key epochs:   {self.rotations} rotation(s), "
                f"final epoch {self.current_epoch}",
                f"membership:         {self.revocations} revocation(s), "
                f"{self.membership_joins} join(s), "
                f"{self.membership_leaves} leave(s), "
                f"{self.stale_degrades} stale-epoch degrade(s)",
            ])
        return "\n".join(lines)


def _trusted_ids(spec: TopologySpec) -> List[int]:
    """Trusted ids under the banded layout: Byzantine first, trusted next."""
    return list(range(spec.n_byzantine, spec.n_byzantine + spec.n_trusted))


def _enclave_outage_plan(spec: TopologySpec, rounds: int) -> List[Fault]:
    trusted = _trusted_ids(spec)
    victims = trusted[: max(1, math.ceil(len(trusted) * 0.30))]
    crash_round = max(2, rounds // 5)
    outage = RoundWindow(crash_round, min(rounds, crash_round + 8))
    faults: List = [AttestationOutageFault(outage)]
    faults.extend(EnclaveCrashFault(victim, crash_round) for victim in victims)
    faults.extend(
        SealedBlobCorruptionFault(victim, crash_round)
        for victim in victims[::3]
    )
    return faults


def _partition_plan(spec: TopologySpec, rounds: int) -> List[Fault]:
    correct = list(range(spec.n_byzantine, spec.n_nodes))
    half = len(correct) // 2
    window = RoundWindow(max(2, rounds // 4), max(2, rounds // 2))
    return [
        PartitionFault(frozenset(correct[:half]), frozenset(correct[half:]), window),
        LossBurstFault(window, 0.10),
    ]


def _flaky_provisioning_plan(spec: TopologySpec, rounds: int) -> List[Fault]:
    trusted = _trusted_ids(spec)
    victims = trusted[: max(1, len(trusted) // 5)]
    crash_round = max(2, rounds // 6)
    faults: List = [
        ProvisioningFlakinessFault(RoundWindow(crash_round, rounds), 0.60),
    ]
    faults.extend(
        CrashRestartFault(victim, crash_round, down_rounds=2)
        for victim in victims
    )
    faults.extend(
        SealedBlobCorruptionFault(victim, crash_round) for victim in victims
    )
    return faults


def _membership_churn_plan(spec: TopologySpec, rounds: int) -> List[Fault]:
    victim = _trusted_ids(spec)[0]
    crash_round = max(2, rounds // 5)
    return [
        # The legacy-primary replica goes down: quorum must hold at 2/3 and
        # the release failover moves to replica 1, deterministically.
        ProvisionerReplicaCrashFault(0, crash_round, down_rounds=6),
        # A trusted device is revoked, forcing an immediate re-key; every
        # other trusted node must re-attest into the new epoch.
        DeviceRevocationFault(victim, crash_round),
        AttestationOutageFault(
            RoundWindow(crash_round + 2, crash_round + 5)
        ),
        # A scheduled rotation lands mid-outage: the whole trusted set is
        # degraded while re-attestation is refused, and must recover
        # through backoff once the outage lifts.
        EpochRotationFault(crash_round + 3),
    ]


DRILLS = {
    "enclave-outage": _enclave_outage_plan,
    "partition": _partition_plan,
    "flaky-provisioning": _flaky_provisioning_plan,
    "membership-churn": _membership_churn_plan,
}

#: Drills whose spec carries a dynamic-membership section.  The churn
#: drill's knobs: background join/leave churn on top of the planned faults,
#: with a leave-triggered re-key.
_DRILL_MEMBERSHIP = {
    "membership-churn": MembershipConfig(
        replica_count=3, join_rate=0.04, leave_rate=0.03
    ),
}


def run_drill(
    name: str,
    nodes: int = 200,
    rounds: int = 50,
    seed: int = 1,
    capture_trace: bool = False,
) -> DrillReport:
    """Describe one named drill as a spec, run it, and summarize it.

    ``capture_trace`` stores the full telemetry trace on the report as
    JSON Lines (``trace_jsonl``) — callers that want it on disk write it
    themselves (this module performs no file I/O).
    """
    from repro.scenario.run import run_scenario
    from repro.scenario.spec import ScenarioSpec

    if name not in DRILLS:
        raise ValueError(
            f"unknown drill {name!r}; available: {', '.join(sorted(DRILLS))}"
        )
    topology = TopologySpec(
        n_nodes=nodes, byzantine_fraction=0.10, trusted_fraction=0.30,
        view_ratio=0.08,
    )
    spec = ScenarioSpec(
        name=f"drill-{name}",
        protocol="raptee",
        seed=seed,
        rounds=rounds,
        topology=topology,
        membership=_DRILL_MEMBERSHIP.get(name),
        faults=tuple(DRILLS[name](topology, rounds)),
    )
    # Default telemetry: every number the report needs lands in the registry.
    artifacts = run_scenario(
        spec, telemetry=TelemetryConfig(), check_invariants=True
    )
    return _report(name, artifacts, capture_trace=capture_trace)


def _report(
    name: str, artifacts: "ScenarioArtifacts", capture_trace: bool = False
) -> DrillReport:
    """Summarize a finished drill from the telemetry registry.

    Every count comes out of the one shared metrics namespace — the private
    ``InjectionStats``/``RecoveryStats``/node counters stay available for
    assertions, but reports read the registry.
    """
    spec, bundle, checker = artifacts.spec, artifacts.bundle, artifacts.checker
    registry = bundle.telemetry.registry
    drops_by_cause = {
        str(cause): int(count)
        for cause, count in registry.by_label("faults.drops", "cause").items()
    }
    return DrillReport(
        name=name,
        nodes=spec.topology.n_nodes,
        rounds=spec.rounds,
        seed=spec.seed,
        plan_description=FaultPlan(list(spec.faults)).describe(),
        resilience_percent=100.0 * resilience_from_trace(bundle.trace.records),
        drops_by_cause=drops_by_cause,
        crashes=int(registry.value("faults.crashes")),
        restarts=int(registry.value("faults.restarts")),
        enclave_crashes=int(registry.value("faults.enclave_crashes")),
        degradations=int(registry.value("raptee.degradations")),
        promotions=int(registry.value("raptee.promotions")),
        restores_from_seal=int(registry.value("recovery.restores_from_seal")),
        reprovisions=int(registry.value("recovery.reprovisions")),
        failed_attempts=int(registry.value("recovery.failed_attempts")),
        # The per-round gauge's final value is the end-of-run degraded count.
        still_degraded=int(registry.value("raptee.degraded_nodes")),
        rounds_checked=checker.rounds_checked,
        violations=len(checker.violations),
        # Rotation counts carry a `reason` label; sum across reasons.
        rotations=sum(
            int(count)
            for count in registry.by_label(
                "membership.rotations", "reason"
            ).values()
        ),
        revocations=int(registry.value("membership.revocations")),
        membership_joins=int(registry.value("membership.joins")),
        membership_leaves=int(registry.value("membership.leaves")),
        stale_degrades=int(registry.value("membership.stale_degrades")),
        current_epoch=int(registry.value("membership.epoch")),
        trace_jsonl=artifacts.trace_jsonl if capture_trace else None,
    )
