#!/usr/bin/env python3
"""Fault injection end to end: break a RAPTEE deployment and watch it heal.

Builds a 150-node RAPTEE deployment (30 % trusted), then injects a custom
fault plan mid-run:

1. an attestation-service outage (the recovery manager must wait it out);
2. a third of the trusted enclaves crash during the outage;
3. some of the victims also lose their sealed K_T backups (bit-rot), so
   sealed-storage restore fails and they must re-attest — which only
   succeeds once the outage lifts, under exponential backoff;
4. a crash-restart of one honest node and an omission window on another.

The InvariantChecker audits every round; the report at the end reads the
degradation/promotion counters and the per-cause drop counts out of the
telemetry registry (see :mod:`repro.telemetry`) — the same numbers the
JSONL trace carries event by event.

Run:  python examples/fault_drill.py
"""

from repro.core.eviction import AdaptiveEviction
from repro.experiments.scenarios import TopologySpec
from repro.faults import (
    AttestationOutageFault,
    CrashRestartFault,
    EnclaveCrashFault,
    FaultPlan,
    InvariantChecker,
    OmissionFault,
    RoundWindow,
    SealedBlobCorruptionFault,
    wire_faults,
)
from repro.scenario import RapteeOptions, ScenarioSpec, compile_spec
from repro.telemetry import wire_telemetry

SEED = 7
ROUNDS = 40


def main() -> None:
    spec = ScenarioSpec(
        name="fault-drill", protocol="raptee", seed=SEED,
        topology=TopologySpec(
            n_nodes=150,
            byzantine_fraction=0.10,
            trusted_fraction=0.30,
            view_ratio=0.08,
        ),
        raptee=RapteeOptions(eviction=AdaptiveEviction()),
    )
    # The plan below names victims by id, so the bundle is compiled first
    # and wired by hand, in run_scenario's order: telemetry, then faults.
    bundle = wire_telemetry(compile_spec(spec))  # before wire_faults
    trusted = sorted(bundle.trusted_ids)
    victims = trusted[: len(trusted) // 3]
    honest = sorted(
        bundle.simulation.correct_node_ids() - bundle.trusted_ids
    )

    plan = FaultPlan(
        [
            AttestationOutageFault(RoundWindow(8, 16)),
            *[EnclaveCrashFault(victim, at_round=8) for victim in victims],
            *[
                SealedBlobCorruptionFault(victim, at_round=8)
                for victim in victims[::2]
            ],
            CrashRestartFault(honest[0], at_round=10, down_rounds=5),
            OmissionFault(honest[1], RoundWindow(10, 20), drop_rate=0.5),
        ]
    )
    print(plan.describe())

    checker = InvariantChecker(record_only=False)  # raise on any violation
    wire_faults(bundle, plan, SEED)
    print(f"\nRunning {ROUNDS} rounds with faults armed…")
    bundle.run(ROUNDS, extra_observers=(checker,))

    registry = bundle.telemetry.registry
    drops_by_cause = {
        str(cause): int(count)
        for cause, count in registry.by_label("faults.drops", "cause").items()
    }
    print(f"\nenclave crashes:   {int(registry.value('faults.enclave_crashes'))}")
    print(f"degradations:      {int(registry.value('raptee.degradations'))} "
          f"(promoted back {int(registry.value('raptee.promotions'))})")
    print(f"sealed restores:   {int(registry.value('recovery.restores_from_seal'))}")
    print(f"re-provisionings:  {int(registry.value('recovery.reprovisions'))} "
          f"(after {int(registry.value('recovery.failed_attempts'))} refused attempts)")
    print(f"drops by cause:    {drops_by_cause}")
    print(f"invariants:        {checker.rounds_checked} rounds checked, "
          f"{len(checker.violations)} violations")
    # Final value of the per-round gauge = nodes still degraded at the end.
    print(f"still degraded:    {int(registry.value('raptee.degraded_nodes'))}")


if __name__ == "__main__":
    main()
