#!/usr/bin/env python3
"""Attack lab: the two §VI attacks, end to end.

(1) Trusted-node identification — Byzantine nodes probe pull answers,
    the adversary classifies "cleaner than average" nodes as trusted, and
    we report precision/recall/F1 for several eviction policies.
(2) View-poisoned trusted-node injection — genuine enclaves with
    adversarially poisoned initial views join the network; we track how
    their pollution decays (self-healing) and what happens to the system's
    resilience improvement.

Run:  python examples/attack_lab.py
"""

import statistics

from repro.adversary.identification import IdentificationAttack
from repro.analysis.metrics import resilience_improvement
from repro.core.eviction import AdaptiveEviction, FixedEviction
from repro.experiments.runner import bundle_metrics
from repro.experiments.scenarios import TopologySpec
from repro.scenario import RapteeOptions, ScenarioSpec, compile_spec, run_scenario
from repro.sim.node import NodeKind

N_NODES = 200
ROUNDS = 50
SEED = 33


def identification_attack() -> None:
    print("=" * 64)
    print("Attack 1: trusted-node identification (§VI-A)")
    print("=" * 64)
    topology = TopologySpec(
        n_nodes=N_NODES, byzantine_fraction=0.20, trusted_fraction=0.20, view_ratio=0.08
    )
    config = topology.brahms_config()
    print(f"{'policy':<12} {'precision':>9} {'recall':>7} {'F1':>6}")
    for policy in (FixedEviction(0.0), FixedEviction(1.0), AdaptiveEviction()):
        spec = ScenarioSpec(
            name="identification", protocol="raptee", seed=SEED,
            rounds=20,  # pre-stability: the attack's best window
            topology=topology,
            raptee=RapteeOptions(eviction=policy, probe_pulls=config.beta_count),
        )
        bundle = run_scenario(spec, telemetry=None).bundle
        report = IdentificationAttack(bundle.coordinator).classify(
            bundle.trusted_ids, since_round=1, until_round=20
        )
        print(
            f"{policy.describe():<12} {report.precision:>9.2f} "
            f"{report.recall:>7.2f} {report.f1:>6.2f}"
        )
    print("\nEviction is the leakage channel: the harder trusted nodes")
    print("evict, the cleaner their answers, the easier they are to spot.")
    print("The adaptive rule trades a little eviction for anonymity.\n")


def poisoned_injection() -> None:
    print("=" * 64)
    print("Attack 2: view-poisoned trusted-node injection (§VI-B)")
    print("=" * 64)
    baseline_spec = ScenarioSpec(
        name="injection-baseline", protocol="brahms", seed=SEED, rounds=ROUNDS,
        topology=TopologySpec(n_nodes=N_NODES, byzantine_fraction=0.10, view_ratio=0.08),
    )
    brahms = run_scenario(baseline_spec, telemetry=None).metrics

    for poisoned in (0.0, 0.10, 0.30):
        spec = ScenarioSpec(
            name="injection", protocol="raptee", seed=SEED, rounds=ROUNDS,
            topology=TopologySpec(
                n_nodes=N_NODES,
                byzantine_fraction=0.10,
                trusted_fraction=0.05,
                poisoned_fraction=poisoned,
                view_ratio=0.08,
            ),
            raptee=RapteeOptions(eviction=AdaptiveEviction()),
        )
        bundle = compile_spec(spec)
        sim = bundle.simulation
        poisoned_nodes = [
            node for node in sim.nodes.values()
            if node.kind is NodeKind.POISONED_TRUSTED
        ]
        byz = sim.byzantine_ids

        def pollution() -> float:
            if not poisoned_nodes:
                return 0.0
            return statistics.mean(
                sum(1 for peer in node.view if peer in byz) / max(1, len(node.view))
                for node in poisoned_nodes
            )

        before = pollution()
        bundle.run(ROUNDS)
        metrics = bundle_metrics(bundle, ROUNDS)
        after = pollution()
        improvement = resilience_improvement(brahms.resilience, metrics.resilience)
        label = f"{poisoned:.0%} poisoned injected"
        healing = f"poisoned views {before:.0%} → {after:.0%}" if poisoned_nodes else "—"
        print(f"{label:<24} improvement {improvement:+6.1f}%   {healing}")

    print("\nInjected nodes run *genuine* enclave code — they are forced to")
    print("execute correct Brahms + eviction, shed their poisoned views, and")
    print("end up reinforcing the trusted population they meant to subvert.")


def main() -> None:
    identification_attack()
    poisoned_injection()


if __name__ == "__main__":
    main()
