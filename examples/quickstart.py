#!/usr/bin/env python3
"""Quickstart: run a RAPTEE deployment and watch it beat Brahms.

Builds two systems with the same 10 % Byzantine population — plain Brahms,
and RAPTEE with SGX trusted nodes under the adaptive eviction rule — runs
both for 60 rounds, and prints the pollution of correct views.

The demo uses a 25 % trusted share: at N = 200 with 24-entry views, each
node makes ~9 pulls per round, so a trusted node meets a sibling about as
often as the paper's t = 1-3 % deployment does at N = 10,000 with 80 pulls
per round (see EXPERIMENTS.md on the meeting-rate mapping).

Run:  python examples/quickstart.py
"""

from repro.analysis.metrics import resilience_improvement
from repro.core.config import RapteeConfig
from repro.core.eviction import AdaptiveEviction
from repro.experiments.scenarios import TopologySpec
from repro.scenario import ScenarioSpec, run_scenario

N_NODES = 200
ROUNDS = 60
SEED = 7


def main() -> None:
    print(f"Simulating {N_NODES} nodes, 10% Byzantine, {ROUNDS} rounds…\n")

    brahms_spec = ScenarioSpec(
        name="quickstart-brahms", protocol="brahms", seed=SEED, rounds=ROUNDS,
        topology=TopologySpec(n_nodes=N_NODES, byzantine_fraction=0.10, view_ratio=0.08),
    )
    brahms = run_scenario(brahms_spec, telemetry=None).metrics
    print("Brahms (baseline)")
    print(f"  Byzantine IDs in correct views: {brahms.resilience_percent:.1f}%")
    print(f"  system discovery (75% of correct IDs): round {brahms.discovery_round}")
    print(f"  view stability:                        round {brahms.stability_round}")

    raptee_spec = ScenarioSpec(
        name="quickstart-raptee", protocol="raptee", seed=SEED, rounds=ROUNDS,
        topology=TopologySpec(
            n_nodes=N_NODES, byzantine_fraction=0.10, trusted_fraction=0.25,
            view_ratio=0.08,
        ),
        raptee=RapteeConfig(eviction=AdaptiveEviction()),
    )
    raptee = run_scenario(raptee_spec, telemetry=None).metrics
    print("\nRAPTEE (25% SGX trusted nodes, adaptive eviction)")
    print(f"  Byzantine IDs in correct views: {raptee.resilience_percent:.1f}%")
    print(f"  system discovery:                      round {raptee.discovery_round}")
    print(f"  view stability:                        round {raptee.stability_round}")

    improvement = resilience_improvement(brahms.resilience, raptee.resilience)
    print(f"\nResilience improvement over Brahms: {improvement:+.1f}%")


if __name__ == "__main__":
    main()
