#!/usr/bin/env python3
"""Watch the pollution dynamics round by round.

Runs Brahms and RAPTEE side by side under the same adversary and renders
the per-round mean view pollution as terminal charts — the Brahms spiral
climbing, RAPTEE's trusted nodes pulling it back down, and the per-kind
split showing trusted views staying cleaner than honest ones.

Run:  python examples/convergence_trace.py
"""

from repro.analysis.plotting import (
    line_chart,
    per_kind_series,
    pollution_series,
    sparkline,
)
from repro.core.eviction import AdaptiveEviction
from repro.experiments.scenarios import TopologySpec
from repro.scenario import RapteeOptions, ScenarioSpec, run_scenario
from repro.sim.node import NodeKind

N_NODES = 250
ROUNDS = 70
SEED = 17


def main() -> None:
    print(f"{N_NODES} nodes, 15% Byzantine, {ROUNDS} rounds; RAPTEE: 20% trusted, adaptive ER\n")

    brahms = run_scenario(ScenarioSpec(
        name="convergence-brahms", protocol="brahms", seed=SEED, rounds=ROUNDS,
        topology=TopologySpec(n_nodes=N_NODES, byzantine_fraction=0.15, view_ratio=0.08),
    ), telemetry=None).bundle

    raptee = run_scenario(ScenarioSpec(
        name="convergence-raptee", protocol="raptee", seed=SEED, rounds=ROUNDS,
        topology=TopologySpec(
            n_nodes=N_NODES, byzantine_fraction=0.15, trusted_fraction=0.20,
            view_ratio=0.08,
        ),
        raptee=RapteeOptions(eviction=AdaptiveEviction()),
    ), telemetry=None).bundle

    brahms_pollution = pollution_series(brahms.trace.records)
    raptee_pollution = pollution_series(raptee.trace.records)

    print("Mean Byzantine fraction of correct views, per round:")
    print(line_chart(
        {"brahms": brahms_pollution, "raptee": raptee_pollution},
        height=12, width=ROUNDS, y_label="byz fraction",
    ))

    print("\nRAPTEE per-kind pollution (trusted nodes stay cleaner):")
    honest = per_kind_series(raptee.trace.records, NodeKind.HONEST)
    trusted = per_kind_series(raptee.trace.records, NodeKind.TRUSTED)
    print(f"  honest  {sparkline(honest, 0.0, max(honest))}  final {honest[-1]:.1%}")
    print(f"  trusted {sparkline(trusted, 0.0, max(honest))}  final {trusted[-1]:.1%}")

    rates = [
        node.last_eviction_rate
        for node in raptee.simulation.nodes.values()
        if node.kind is NodeKind.TRUSTED and node.last_eviction_rate is not None
    ]
    if rates:
        print(f"\nAdaptive eviction rates this round: "
              f"min {min(rates):.2f} / mean {sum(rates) / len(rates):.2f} / max {max(rates):.2f}")


if __name__ == "__main__":
    main()
