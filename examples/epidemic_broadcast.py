#!/usr/bin/env python3
"""Epidemic broadcast on top of the peer-sampling service.

The paper's intro motivates peer sampling as the substrate for information
dissemination: a node gossips a message to peers drawn from its PSS view,
and the broadcast reaches (almost) everyone in O(log N) rounds — *if* the
views are good samples.  This example shows what Byzantine view poisoning
does to an upper-layer broadcast, and how much RAPTEE recovers:

1. run Brahms and RAPTEE deployments under a 20 % Byzantine population;
2. after convergence, flood a message from one honest node, forwarding to
   ``fanout`` peers drawn from each node's *current view* (Byzantine nodes
   swallow messages — the dissemination analogue of an eclipse attack);
3. report coverage of honest nodes.

Run:  python examples/epidemic_broadcast.py
"""

import random
from typing import Dict, Set

from repro.core.eviction import AdaptiveEviction
from repro.experiments.scenarios import SimulationBundle, TopologySpec
from repro.scenario import RapteeOptions, ScenarioSpec, run_scenario

N_NODES = 200
WARMUP_ROUNDS = 50
FANOUT = 4
SEED = 21


def broadcast_coverage(
    bundle: SimulationBundle, fanout: int, rng: random.Random,
    source: int = None,
) -> float:
    """Flood from one correct node over current views; return honest coverage."""
    sim = bundle.simulation
    byzantine = sim.byzantine_ids
    correct = sorted(sim.correct_node_ids())
    views: Dict[int, list] = {
        node.node_id: node.view_ids() for node in sim.correct_nodes()
    }

    if source is None:
        source = correct[0]
    delivered: Set[int] = {source}
    frontier = [source]
    for _round in range(32):  # plenty for 200 nodes at fanout 4
        next_frontier = []
        for node in frontier:
            view = views.get(node, [])
            if not view:
                continue
            targets = rng.sample(view, min(fanout, len(view)))
            for target in targets:
                if target in byzantine:
                    continue  # Byzantine nodes swallow the message
                if target not in delivered:
                    delivered.add(target)
                    next_frontier.append(target)
        frontier = next_frontier
        if not frontier:
            break
    return len(delivered) / len(correct)


def mean_coverage(bundle: SimulationBundle, rng: random.Random, floods: int = 30) -> float:
    """Average coverage over many independent floods from random sources —
    a single flood near the percolation threshold is extremely noisy."""
    correct = sorted(bundle.simulation.correct_node_ids())
    return sum(
        broadcast_coverage(bundle, FANOUT, rng, source=rng.choice(correct))
        for _ in range(floods)
    ) / floods


def main() -> None:
    rng = random.Random(SEED)
    print(f"{N_NODES} nodes, 20% Byzantine; broadcast fanout {FANOUT}, 30 floods each\n")

    brahms_spec = ScenarioSpec(
        name="broadcast-brahms", protocol="brahms", seed=SEED, rounds=WARMUP_ROUNDS,
        topology=TopologySpec(n_nodes=N_NODES, byzantine_fraction=0.20, view_ratio=0.08),
    )
    brahms = run_scenario(brahms_spec, telemetry=None).bundle
    brahms_coverage = mean_coverage(brahms, rng)

    raptee_spec = ScenarioSpec(
        name="broadcast-raptee", protocol="raptee", seed=SEED, rounds=WARMUP_ROUNDS,
        topology=TopologySpec(
            n_nodes=N_NODES, byzantine_fraction=0.20, trusted_fraction=0.25,
            view_ratio=0.08,
        ),
        raptee=RapteeOptions(eviction=AdaptiveEviction()),
    )
    raptee = run_scenario(raptee_spec, telemetry=None).bundle
    raptee_coverage = mean_coverage(raptee, rng)

    print(f"Mean broadcast coverage over Brahms views:  {brahms_coverage:6.1%}")
    print(f"Mean broadcast coverage over RAPTEE views:  {raptee_coverage:6.1%}")
    print("\nEvery percentage point lost is an honest node eclipsed by")
    print("Byzantine entries occupying view slots during dissemination.")


if __name__ == "__main__":
    main()
