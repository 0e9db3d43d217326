#!/usr/bin/env python3
"""The paper-scale configuration (N = 10,000, view 200, 200 rounds).

This is the exact Grid'5000 setting of §V-B.  The measured cost on a stock
CPython box is:

* N = 500  (``--nodes 500``):   ~0.2 s per round — seconds per run;
* N = 1,000, encrypted transport: seconds per round, about half of it
  the AES-CTR transport even with a session's keystream computed in one
  batched numpy pass — the layer the perf ledger prices as
  ``pernode-raptee-enc`` ``crypto.self_s`` (see BENCHMARK.json; run
  ``python benchmarks/ledger/run.py``);
* N = 10,000 (the full paper scale): ~12 min per round, so one 200-round
  repetition is a day-scale batch job rather than an interactive run.

Pass ``--dry-run`` (default) to only print the derived parameters; pass
``--run`` to execute one configuration, scaling N down with ``--nodes``
to pick your waiting time.

Run:  python examples/full_scale.py [--run] [--nodes N] [--rounds R]
                                    [--t T] [--f F]
"""

import argparse

from repro.core.eviction import AdaptiveEviction
from repro.experiments.figures import PAPER_SCALE
from repro.experiments.scenarios import TopologySpec
from repro.scenario import RapteeOptions, ScenarioSpec, run_scenario


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--run", action="store_true", help="actually execute")
    parser.add_argument("--nodes", type=int, default=PAPER_SCALE.n_nodes,
                        help="population size (paper: 10,000)")
    parser.add_argument("--rounds", type=int, default=PAPER_SCALE.rounds)
    parser.add_argument("--f", type=float, default=0.10, help="Byzantine fraction")
    parser.add_argument("--t", type=float, default=0.01, help="trusted fraction")
    args = parser.parse_args(argv)

    # Scaled-down populations keep statistically meaningful views by using
    # a larger view ratio (DESIGN.md §5); the full scale uses the paper's.
    view_ratio = PAPER_SCALE.view_ratio if args.nodes >= 5000 else 0.04
    spec = TopologySpec(
        n_nodes=args.nodes,
        byzantine_fraction=args.f,
        trusted_fraction=args.t,
        view_ratio=view_ratio,
    )
    config = spec.brahms_config()
    print("Paper-scale configuration (§V-B):")
    print(f"  N                = {spec.n_nodes:,}")
    print(f"  Byzantine        = {spec.n_byzantine:,} ({args.f:.0%})")
    print(f"  trusted (SGX)    = {spec.n_trusted:,} ({args.t:.0%})")
    print(f"  view size l1     = {config.view_size}  (α={config.alpha_count}, "
          f"β={config.beta_count}, γ={config.gamma_count})")
    print(f"  samplers l2      = {config.sample_size}")
    print(f"  rounds           = {args.rounds} (2.5 s each on the testbed)")
    print(f"  repetitions      = {PAPER_SCALE.repetitions} in the paper")

    if not args.run:
        print("\nDry run only — pass --run to execute "
              "(~0.2 s/round at N=500, ~12 min/round at N=10,000).")
        return

    print("\nBuilding (attestation + provisioning of all trusted nodes) and running…")
    metrics = run_scenario(ScenarioSpec(
        name="full-scale", protocol="raptee", seed=PAPER_SCALE.base_seed,
        rounds=args.rounds, topology=spec,
        raptee=RapteeOptions(eviction=AdaptiveEviction()),
    ), telemetry=None).metrics
    print(f"resilience (Byz IDs in correct views): {metrics.resilience_percent:.1f}%")
    print(f"discovery round: {metrics.discovery_round}")
    print(f"stability round: {metrics.stability_round}")


if __name__ == "__main__":
    main()
