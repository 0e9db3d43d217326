"""Command-line interface: ``python -m repro <command>``.

Argument wiring over the scenario pipeline: flags become one
:class:`~repro.scenario.spec.ScenarioSpec` (:func:`_spec_from_args`), run
by :func:`~repro.scenario.run.run_scenario` on any of the three engines —
or built by ``compile_spec`` where the command drives the rounds itself
(checkpointing).  ``run`` prints one report (:func:`_report`) whatever
the engine.  The commands:

* ``run`` — execute one Brahms or RAPTEE simulation and print the paper's
  three metrics; ``--checkpoint-every N`` saves a resumable snapshot every
  N rounds and ``--resume PATH`` continues one (:mod:`repro.snapshot`);
* ``snapshot`` — inspect or resume snapshots
  (forwards to ``python -m repro.snapshot``);
* ``figure`` — regenerate one paper table/figure (scaled topology) and
  print its rows;
* ``attack`` — run the §VI-A trusted-node identification attack and print
  precision/recall/F1;
* ``faults`` — run a named fault-injection drill (:mod:`repro.faults`)
  and print the recovery/invariant report;
* ``trace`` — run one scenario with telemetry wired
  (:mod:`repro.telemetry`) and export the JSONL trace / CSV metrics;
* ``lint`` — run the :mod:`repro.lint` invariant checks (determinism,
  enclave boundary, crypto hygiene, sim purity);
* ``vectors`` — generate/verify the conformance vector suite
  (forwards to ``python -m repro.scenario``).

Examples::

    python -m repro run --protocol raptee --nodes 300 --f 0.1 --t 0.1
    python -m repro run --nodes 300 --rounds 200 --checkpoint-every 20
    python -m repro run --shards 8 --nodes 10000 --view-ratio 0.02 --rounds 5
    python -m repro run --engine events --latency-model lognormal:40:0.6 \\
        --load 40:30 --straggler 0.1:8 --events-trace-out latency.jsonl
    python -m repro run --resume repro-run.snapshot
    python -m repro snapshot info repro-run.snapshot
    python -m repro figure fig9 --scale test
    python -m repro attack --f 0.2 --t 0.2 --eviction 1.0
    python -m repro faults --drill enclave-outage --nodes 200 --rounds 50
    python -m repro faults --drill membership-churn --trace-out churn.jsonl
    python -m repro trace --nodes 50 --rounds 30 --seed 7 --out trace.jsonl
    python -m repro lint src tests --format json
    python -m repro vectors generate
    python -m repro vectors verify --report drift.json
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.adversary.identification import IdentificationAttack
from repro.core.eviction import AdaptiveEviction, EvictionPolicy, FixedEviction
from repro.experiments.figures import (
    BENCH_SCALE,
    TEST_SCALE,
    Scale,
    figure3_brahms_baseline,
    figure9_adaptive,
    figure13_poisoned_injection,
    fixed_eviction_figure,
    identification_figure,
    membership_churn_figure,
    slo_figure,
    straggler_figure,
    table1_sgx_overhead,
)
from repro.experiments.runner import bundle_metrics
from repro.experiments.scenarios import TopologySpec
from repro.faults.drills import DRILLS, run_drill
from repro.scenario.compile import compile_spec
from repro.scenario.errors import ScenarioSpecError
from repro.scenario.run import run_scenario
from repro.scenario.spec import EngineSpec, RapteeOptions, ScenarioSpec
from repro.shard.compile import ShardUnsupportedError
from repro.telemetry import TelemetryConfig

__all__ = ["main", "build_parser", "parse_eviction"]

_SCALES = {"test": TEST_SCALE, "bench": BENCH_SCALE}

#: Where ``repro run --checkpoint-every N`` saves when no --checkpoint-out
#: is given — and where ``repro run --resume`` therefore finds it.
DEFAULT_CHECKPOINT = "repro-run.snapshot"
DEFAULT_RUN_ROUNDS = 80
DEFAULT_TICK_INTERVAL = 1.0


def parse_eviction(value: str) -> EvictionPolicy:
    """Parse ``--eviction``: 'adaptive' or a fixed rate in [0, 1]."""
    if value == "adaptive":
        return AdaptiveEviction()
    try:
        rate = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"eviction must be 'adaptive' or a number in [0, 1], got {value!r}"
        )
    if not 0.0 <= rate <= 1.0:
        raise argparse.ArgumentTypeError("fixed eviction rate must be in [0, 1]")
    return FixedEviction(rate)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="RAPTEE reproduction toolkit"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run one simulation")
    run_parser.add_argument("--protocol", choices=("brahms", "raptee"), default="raptee")
    run_parser.add_argument("--nodes", type=int, default=300)
    run_parser.add_argument("--f", type=float, default=0.10, help="Byzantine fraction")
    run_parser.add_argument("--t", type=float, default=0.10, help="trusted fraction")
    run_parser.add_argument("--poisoned", type=float, default=0.0,
                            help="injected view-poisoned trusted fraction")
    run_parser.add_argument("--rounds", type=int, default=None,
                            help="total round target (default: 80, or the "
                                 "stored target when resuming)")
    run_parser.add_argument("--seed", type=int, default=1)
    run_parser.add_argument("--view-ratio", type=float, default=0.08)
    run_parser.add_argument("--eviction", type=parse_eviction, default=AdaptiveEviction())
    run_parser.add_argument("--sketch-unbias", action="store_true",
                            help="enable count-min stream unbiasing (future work)")
    run_parser.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                            help="save a resumable snapshot every N rounds "
                                 "(see repro.snapshot)")
    run_parser.add_argument("--checkpoint-out", default=None, metavar="PATH",
                            help=f"snapshot path (default: {DEFAULT_CHECKPOINT})")
    run_parser.add_argument("--resume", default=None, metavar="PATH",
                            help="restore a snapshot and continue it "
                                 "(topology flags are ignored; state comes "
                                 "from the snapshot)")
    run_parser.add_argument("--engine", choices=("rounds", "events"),
                            default="rounds",
                            help="simulation clock: lockstep rounds (default) "
                                 "or the event-driven engine (repro.events)")
    run_parser.add_argument("--shards", type=int, default=None, metavar="N",
                            help="run on the sharded batch engine "
                                 "(repro.shard) with N partitions; output is "
                                 "byte-identical for any N")
    run_parser.add_argument("--shard-workers", type=int, default=1, metavar="W",
                            help="threads for the shard partition phases "
                                 "(default 1 = inline)")
    run_parser.add_argument("--loss", type=float, default=0.0,
                            help="uniform message loss rate")
    run_parser.add_argument("--latency-model", default=None, metavar="SPEC",
                            help="per-link one-way delay for --engine events: "
                                 "zero | constant:MS | uniform:LO:HI | "
                                 "lognormal:MEDIAN:SIGMA (times in ms)")
    run_parser.add_argument("--load", default=None, metavar="CLIENTS:RPM",
                            help="client load for --engine events: active "
                                 "clients x requests/minute each (e.g. 40:30)")
    run_parser.add_argument("--straggler", default=None,
                            metavar="FRAC:FACTOR",
                            help="slow a deterministic node subset under "
                                 "--engine events (e.g. 0.1:8 = 10%% of "
                                 "nodes at 8x)")
    run_parser.add_argument("--tick-interval", type=float,
                            default=DEFAULT_TICK_INTERVAL, metavar="SECONDS",
                            help="round period on the event clock under "
                                 f"--engine events (default {DEFAULT_TICK_INTERVAL})")
    run_parser.add_argument("--events-trace-out", default=None, metavar="PATH",
                            help="write the per-request latency trace (JSON "
                                 "Lines) of --engine events --load here")

    figure_parser = subparsers.add_parser("figure", help="regenerate a paper figure")
    figure_parser.add_argument(
        "figure_id",
        choices=("fig3", "table1", "fig5", "fig6", "fig7", "fig8", "fig9",
                 "fig10", "fig11", "fig12", "fig13", "churn", "slo",
                 "straggler"),
    )
    figure_parser.add_argument("--scale", choices=sorted(_SCALES), default="test")

    attack_parser = subparsers.add_parser(
        "attack", help="run the trusted-node identification attack"
    )
    attack_parser.add_argument("--nodes", type=int, default=200)
    attack_parser.add_argument("--f", type=float, default=0.20)
    attack_parser.add_argument("--t", type=float, default=0.20)
    attack_parser.add_argument("--rounds", type=int, default=20)
    attack_parser.add_argument("--seed", type=int, default=1)
    attack_parser.add_argument("--view-ratio", type=float, default=0.08)
    attack_parser.add_argument("--eviction", type=parse_eviction, default=AdaptiveEviction())

    faults_parser = subparsers.add_parser(
        "faults", help="run a named fault-injection drill (see repro.faults)"
    )
    faults_parser.add_argument(
        "--drill", choices=sorted(DRILLS), default="enclave-outage"
    )
    faults_parser.add_argument("--nodes", type=int, default=200)
    faults_parser.add_argument("--rounds", type=int, default=50)
    faults_parser.add_argument("--seed", type=int, default=1)
    faults_parser.add_argument("--trace-out", default=None, metavar="PATH",
                               help="also write the drill's telemetry trace "
                                    "here as JSON Lines")

    trace_parser = subparsers.add_parser(
        "trace", help="run one scenario with telemetry and export the trace"
    )
    trace_parser.add_argument("--protocol", choices=("brahms", "raptee"),
                              default="raptee")
    trace_parser.add_argument("--nodes", type=int, default=50)
    trace_parser.add_argument("--f", type=float, default=0.10,
                              help="Byzantine fraction")
    trace_parser.add_argument("--t", type=float, default=0.10,
                              help="trusted fraction")
    trace_parser.add_argument("--rounds", type=int, default=30)
    trace_parser.add_argument("--seed", type=int, default=1)
    trace_parser.add_argument("--view-ratio", type=float, default=0.08)
    trace_parser.add_argument("--eviction", type=parse_eviction,
                              default=AdaptiveEviction())
    trace_parser.add_argument("--out", default="trace.jsonl",
                              help="JSONL trace output path")
    trace_parser.add_argument("--metrics-out", default=None,
                              help="also write a CSV metrics snapshot here")
    trace_parser.add_argument("--no-message-events", action="store_true",
                              help="omit per-message net.*/fault.drop events")
    trace_parser.add_argument("--ecall-events", action="store_true",
                              help="emit one trace event per SGX ECALL")
    trace_parser.add_argument("--profile", action="store_true",
                              help="enable wall-clock profiling of hot paths")

    snapshot_parser = subparsers.add_parser(
        "snapshot", help="inspect or resume run snapshots (see repro.snapshot)"
    )
    snapshot_parser.add_argument(
        "snapshot_args", nargs=argparse.REMAINDER,
        help="arguments forwarded to python -m repro.snapshot",
    )

    lint_parser = subparsers.add_parser(
        "lint", help="run the static invariant checks (see repro.lint)"
    )
    lint_parser.add_argument(
        "lint_args", nargs=argparse.REMAINDER,
        help="arguments forwarded to python -m repro.lint",
    )

    vectors_parser = subparsers.add_parser(
        "vectors",
        help="generate/verify conformance vectors (see repro.scenario)",
    )
    vectors_parser.add_argument(
        "vectors_args", nargs=argparse.REMAINDER,
        help="arguments forwarded to python -m repro.scenario",
    )

    return parser


def _spec_from_args(args) -> ScenarioSpec:
    """The scenario a ``run`` / ``trace`` / ``attack`` command line describes
    — the only place flags become a scenario.  A flag the subcommand lacks
    keeps the spec's default; ``EngineSpec`` validates the engine strings."""
    flags = vars(args)
    protocol = flags.get("protocol", "raptee")
    raptee = protocol == "raptee"
    topology = TopologySpec(
        n_nodes=args.nodes,
        byzantine_fraction=args.f,
        trusted_fraction=args.t if raptee else 0.0,
        poisoned_fraction=flags.get("poisoned", 0.0) if raptee else 0.0,
        view_ratio=args.view_ratio,
        loss_rate=flags.get("loss", 0.0),
    )
    if flags.get("shards") is not None:
        engine = EngineSpec(kind="shard", shards=args.shards)
    elif flags.get("engine") == "events":
        engine = EngineSpec(
            kind="events",
            tick_interval=args.tick_interval,
            latency=args.latency_model,
            load=args.load,
            straggler=args.straggler,
        )
    else:
        engine = EngineSpec()
    options = None
    if raptee:
        # `attack` arms the §VI-A intelligence: every Byzantine node issues
        # β·l1 pull probes per round.
        probes = topology.brahms_config().beta_count if args.command == "attack" else 0
        options = RapteeOptions(
            eviction=args.eviction,
            sketch_unbias_enabled=flags.get("sketch_unbias", False),
            probe_pulls=probes,
        )
    return ScenarioSpec(
        name=f"cli-{args.command}",
        protocol=protocol,
        seed=args.seed,
        rounds=DEFAULT_RUN_ROUNDS if args.rounds is None else args.rounds,
        topology=topology,
        # The balanced adversary is the only one the shard engine models.
        adversary_strategy=(
            "balanced" if engine.kind == "shard" else "adaptive_balanced"
        ),
        raptee=options,
        engine=engine,
    )


def _line(label: str, value: object) -> None:
    print(f"{label + ':':<20}{value}")


def _report(protocol: str, topology: TopologySpec, rounds: int, metrics,
            engine_lines=()) -> None:
    """The run report of every engine: what ran, the engine's own
    ``(label, value)`` set-up lines, the paper's three metrics.  What the
    engine produced follows from the caller, through :func:`_line`."""
    _line("protocol", protocol)
    _line("nodes", f"{topology.n_nodes} (byz {topology.n_byzantine}, "
                   f"trusted {topology.n_trusted}, poisoned +{topology.n_poisoned})")
    _line("rounds", rounds)
    for label, value in engine_lines:
        _line(label, value)
    _line("byz IDs in views", f"{metrics.resilience_percent:.1f}%")
    for label, reached in (("discovery round", metrics.discovery_round),
                           ("stability round", metrics.stability_round)):
        _line(label, reached if reached > 0 else "not reached")


def _events_lines(engine):
    options = engine.options
    yield "engine", f"events (continuous, tick {options.tick_interval:g} s)"
    yield "latency model", options.latency.describe()
    if options.stragglers is not None:
        yield "stragglers", options.stragglers.describe()
    yield "cycles", f"{engine.cycles} (late {100.0 * engine.late_fraction:.1f}%)"
    load = engine.load
    if load is not None:
        yield "load", (f"{load.spec.describe()} -> "
                       f"{load.served} served, {load.failed} failed")
        yield "request latency", (
            f"p50 {load.latency_percentile_ms(0.50):.1f} ms, "
            f"p95 {load.latency_percentile_ms(0.95):.1f} ms, "
            f"p99 {load.latency_percentile_ms(0.99):.1f} ms")
        yield "byz samples", f"{100.0 * load.byzantine_fraction:.1f}%"


def _command_run_events(args) -> int:
    import json

    artifacts = run_scenario(
        _spec_from_args(args), telemetry=TelemetryConfig(tracing=False)
    )
    engine = artifacts.bundle.engine
    _report(args.protocol, artifacts.spec.topology, artifacts.spec.rounds,
            artifacts.metrics, _events_lines(engine))
    if args.events_trace_out:
        load = engine.load
        records = [] if load is None else load.records
        with open(args.events_trace_out, "w", encoding="utf-8") as stream:
            for record in records:
                stream.write(json.dumps(record, sort_keys=True))
                stream.write("\n")
        _line("latency trace",
              f"{args.events_trace_out} ({len(records)} requests)")
    return 0


def _command_shard_run(args) -> int:
    artifacts = run_scenario(
        _spec_from_args(args), telemetry=None, workers=args.shard_workers
    )
    _report(f"{args.protocol} (shard engine)", artifacts.spec.topology,
            artifacts.spec.rounds, artifacts.metrics,
            [("shards", f"{args.shards} (workers {args.shard_workers})")])
    stats, state = artifacts.bundle.stats, artifacts.bundle.state
    _line("pushes sent", stats.pushes_sent)
    _line("requests sent", stats.requests_sent)
    _line("messages lost", stats.messages_lost)
    _line("renewals", f"{state.renewals} (blocked {state.blocked_rounds}, "
                      f"evicted {state.evicted_ids})")
    return 0


def _command_run(args) -> int:
    from repro.snapshot import RunState, restore, run_with_checkpoints

    # A flag for an engine that was not selected would be silently ignored.
    if args.shards is None and args.shard_workers != 1:
        print("error: --shard-workers only applies with --shards N",
              file=sys.stderr)
        return 2
    for flag, value in (("--shards", args.shards),
                        ("--shard-workers", args.shard_workers)):
        if value is not None and value < 1:
            print(f"error: {flag} must be at least 1", file=sys.stderr)
            return 2
    if args.engine != "events":
        for flag, given in (
            ("--latency-model", args.latency_model is not None),
            ("--load", args.load is not None),
            ("--straggler", args.straggler is not None),
            ("--tick-interval", args.tick_interval != DEFAULT_TICK_INTERVAL),
            ("--events-trace-out", args.events_trace_out is not None),
        ):
            if given:
                print(f"error: {flag} only applies with --engine events",
                      file=sys.stderr)
                return 2
    if args.shards is not None and args.engine == "events":
        print("error: --shards selects the sharded rounds engine; it has no "
              "event clock (drop --engine events)", file=sys.stderr)
        return 2
    other_engine = ("the shard engine" if args.shards is not None
                    else "--engine events" if args.engine == "events" else None)
    if other_engine and (args.resume or args.checkpoint_every):
        print(f"error: {other_engine} has no snapshot support; use the "
              "default rounds engine with --resume/--checkpoint-every",
              file=sys.stderr)
        return 2
    if args.shards is not None:
        return _command_shard_run(args)
    if args.engine == "events":
        return _command_run_events(args)
    if args.resume:
        from repro.snapshot import SnapshotError

        try:
            state = restore(args.resume)
        except (SnapshotError, OSError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        protocol = state.label or "raptee"
        rounds = args.rounds if args.rounds is not None else state.rounds_total
        # Keep checkpointing to the same file unless redirected.
        checkpoint_path = args.checkpoint_out or (
            args.resume if args.checkpoint_every else None
        )
    else:
        protocol = args.protocol
        scenario = _spec_from_args(args)
        rounds = scenario.rounds
        bundle = compile_spec(scenario)
        state = RunState(
            simulation=bundle.simulation, bundle=bundle, label=protocol
        )
        checkpoint_path = args.checkpoint_out or (
            DEFAULT_CHECKPOINT if args.checkpoint_every else None
        )

    if state.bundle is None:
        print("error: this snapshot holds a bare simulation (no metric "
              "observers); resume it with python -m repro.snapshot resume",
              file=sys.stderr)
        return 2
    run_with_checkpoints(
        state,
        rounds=max(rounds, state.rounds_completed),
        checkpoint_every=args.checkpoint_every,
        checkpoint_path=checkpoint_path,
    )
    _report(protocol, state.bundle.spec, state.rounds_completed,
            bundle_metrics(state.bundle, state.rounds_completed))
    if checkpoint_path:
        _line("checkpoint", checkpoint_path)
    return 0


def _command_figure(args) -> int:
    scale: Scale = _SCALES[args.scale]
    builders = {
        "fig3": lambda: figure3_brahms_baseline(scale),
        "table1": lambda: table1_sgx_overhead(scale),
        "fig5": lambda: fixed_eviction_figure(0.0, scale),
        "fig6": lambda: fixed_eviction_figure(0.4, scale),
        "fig7": lambda: fixed_eviction_figure(0.6, scale),
        "fig8": lambda: fixed_eviction_figure(1.0, scale),
        "fig9": lambda: figure9_adaptive(scale),
        "fig10": lambda: identification_figure(
            "Fig. 10 — identification attack, f = 10%", 0.10, scale),
        "fig11": lambda: identification_figure(
            "Fig. 11 — identification attack, f = 30%", 0.30, scale),
        "fig12": lambda: identification_figure(
            "Fig. 12 — identification attack, adaptive", 0.10, scale,
            policies=(AdaptiveEviction(),)),
        "fig13": lambda: figure13_poisoned_injection(scale),
        "churn": lambda: membership_churn_figure(scale),
        "slo": lambda: slo_figure(scale),
        "straggler": lambda: straggler_figure(scale),
    }
    result = builders[args.figure_id]()
    print(result.render())
    return 0


def _command_attack(args) -> int:
    bundle = run_scenario(_spec_from_args(args), telemetry=None).bundle
    attack = IdentificationAttack(bundle.coordinator)
    report = attack.classify(bundle.trusted_ids, since_round=1, until_round=args.rounds)
    print(f"eviction policy:  {args.eviction.describe()}")
    print(f"observed nodes:   {len(attack.observed_nodes())}")
    print(f"labeled trusted:  {len(report.labeled_trusted)}")
    print(f"precision:        {report.precision:.2f}")
    print(f"recall:           {report.recall:.2f}")
    print(f"F1:               {report.f1:.2f}")
    return 0


def _command_faults(args) -> int:
    report = run_drill(
        args.drill, nodes=args.nodes, rounds=args.rounds, seed=args.seed,
        capture_trace=bool(args.trace_out),
    )
    print(report.render())
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as stream:
            stream.write(report.trace_jsonl or "")
        print(f"trace:              {args.trace_out}")
    return 0 if report.violations == 0 else 1


def _command_trace(args) -> int:
    from repro.telemetry import render_profile, render_summary

    config = TelemetryConfig(
        trace_messages=not args.no_message_events,
        trace_ecalls=args.ecall_events,
        profiling=args.profile,
    )
    artifacts = run_scenario(_spec_from_args(args), telemetry=config)
    telemetry = artifacts.bundle.telemetry
    with open(args.out, "w", encoding="utf-8") as stream:
        stream.write(artifacts.trace_jsonl)
    print(f"trace:              {args.out} ({len(telemetry.trace)} events)")
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as stream:
            stream.write(artifacts.metrics_csv)
        print(f"metrics:            {args.metrics_out}")
    print()
    print(render_summary(telemetry))
    if args.profile:
        print()
        print(render_profile(telemetry.profiler))
    return 0


def _command_snapshot(args) -> int:
    from repro.snapshot.__main__ import main as snapshot_main

    return snapshot_main(args.snapshot_args)


def _command_lint(args) -> int:
    from repro.lint.cli import main as lint_main

    return lint_main(args.lint_args)


def _command_vectors(args) -> int:
    from repro.scenario.cli import main as vectors_main

    return vectors_main(args.vectors_args)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _command_run,
        "figure": _command_figure,
        "attack": _command_attack,
        "faults": _command_faults,
        "trace": _command_trace,
        "snapshot": _command_snapshot,
        "lint": _command_lint,
        "vectors": _command_vectors,
    }
    try:
        return handlers[args.command](args)
    except (ScenarioSpecError, ShardUnsupportedError) as error:
        # A flag value the spec rejects, or a feature `--shards` does not
        # model: report the field or the feature, like any misuse.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - module CLI shim
    sys.exit(main())
