"""Command-line interface: ``repro <command>`` (or ``python -m repro``).

The package's one parser and one ``main``, and its only module that prints
or writes the files a flag names.  Flags become one
:class:`~repro.scenario.spec.ScenarioSpec` (:func:`_spec_from_args`), run
by :func:`~repro.scenario.run.run_scenario` on any of the three engines —
or, for ``run`` on the default rounds engine, built by ``compile_spec`` and
run by :func:`~repro.snapshot.run_with_checkpoints`, which checkpoints and
resumes.  ``run`` prints one report (:func:`_report`) whatever the engine.
The commands:

* ``run`` — execute one Brahms or RAPTEE simulation and print the paper's
  three metrics; ``--checkpoint-every N`` saves a resumable checkpoint
  every N rounds and ``--resume PATH`` continues one (:mod:`repro.snapshot`):
  a resumed run prints what the straight run prints;
* ``snapshot info`` — print a snapshot's header without unpickling it;
* ``figure`` — regenerate one paper table/figure (scaled topology) and
  print its rows;
* ``attack`` — run the §VI-A trusted-node identification attack and print
  precision/recall/F1;
* ``trace`` — run one scenario with telemetry wired
  (:mod:`repro.telemetry`) and export the JSONL trace / CSV metrics;
  ``--scenario NAME`` runs a catalog entry instead of the flags, and a
  fault list there (the ``drill-*`` entries) also runs the invariant
  checker: any violation exits 1;
* ``vectors generate|verify|list`` — the conformance vector suite
  (:mod:`repro.scenario.vectors`): exit 0 when every vector matches, 1 on
  drift or an integrity failure, 2 on a usage error.

A refused flag value exits 2 with ``error: <flag or spec field>: …`` on
stderr (``--rounds`` below 1 is refused the same way by every command,
before anything is built or restored); a corrupt, missing or mismatched
snapshot exits 1.

Examples::

    repro run --protocol raptee --nodes 300 --f 0.1 --t 0.1
    repro run --nodes 300 --rounds 200 --checkpoint-every 20
    repro run --shards 8 --nodes 10000 --view-ratio 0.02 --rounds 5
    repro run --engine events --latency-model lognormal:40:0.6
    repro run --resume repro-run.snapshot
    repro snapshot info repro-run.snapshot
    repro figure fig9 --scale test
    repro attack --f 0.2 --t 0.2 --eviction 1.0
    repro trace --nodes 50 --rounds 30 --seed 7 --out trace.jsonl
    repro trace --scenario drill-enclave-outage
    repro trace --scenario drill-membership-churn --out churn.jsonl
    repro vectors generate
    repro vectors verify --report drift.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.adversary.identification import IdentificationAttack
from repro.core.config import RapteeConfig
from repro.core.eviction import AdaptiveEviction, EvictionPolicy, FixedEviction
from repro.experiments.figures import BENCH_SCALE, FIGURES, TEST_SCALE, run_figure
from repro.experiments.runner import bundle_metrics
from repro.experiments.scenarios import TopologySpec
from repro.scenario.catalog import CATALOG, catalog_specs, get_spec
from repro.scenario.compile import compile_spec
from repro.scenario.errors import ScenarioSpecError, VectorError
from repro.scenario.run import run_scenario
from repro.scenario.spec import EngineSpec, ScenarioSpec, _construct
from repro.scenario.vectors import (
    DEFAULT_VECTOR_DIR,
    VECTOR_SUFFIX,
    drift_report,
    generate_vector,
    vector_files,
    vector_path,
    verify_vector,
)
from repro.shard.compile import ShardUnsupportedError
from repro.snapshot import SnapshotError, describe, restore, run_with_checkpoints
from repro.telemetry import TelemetryConfig, render_summary

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


#: Every flag more than one command takes, declared once.  A command takes
#: the ones it names through :func:`_flags` and sets its own defaults for
#: ``--nodes`` / ``--f`` / ``--t`` / ``--rounds`` with ``set_defaults``.
_FLAGS = {
    "--protocol": dict(choices=("brahms", "raptee"), default="raptee"),
    "--nodes": dict(type=int),
    "--f": dict(type=float, help="Byzantine fraction"),
    "--t": dict(type=float, help="trusted fraction"),
    "--rounds": dict(type=int, help="total round target, counted from round 0"),
    "--seed": dict(type=int, default=1),
    "--view-ratio": dict(type=float, default=0.08),
    "--eviction": dict(type=parse_eviction, default=AdaptiveEviction(),
                       help="'adaptive' (default) or a fixed rate in [0, 1]"),
    "--dir": dict(default=DEFAULT_VECTOR_DIR,
                  help=f"vector directory (default: {DEFAULT_VECTOR_DIR}/)"),
}
_TOPOLOGY = ("--nodes", "--f", "--t", "--seed", "--view-ratio", "--eviction")


def _flags(*names: str) -> argparse.ArgumentParser:
    """A parent parser with the shared flags ``names``.  Built fresh for
    each command: argparse hands a parent's actions to every child, so one
    shared parent would make one command's ``set_defaults`` everyone's."""
    parent = argparse.ArgumentParser(add_help=False)
    for name in names:
        parent.add_argument(name, **_FLAGS[name])
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="RAPTEE reproduction toolkit"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser(
        "run", help="run one simulation",
        parents=[_flags("--protocol", *_TOPOLOGY, "--rounds")],
    )
    # --rounds unset: 80, or the stored target when resuming.
    run_parser.set_defaults(handler=_command_run, nodes=300, f=0.10, t=0.10)
    run_parser.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                            help="save a resumable checkpoint every N rounds")
    run_parser.add_argument("--checkpoint-out", metavar="PATH",
                            help="where --checkpoint-every saves (default: "
                                 f"{DEFAULT_CHECKPOINT}, or the resumed file)")
    run_parser.add_argument("--poisoned", type=float, default=0.0,
                            help="injected view-poisoned trusted fraction")
    run_parser.add_argument("--sketch-unbias", action="store_true",
                            help="enable count-min stream unbiasing (future work)")
    run_parser.add_argument("--resume", default=None, metavar="PATH",
                            help="restore a checkpoint and continue it to "
                                 "--rounds, else its stored target (topology "
                                 "flags are ignored; state comes from the "
                                 "checkpoint)")
    run_parser.add_argument("--engine", choices=("rounds", "events"),
                            default="rounds",
                            help="simulation clock: lockstep rounds (default) "
                                 "or the event-driven engine (repro.events)")
    run_parser.add_argument("--shards", type=int, default=None, metavar="N",
                            help="run on the sharded batch engine "
                                 "(repro.shard) with at most N partitions "
                                 "(--shard-workers cuts min(N, W)); output "
                                 "is byte-identical for any N")
    run_parser.add_argument("--shard-workers", type=int, default=1, metavar="W",
                            help="threads for the shard partition phases, one "
                                 "partition each (default 1 = inline, one "
                                 "partition)")
    run_parser.add_argument("--loss", type=float, default=0.0,
                            help="uniform message loss rate")
    run_parser.add_argument("--latency-model", default=None, metavar="SPEC",
                            help="per-link one-way delay for --engine events: "
                                 "zero | constant:MS | "
                                 "lognormal:MEDIAN:SIGMA (times in ms)")
    run_parser.add_argument("--tick-interval", type=float,
                            default=DEFAULT_TICK_INTERVAL, metavar="SECONDS",
                            help="round period on the event clock under "
                                 f"--engine events (default {DEFAULT_TICK_INTERVAL})")

    figure_parser = commands.add_parser("figure", help="regenerate a paper figure")
    figure_parser.set_defaults(handler=_command_figure)
    figure_parser.add_argument("figure_id", choices=tuple(FIGURES))
    figure_parser.add_argument("--scale", choices=sorted(_SCALES), default="test")

    attack_parser = commands.add_parser(
        "attack", help="run the trusted-node identification attack",
        parents=[_flags(*_TOPOLOGY, "--rounds")],
    )
    attack_parser.set_defaults(handler=_command_attack, nodes=200, f=0.20, t=0.20,
                               rounds=20)

    trace_parser = commands.add_parser(
        "trace", help="run one scenario with telemetry and export the trace",
        parents=[_flags("--protocol", *_TOPOLOGY, "--rounds")],
    )
    trace_parser.set_defaults(handler=_command_trace, nodes=50, f=0.10, t=0.10,
                              rounds=30)
    trace_parser.add_argument("--metrics-out", metavar="PATH",
                              help="also write the metrics registry CSV here")
    trace_parser.add_argument("--scenario", default=None, metavar="NAME",
                              help="run this catalog scenario (repro vectors "
                                   "list); --protocol, --rounds and the "
                                   "topology flags are then ignored")
    trace_parser.add_argument("--out", default="trace.jsonl",
                              help="JSONL trace output path")
    trace_parser.add_argument("--no-message-events", action="store_true",
                              help="omit per-message net.*/fault.drop events")
    trace_parser.add_argument("--ecall-events", action="store_true",
                              help="emit one trace event per SGX ECALL")

    snapshot_parser = commands.add_parser(
        "snapshot", help="inspect run snapshots (see repro.snapshot)"
    )
    # A nested subcommand takes over `command`: the leaf names what runs.
    snapshot_commands = snapshot_parser.add_subparsers(dest="command", required=True)
    info_parser = snapshot_commands.add_parser("info", help="print a snapshot header")
    info_parser.set_defaults(handler=_command_snapshot_info)
    info_parser.add_argument("path")

    vectors_parser = commands.add_parser(
        "vectors", help="generate/verify conformance vectors (see repro.scenario)"
    )
    vectors_commands = vectors_parser.add_subparsers(dest="command", required=True)
    generate_parser = vectors_commands.add_parser(
        "generate", help="run catalog scenarios and write golden vectors",
        parents=[_flags("--dir")],
    )
    generate_parser.set_defaults(handler=_command_vectors_generate)
    generate_parser.add_argument("--only", action="append", default=None,
                                 metavar="NAME",
                                 help="generate only this scenario "
                                      "(repeatable; default: whole catalog)")
    verify_parser = vectors_commands.add_parser(
        "verify", help="replay committed vectors and report drift",
        parents=[_flags("--dir")],
    )
    verify_parser.set_defaults(handler=_command_vectors_verify)
    verify_parser.add_argument("--report", default=None, metavar="PATH",
                               help="write a JSON drift report here")
    list_parser = vectors_commands.add_parser(
        "list", help="list catalog scenarios and committed vectors",
        parents=[_flags("--dir")],
    )
    list_parser.set_defaults(handler=_command_vectors_list)

    return parser


class _UsageError(Exception):
    """A flag value or combination a command refuses: :func:`main` prints
    it as ``error: …`` and exits 2, like a spec field the scenario refuses."""


def _spec_from_args(args) -> ScenarioSpec:
    """The scenario a ``run`` / ``trace`` / ``attack`` command line describes
    — the only place flags become a scenario.  A flag the subcommand lacks
    keeps the spec's default; ``EngineSpec`` validates the engine strings
    and a refused topology value names its ``topology.<field>``."""
    flags = vars(args)
    protocol = flags.get("protocol", "raptee")
    raptee = protocol == "raptee"
    topology = _construct(TopologySpec, dict(
        n_nodes=args.nodes,
        byzantine_fraction=args.f,
        trusted_fraction=args.t if raptee else 0.0,
        poisoned_fraction=flags.get("poisoned", 0.0) if raptee else 0.0,
        view_ratio=args.view_ratio,
        loss_rate=flags.get("loss", 0.0),
    ), "topology")
    if flags.get("shards") is not None:
        engine = EngineSpec(kind="shard", shards=args.shards)
    elif flags.get("engine") == "events":
        engine = EngineSpec(
            kind="events",
            tick_interval=args.tick_interval,
            latency=args.latency_model,
        )
    else:
        engine = EngineSpec()
    options = None
    if raptee:
        # `attack` arms the §VI-A intelligence: every Byzantine node issues
        # β·l1 pull probes per round.
        probes = topology.brahms_config().beta_count if args.command == "attack" else 0
        options = RapteeConfig(
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
    yield "cycles", f"{engine.cycles} (late {100.0 * engine.late_fraction:.1f}%)"


def _command_run_events(args) -> int:
    artifacts = run_scenario(_spec_from_args(args), telemetry=None)
    _report(args.protocol, artifacts.spec.topology, artifacts.spec.rounds,
            artifacts.metrics, _events_lines(artifacts.bundle.engine))
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
    # A flag for an engine that was not selected would be silently ignored.
    if args.shards is None and args.shard_workers != 1:
        raise _UsageError("--shard-workers only applies with --shards N")
    for flag, value in (("--shards", args.shards),
                        ("--shard-workers", args.shard_workers)):
        if value is not None and value < 1:
            raise _UsageError(f"{flag} must be at least 1")
    if args.engine != "events":
        for flag, given in (
            ("--latency-model", args.latency_model is not None),
            ("--tick-interval", args.tick_interval != DEFAULT_TICK_INTERVAL),
        ):
            if given:
                raise _UsageError(f"{flag} only applies with --engine events")
    if args.shards is not None and args.engine == "events":
        raise _UsageError("--shards selects the sharded rounds engine; it has no "
                          "event clock (drop --engine events)")
    other_engine = ("the shard engine" if args.shards is not None
                    else "--engine events" if args.engine == "events" else None)
    if other_engine and (args.resume or args.checkpoint_every or args.checkpoint_out):
        raise _UsageError(f"{other_engine} has no snapshot support; use the default "
                          "rounds engine with --resume/--checkpoint-every/--checkpoint-out")
    if args.shards is not None:
        return _command_shard_run(args)
    if args.engine == "events":
        return _command_run_events(args)
    # The resume rule, checked before any round runs or any checkpoint is
    # written: run to --rounds (unset: the stored target), saving every
    # --checkpoint-every rounds to --checkpoint-out, else to the resumed
    # file itself, else to DEFAULT_CHECKPOINT.
    if args.checkpoint_every < 0:
        raise _UsageError(
            f"--checkpoint-every: must be non-negative, got {args.checkpoint_every}")
    if args.checkpoint_out and not args.checkpoint_every:
        raise _UsageError("--checkpoint-out: names where --checkpoint-every N "
                          "saves; nothing is saved without it")
    if args.resume:
        bundle = restore(args.resume)
    else:
        bundle = compile_spec(_spec_from_args(args))
    checkpoint_path = None
    if args.checkpoint_every:
        checkpoint_path = args.checkpoint_out or args.resume or DEFAULT_CHECKPOINT
    run_with_checkpoints(bundle, rounds=args.rounds,
                         checkpoint_every=args.checkpoint_every,
                         checkpoint_path=checkpoint_path)
    spec, rounds = bundle.spec, bundle.simulation.round_number
    _report(spec.protocol, spec.topology, rounds, bundle_metrics(bundle, rounds))
    if checkpoint_path:
        _line("checkpoint", checkpoint_path)
    return 0


def _command_figure(args) -> int:
    print(run_figure(FIGURES[args.figure_id], _SCALES[args.scale]).render())
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


def _command_trace(args) -> int:
    config = TelemetryConfig(
        trace_messages=not args.no_message_events,
        trace_ecalls=args.ecall_events,
    )
    if args.scenario is None:
        spec = _spec_from_args(args)
    else:
        try:
            spec = get_spec(args.scenario)
        except KeyError as error:
            raise _UsageError(f"--scenario: {error.args[0]}") from None
    # A fault list on a per-node engine is a drill: audit every round.
    check = bool(spec.faults) and spec.engine.kind != "shard"
    artifacts = run_scenario(spec, telemetry=config, check_invariants=check)
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
    checker = artifacts.checker
    if checker is None:
        return 0
    print()
    for violation in checker.violations:
        print(violation.describe())
    print(f"invariants: {checker.rounds_checked} rounds checked, "
          f"{len(checker.violations)} violation(s)")
    return 1 if checker.violations else 0


def _command_snapshot_info(args) -> int:
    header = describe(args.path)
    meta = header.get("meta", {})
    print(f"snapshot:           {args.path}")
    print(f"format version:     {header['format_version']}")
    print(f"kind:               {header['kind']}")
    print(f"payload bytes:      {header['payload_bytes']}")
    for key in sorted(meta):
        print(f"{key + ':':<20}{meta[key]}")
    return 0


def _command_vectors_generate(args) -> int:
    try:
        specs = [get_spec(name) for name in args.only] if args.only else catalog_specs()
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    os.makedirs(args.dir, exist_ok=True)
    for spec in specs:
        path = vector_path(args.dir, spec.name)
        sections = generate_vector(spec, path)
        print(f"generated {path}  "
              f"(trace {sections['trace_digest']['sha256'][:12]}, "
              f"metrics {sections['metrics_digest']['sha256'][:12]})")
    print(f"{len(specs)} vector(s) written to {args.dir}/")
    return 0


def _command_vectors_verify(args) -> int:
    if not os.path.isdir(args.dir):
        print(f"error: vector directory {args.dir!r} does not exist",
              file=sys.stderr)
        return 2
    paths = vector_files(args.dir)
    if not paths:
        print(f"error: no {VECTOR_SUFFIX} files in {args.dir!r}",
              file=sys.stderr)
        return 2
    results = []
    failed = False
    for path in paths:
        try:
            result = verify_vector(path)
        except (VectorError, SnapshotError, ScenarioSpecError) as exc:
            print(f"FAIL  {path}: {exc}")
            failed = True
            continue
        results.append(result)
        if result.ok:
            print(f"ok    {result.name}")
        else:
            failed = True
            drifted = ", ".join(sorted(result.drifted))
            print(f"DRIFT {result.name}: sections [{drifted}]")
    if args.report is not None:
        with open(args.report, "w", encoding="utf-8") as stream:
            json.dump(drift_report(results), stream, indent=2, sort_keys=True)
            stream.write("\n")
        print(f"report: {args.report}")
    matched = sum(1 for result in results if result.ok)
    print(f"{matched}/{len(paths)} vector(s) match")
    return 1 if failed else 0


def _command_vectors_list(args) -> int:
    committed = set()
    if os.path.isdir(args.dir):
        committed = {
            os.path.basename(path)[: -len(VECTOR_SUFFIX)]
            for path in vector_files(args.dir)
        }
    for spec in catalog_specs():
        marker = "*" if spec.name in committed else " "
        print(f"{marker} {spec.name:40s} {spec.describe()}")
    extras = committed - {entry["name"] for entry in CATALOG}
    for name in sorted(extras):
        print(f"+ {name:40s} (committed vector not in the catalog)")
    print(f"{len(CATALOG)} catalog scenario(s), {len(committed)} committed "
          f"vector(s) in {args.dir}/ (* = committed, + = extra)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Every command's round target, whatever the engine, before anything
        # is built or restored (unset: the command's default or the
        # checkpoint's stored target).
        rounds = getattr(args, "rounds", None)
        if rounds is not None and rounds < 1:
            raise _UsageError(f"--rounds: must be a positive round target, got {rounds}")
        return args.handler(args)
    except (_UsageError, ScenarioSpecError, ShardUnsupportedError) as error:
        # A flag value the command or the spec rejects, or a feature
        # `--shards` does not model: report the flag, field or feature.
        print(f"error: {error}", file=sys.stderr)
        return 2
    except (SnapshotError, OSError) as error:
        # A corrupt, missing or version-mismatched snapshot (or a path the
        # command cannot read or write) is an operator-facing failure, not
        # a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 1
