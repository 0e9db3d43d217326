"""Snapshot tooling CLI: ``python -m repro.snapshot <command>``.

* ``info <path>`` — print a snapshot's header (format version, kind,
  rounds completed/total, label, node count) without unpickling it;
* ``resume <path>`` — restore a checkpoint in this fresh process, run it
  to its round target (or ``--rounds``), optionally re-checkpointing, and
  optionally export the full trace JSONL / metrics CSV.

``resume`` is what the snapshot differential test and the CI smoke job
drive: restoring in a *new interpreter* and exporting the artifacts is the
honest form of the byte-identical-resume claim.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.snapshot.capture import describe, restore
from repro.snapshot.format import SnapshotError
from repro.snapshot.resume import run_with_checkpoints

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.snapshot", description="simulation snapshot tooling"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    info_parser = subparsers.add_parser("info", help="print a snapshot header")
    info_parser.add_argument("path")

    resume_parser = subparsers.add_parser(
        "resume", help="restore a checkpoint and run it to completion"
    )
    resume_parser.add_argument("path")
    resume_parser.add_argument("--rounds", type=int, default=None,
                               help="override the stored round target")
    resume_parser.add_argument("--checkpoint-every", type=int, default=0,
                               metavar="N", help="keep checkpointing every N rounds")
    resume_parser.add_argument("--checkpoint-out", default=None, metavar="PATH",
                               help="checkpoint path (default: the input path)")
    resume_parser.add_argument("--trace-out", default=None, metavar="PATH",
                               help="export the telemetry trace JSONL here")
    resume_parser.add_argument("--metrics-out", default=None, metavar="PATH",
                               help="export the metrics registry CSV here")

    return parser


def _command_info(args) -> int:
    header = describe(args.path)
    meta = header.get("meta", {})
    print(f"snapshot:           {args.path}")
    print(f"format version:     {header['format_version']}")
    print(f"kind:               {header['kind']}")
    print(f"payload bytes:      {header['payload_bytes']}")
    for key in sorted(meta):
        print(f"{key + ':':<20}{meta[key]}")
    return 0


def _command_resume(args) -> int:
    state = restore(args.path)
    before = state.rounds_completed
    checkpoint_path = args.checkpoint_out or (
        args.path if args.checkpoint_every else None
    )
    run_with_checkpoints(
        state,
        rounds=args.rounds,
        checkpoint_every=args.checkpoint_every,
        checkpoint_path=checkpoint_path,
    )
    print(f"resumed:            round {before} -> {state.rounds_completed}"
          + (f" ({state.label})" if state.label else ""))

    if args.trace_out or args.metrics_out:
        from repro.telemetry import metrics_to_csv, trace_to_jsonl

        telemetry = state.simulation.telemetry
        if telemetry is None:
            print("error: snapshot has no telemetry wired; nothing to export",
                  file=sys.stderr)
            return 1
        if args.trace_out:
            if telemetry.trace is None:
                print("error: tracing was disabled in this run", file=sys.stderr)
                return 1
            with open(args.trace_out, "w", encoding="utf-8") as stream:
                stream.write(trace_to_jsonl(telemetry.trace.events))
            print(f"trace:              {args.trace_out} "
                  f"({len(telemetry.trace)} events)")
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as stream:
                stream.write(metrics_to_csv(telemetry.registry))
            print(f"metrics:            {args.metrics_out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"info": _command_info, "resume": _command_resume}
    try:
        return handlers[args.command](args)
    except (SnapshotError, OSError) as error:
        # SnapshotVersionError included: a mismatched or corrupt snapshot is
        # an expected operator-facing failure, not a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - module CLI shim
    sys.exit(main())
