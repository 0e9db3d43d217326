"""Conformance vector CLI: ``python -m repro.scenario <command>`` (also
reachable as ``repro vectors <command>``).

* ``generate`` — run every catalog scenario (or ``--only NAME``s) and
  write the golden vectors into the vector directory;
* ``verify`` — replay every committed vector against the current code
  and report drift (optionally as a JSON report for CI artifacts);
* ``list`` — one line per catalog scenario / committed vector.

Exit codes are part of the contract (pinned by tests): 0 all vectors
match, 1 drift or integrity failure, 2 usage errors (unknown scenario,
missing directory/file).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.scenario.catalog import CATALOG, catalog_specs, get_spec
from repro.scenario.errors import ScenarioSpecError, VectorError
from repro.scenario.vectors import (
    drift_report,
    generate_vector,
    read_vector,
    verify_vector,
)
from repro.snapshot.format import SnapshotError

__all__ = ["main", "build_parser", "DEFAULT_VECTOR_DIR", "vector_path"]

#: Repo-relative home of the committed golden vectors.
DEFAULT_VECTOR_DIR = "vectors"

VECTOR_SUFFIX = ".vec"


def vector_path(directory: str, name: str) -> str:
    return os.path.join(directory, f"{name}{VECTOR_SUFFIX}")


def _vector_files(directory: str) -> List[str]:
    return sorted(
        os.path.join(directory, entry)
        for entry in os.listdir(directory)
        if entry.endswith(VECTOR_SUFFIX)
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro vectors", description="conformance vector tooling"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate_parser = subparsers.add_parser(
        "generate", help="run catalog scenarios and write golden vectors"
    )
    generate_parser.add_argument("--dir", default=DEFAULT_VECTOR_DIR,
                                 help="vector directory (default: vectors/)")
    generate_parser.add_argument("--only", action="append", default=None,
                                 metavar="NAME",
                                 help="generate only this scenario "
                                      "(repeatable; default: whole catalog)")

    verify_parser = subparsers.add_parser(
        "verify", help="replay committed vectors and report drift"
    )
    verify_parser.add_argument("--dir", default=DEFAULT_VECTOR_DIR,
                               help="vector directory (default: vectors/)")
    verify_parser.add_argument("--report", default=None, metavar="PATH",
                               help="write a JSON drift report here")

    list_parser = subparsers.add_parser(
        "list", help="list catalog scenarios and committed vectors"
    )
    list_parser.add_argument("--dir", default=DEFAULT_VECTOR_DIR,
                             help="vector directory (default: vectors/)")

    return parser


def _command_generate(args) -> int:
    try:
        if args.only:
            specs = [get_spec(name) for name in args.only]
        else:
            specs = catalog_specs()
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


def _command_verify(args) -> int:
    if not os.path.isdir(args.dir):
        print(f"error: vector directory {args.dir!r} does not exist",
              file=sys.stderr)
        return 2
    paths = _vector_files(args.dir)
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


def _command_list(args) -> int:
    committed = set()
    if os.path.isdir(args.dir):
        committed = {
            os.path.basename(path)[: -len(VECTOR_SUFFIX)]
            for path in _vector_files(args.dir)
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
    handlers = {
        "generate": _command_generate,
        "verify": _command_verify,
        "list": _command_list,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
