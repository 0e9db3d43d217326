"""``python -m repro.lint`` — run the invariant checks from the shell.

Exit codes: 0 = clean, 1 = findings at or above ``--fail-on`` severity,
2 = usage error.
"""
# lint: disable-file=purity-print -- this is the CLI entry point: printing
# reports/usage errors to the terminal is its entire purpose, like
# snapshot's __main__.

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

import dataclasses

from repro.lint.config import LintConfig, load_config
from repro.lint.core import LintRunner, Severity, registered_rules
from repro.lint.reporter import render_json, render_text

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="AST-based invariant checks for the RAPTEE reproduction",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: [tool.repro-lint].paths)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--config", default=None,
        help="pyproject.toml to read [tool.repro-lint] from (default: search upward)",
    )
    parser.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule ids to run exclusively",
    )
    parser.add_argument(
        "--disable", default=None, metavar="RULES",
        help="comma-separated rule ids to skip (adds to config)",
    )
    parser.add_argument(
        "--fail-on", choices=("note", "warning", "error"), default="warning",
        help="minimum severity that causes a non-zero exit (default: warning)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list every registered rule and exit",
    )
    return parser


def _list_rules() -> str:
    lines = []
    for rule in registered_rules():
        scope = ", ".join(rule.scope) if rule.scope else "everywhere"
        lines.append(
            f"{rule.rule_id:26s} {rule.severity.name.lower():8s} "
            f"[{scope}] {rule.description}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    config = load_config(args.config)

    # A typo'd rule id or path must not silently disable the gate: CI would
    # go green with nothing linted.
    known_rules = {rule.rule_id for rule in registered_rules()}
    requested = []
    for option in (args.select, args.disable):
        if option:
            requested.extend(r.strip() for r in option.split(",") if r.strip())
    unknown = sorted(set(requested) - known_rules)
    if unknown:
        print(
            f"repro.lint: unknown rule id(s): {', '.join(unknown)} "
            f"(see --list-rules)",
            file=sys.stderr,
        )
        return 2

    if args.select:
        config = dataclasses.replace(
            config,
            enable_only=tuple(r.strip() for r in args.select.split(",") if r.strip()),
        )
    if args.disable:
        config = dataclasses.replace(
            config,
            disable=config.disable
            + tuple(r.strip() for r in args.disable.split(",") if r.strip()),
        )

    paths = args.paths or list(config.paths)
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        print(
            f"repro.lint: no such path(s): {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2

    findings = LintRunner(config=config).lint_paths(paths)
    print(render_json(findings) if args.format == "json" else render_text(findings))

    threshold = Severity.from_name(args.fail_on)
    return 1 if any(f.severity >= threshold for f in findings) else 0


if __name__ == "__main__":  # pragma: no cover - module CLI shim
    sys.exit(main())
