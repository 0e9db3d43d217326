"""Sim-purity rules.

Protocol hot paths run millions of times per experiment; a stray ``print``
or file handle in them wrecks throughput, interleaves nondeterministically
under future sharded/async engines (ROADMAP), and couples protocol logic to
the host environment.  All I/O belongs in the CLI, ``repro.experiments`` and
``repro.analysis`` layers.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.lint.core import Finding, ModuleInfo, Rule, Severity, register_rule

__all__ = ["PrintRule", "IoRule"]

#: Packages that constitute the pure simulation core.
PURE_SCOPE: Tuple[str, ...] = (
    "repro/sim",
    "repro/brahms",
    "repro/core",
    "repro/adversary",
    "repro/sgx",
    "repro/crypto",
)

_BANNED_MODULES = {
    "socket": "network I/O",
    "subprocess": "process spawning",
    "urllib": "network I/O",
    "http": "network I/O",
    "requests": "network I/O",
    "asyncio": "event-loop scheduling (belongs in the engine layer)",
}


@register_rule
class PrintRule(Rule):
    """No ``print`` in the simulation core."""

    rule_id = "purity-print"
    description = "print() inside a protocol hot path"
    rationale = (
        "Output from protocol code interleaves nondeterministically once "
        "the engine shards; reporting belongs to repro.experiments / "
        "repro.analysis / the CLI."
    )
    severity = Severity.WARNING
    scope = PURE_SCOPE

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.finding(
                    module, node,
                    "print() in protocol code; return data and let the "
                    "experiments/analysis layer report it",
                )


@register_rule
class IoRule(Rule):
    """No file/network/process I/O in the simulation core."""

    rule_id = "purity-io"
    description = "file/network/process I/O inside a protocol hot path"
    rationale = (
        "The simulation core must be a pure function of (config, seed); "
        "I/O introduces environment dependence and latency the cycle "
        "accountant cannot model."
    )
    severity = Severity.ERROR
    scope = PURE_SCOPE

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id == "open":
                    yield self.finding(
                        module, node,
                        "open() in protocol code; persistence belongs to "
                        "the experiments layer",
                    )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in _BANNED_MODULES:
                        yield self.finding(
                            module, node,
                            f"import {alias.name}: {_BANNED_MODULES[root]} "
                            f"is off-limits in the simulation core",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module:
                root = node.module.split(".")[0]
                if root in _BANNED_MODULES:
                    yield self.finding(
                        module, node,
                        f"from {node.module} import ...: "
                        f"{_BANNED_MODULES[root]} is off-limits in the "
                        f"simulation core",
                    )
