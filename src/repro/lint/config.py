"""Configuration for :mod:`repro.lint`, read from ``[tool.repro-lint]``.

The table in ``pyproject.toml`` supports::

    [tool.repro-lint]
    paths = ["src", "tests"]      # default roots when the CLI gets none
    disable = ["rule-id"]         # rules switched off project-wide
    exclude = ["repro/vendored"]  # scope-path prefixes never linted

    [tool.repro-lint.scopes]
    "purity-print" = ["repro/sim", "repro/brahms"]  # override a rule's scope

Python 3.11+ parses the file with :mod:`tomllib`; on older interpreters a
minimal fallback parser handles exactly the subset above (string arrays and
strings) so the linter stays dependency-free.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["LintConfig", "load_config", "find_pyproject"]

try:  # Python >= 3.11
    import tomllib
except ImportError:  # pragma: no cover - exercised only on < 3.11
    tomllib = None


@dataclass
class LintConfig:
    """Resolved linter configuration."""

    paths: Tuple[str, ...] = ("src",)
    disable: Tuple[str, ...] = ()
    enable_only: Tuple[str, ...] = ()
    exclude: Tuple[str, ...] = ()
    scopes: Dict[str, List[str]] = field(default_factory=dict)

    def rule_enabled(self, rule_id: str) -> bool:
        if self.enable_only:
            return rule_id in self.enable_only
        return rule_id not in self.disable

    def scope_override(self, rule_id: str) -> Optional[List[str]]:
        return self.scopes.get(rule_id)

    def excluded(self, scope_path: str) -> bool:
        return any(
            scope_path == prefix or scope_path.startswith(prefix.rstrip("/") + "/")
            for prefix in self.exclude
        )


def find_pyproject(start: Optional[str] = None) -> Optional[str]:
    """Walk upward from ``start`` (default: cwd) looking for pyproject.toml."""
    directory = os.path.abspath(start or os.getcwd())
    while True:
        candidate = os.path.join(directory, "pyproject.toml")
        if os.path.isfile(candidate):
            return candidate
        parent = os.path.dirname(directory)
        if parent == directory:
            return None
        directory = parent


def load_config(pyproject_path: Optional[str] = None) -> LintConfig:
    """Load ``[tool.repro-lint]``; missing file or table yields defaults."""
    path = pyproject_path or find_pyproject()
    if path is None or not os.path.isfile(path):
        return LintConfig()
    with open(path, "rb") as handle:
        raw = handle.read()
    if tomllib is not None:
        try:
            document = tomllib.loads(raw.decode("utf-8"))
        except tomllib.TOMLDecodeError:
            return LintConfig()
        table = document.get("tool", {}).get("repro-lint", {})
    else:  # pragma: no cover - exercised only on < 3.11
        table = _parse_minimal_toml_table(raw.decode("utf-8"))
    scopes_table = table.get("scopes", {})
    return LintConfig(
        paths=tuple(table.get("paths", ("src",))),
        disable=tuple(table.get("disable", ())),
        enable_only=tuple(table.get("enable", ())),
        exclude=tuple(table.get("exclude", ())),
        scopes={str(key): list(value) for key, value in scopes_table.items()},
    )


_SECTION_RE = re.compile(r"^\[(?P<name>[^\]]+)\]\s*$")
_KEY_VALUE_RE = re.compile(r"^(?P<key>[\w\-\"']+)\s*=\s*(?P<value>.+)$")


def _parse_minimal_toml_table(text: str) -> Dict[str, object]:
    """Tiny TOML subset parser for ``[tool.repro-lint]`` on Python < 3.11.

    Handles string scalars and arrays of strings — on one line or spread
    over several, as the repo's own ``scopes`` table is — which is all the
    lint table uses.  Anything unrecognised is ignored.
    """
    table: Dict[str, object] = {}
    current: Optional[Dict[str, object]] = None
    pending = ""  # a ``key = [`` entry still waiting for its closing bracket
    for line in text.splitlines():
        stripped = line.split("#")[0].strip()
        if not stripped:
            continue
        section = None if pending else _SECTION_RE.match(stripped)
        if section:
            name = section.group("name").strip()
            if name == "tool.repro-lint":
                current = table
            elif name == "tool.repro-lint.scopes":
                scopes: Dict[str, object] = {}
                table["scopes"] = scopes
                current = scopes
            else:
                current = None
            continue
        if current is None:
            continue
        stripped = f"{pending} {stripped}".strip()
        if stripped.count("[") > stripped.count("]"):
            pending = stripped
            continue
        pending = ""
        pair = _KEY_VALUE_RE.match(stripped)
        if not pair:
            continue
        key = pair.group("key").strip("\"'")
        current[key] = _parse_value(pair.group("value").strip())
    return table


def _parse_value(value: str) -> object:
    if value.startswith("[") and value.endswith("]"):
        inner = value[1:-1].strip()
        if not inner:
            return []
        return [item.strip().strip("\"'") for item in inner.split(",") if item.strip()]
    return value.strip("\"'")
