"""AST-based static-analysis framework for the RAPTEE reproduction.

The simulator's correctness claims rest on invariants that ordinary tests
cannot enforce — bit-for-bit determinism under a seed, a hard trusted /
untrusted boundary around :class:`~repro.sgx.enclave.Enclave` code, and
crypto hygiene (constant-time comparisons, no OS entropy).  This module
provides the machinery that project-specific rules plug into:

* :class:`Rule` — one named per-file check with a severity and a path scope;
* :class:`Finding` — one violation, pointing at a file/line/column;
* :class:`ModuleInfo` — a parsed source file handed to every rule;
* :class:`LintRunner` — walks paths, parses each file once, applies every
  rule whose scope matches and honours suppressions.

Suppressions are inline comments::

    bad_call()          # lint: disable=rule-id[,other-rule] -- justification
    # lint: disable-next=rule-id -- justification (suppresses the next line)
    # lint: disable-file=rule-id -- justification (whole file)

``disable=all`` silences every rule for that line.  Suppressing an
ERROR-severity rule **requires** the ``-- justification`` clause; a bare
suppression of an error rule earns a ``lint-unjustified-suppression`` NOTE.
"""

from __future__ import annotations

import ast
import enum
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Type

__all__ = [
    "Severity",
    "Finding",
    "ModuleInfo",
    "Rule",
    "LintRunner",
    "register_rule",
    "registered_rules",
    "lint_source",
    "scope_path_for",
    "type_checking_lines",
    "module_import_aliases",
    "PARSE_ERROR_RULE_ID",
    "UNJUSTIFIED_SUPPRESSION_RULE_ID",
]

PARSE_ERROR_RULE_ID = "parse-error"
UNJUSTIFIED_SUPPRESSION_RULE_ID = "lint-unjustified-suppression"

_SUPPRESSION_RE = re.compile(
    r"#\s*lint:\s*(?P<kind>disable(?:-next|-file)?)\s*=\s*(?P<rules>[A-Za-z0-9_\-,\s]+)"
)


class Severity(enum.IntEnum):
    """Finding severity; the CLI exit code only considers WARNING and above."""

    NOTE = 10
    WARNING = 20
    ERROR = 30

    @classmethod
    def from_name(cls, name: str) -> "Severity":
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {name!r}; expected one of "
                f"{[member.name.lower() for member in cls]}"
            ) from None


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    line: int
    col: int
    rule_id: str
    severity: Severity
    message: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "severity": self.severity.name.lower(),
            "message": self.message,
        }

    def format_text(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity.name.lower()}: [{self.rule_id}] {self.message}"
        )


@dataclass(frozen=True)
class SuppressionRecord:
    """One ``# lint: disable...`` comment, as written."""

    kind: str                 # disable | disable-next | disable-file
    line: int
    rule_ids: Tuple[str, ...]
    has_justification: bool


@dataclass
class _Suppressions:
    """Per-file suppression state parsed from comments."""

    by_line: Dict[int, Set[str]] = field(default_factory=dict)
    whole_file: Set[str] = field(default_factory=set)
    records: List[SuppressionRecord] = field(default_factory=list)

    def is_suppressed(self, finding: Finding) -> bool:
        if finding.rule_id in self.whole_file or "all" in self.whole_file:
            return True
        rules = self.by_line.get(finding.line, ())
        return finding.rule_id in rules or "all" in rules


def _parse_suppressions(source: str) -> _Suppressions:
    suppressions = _Suppressions()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (token.start[0], token.string)
            for token in tokens
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        comments = [
            (number, line)
            for number, line in enumerate(source.splitlines(), start=1)
            if "#" in line
        ]
    for line_number, text in comments:
        match = _SUPPRESSION_RE.search(text)
        if not match:
            continue
        # Everything after a ``--`` is a human justification, not a rule id.
        raw_rules = match.group("rules").split("--")[0]
        rule_ids = tuple(
            dict.fromkeys(r.strip() for r in raw_rules.split(",") if r.strip())
        )
        if not rule_ids:
            continue
        remainder = text[match.start("rules"):]
        separator = remainder.find("--")
        justification = remainder[separator + 2:].strip() if separator >= 0 else ""
        kind = match.group("kind")
        suppressions.records.append(
            SuppressionRecord(
                kind=kind,
                line=line_number,
                rule_ids=rule_ids,
                has_justification=bool(justification),
            )
        )
        ids = set(rule_ids)
        if kind == "disable-file":
            suppressions.whole_file |= ids
        elif kind == "disable-next":
            suppressions.by_line.setdefault(line_number + 1, set()).update(ids)
        else:
            suppressions.by_line.setdefault(line_number, set()).update(ids)
    return suppressions


def scope_path_for(path: str) -> str:
    """Map a filesystem path to the scope path rules match against.

    The portion after the last ``src/`` segment is used when present, so
    ``src/repro/sim/engine.py`` scopes as ``repro/sim/engine.py``.  For
    paths under a ``tests``/``benchmarks``/``examples`` root (relative or
    absolute) the scope starts at that root, e.g. ``tests/test_cli.py``.
    """
    normalized = path.replace(os.sep, "/")
    parts = [part for part in normalized.split("/") if part not in ("", ".")]
    if "src" in parts:
        index = len(parts) - 1 - parts[::-1].index("src")
        tail = parts[index + 1 :]
        if tail:
            return "/".join(tail)
    for marker in ("tests", "benchmarks", "examples"):
        if marker in parts:
            index = len(parts) - 1 - parts[::-1].index(marker)
            return "/".join(parts[index:])
    return "/".join(parts)


def type_checking_lines(tree: ast.AST) -> Set[int]:
    """Line numbers covered by ``if TYPE_CHECKING:`` blocks.

    Imports inside these blocks never execute at runtime, so rules about
    runtime behaviour (e.g. stdlib ``random`` reaching crypto code) skip
    them.
    """
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        is_type_checking = (
            isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"
        ) or (isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")
        if not is_type_checking:
            continue
        for child in node.body:
            end = getattr(child, "end_lineno", child.lineno)
            lines.update(range(child.lineno, end + 1))
    return lines


def module_import_aliases(tree: ast.AST, module_name: str) -> Set[str]:
    """Names the given top-level module is bound to (``import x as y``)."""
    aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root == module_name:
                    aliases.add(alias.asname or root)
    return aliases


@dataclass
class ModuleInfo:
    """A parsed source file, as handed to every rule."""

    path: str
    scope_path: str
    source: str
    tree: ast.Module
    type_checking: Set[int] = field(default_factory=set)

    @classmethod
    def from_source(cls, source: str, path: str, scope_path: Optional[str] = None) -> "ModuleInfo":
        tree = ast.parse(source, filename=path)
        return cls(
            path=path,
            scope_path=scope_path if scope_path is not None else scope_path_for(path),
            source=source,
            tree=tree,
            type_checking=type_checking_lines(tree),
        )

    def import_aliases(self, module_name: str) -> Set[str]:
        return module_import_aliases(self.tree, module_name)


def _matches_prefix(scope_path: str, prefix: str) -> bool:
    return scope_path == prefix or scope_path.startswith(prefix.rstrip("/") + "/")


class Rule:
    """Base class for one lint check.

    Subclasses set ``rule_id``, ``description``, ``severity``, a path
    ``scope`` (prefixes relative to ``src/``; empty means *everywhere*) and
    optional ``exempt`` prefixes carved out of the scope, then implement
    :meth:`check` as a generator of findings.
    """

    rule_id: str = ""
    description: str = ""
    rationale: str = ""
    severity: Severity = Severity.ERROR
    scope: Tuple[str, ...] = ()
    exempt: Tuple[str, ...] = ()

    def applies_to(self, module: ModuleInfo) -> bool:
        scope_path = module.scope_path
        if any(_matches_prefix(scope_path, prefix) for prefix in self.exempt):
            return False
        if not self.scope:
            return True
        return any(_matches_prefix(scope_path, prefix) for prefix in self.scope)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        module: ModuleInfo,
        node: ast.AST,
        message: str,
        severity: Optional[Severity] = None,
    ) -> Finding:
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=self.rule_id,
            severity=severity if severity is not None else self.severity,
            message=message,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} has no rule_id")
    if cls.rule_id in _REGISTRY and _REGISTRY[cls.rule_id] is not cls:
        raise ValueError(f"duplicate rule id {cls.rule_id!r}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def registered_rules() -> List[Rule]:
    """Fresh instances of every registered rule, importing the battery."""
    # Import for the side effect of registration; cheap and idempotent.
    from repro.lint import rules as _rules  # noqa: F401

    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def _registered_severity(rule_id: str) -> Optional[Severity]:
    cls = _REGISTRY.get(rule_id)
    return cls.severity if cls is not None else None


@register_rule
class UnjustifiedSuppressionRule(Rule):
    """Suppressing an ERROR rule without saying why.

    The check itself runs inside :meth:`LintRunner.lint_source` (it needs
    the parsed suppression table, which rules never see); this
    class exists so the rule is listed, configurable and disableable like
    any other.
    """

    rule_id = UNJUSTIFIED_SUPPRESSION_RULE_ID
    description = "ERROR-severity rule suppressed without a -- justification"
    rationale = (
        "A suppression is a claim that the checker is wrong here; for "
        "error-severity invariants that claim must be reviewable, which "
        "means written down next to the suppression itself."
    )
    severity = Severity.NOTE
    scope = ()

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        return iter(())


def _unjustified_suppression_findings(
    path: str, suppressions: _Suppressions
) -> List[Finding]:
    findings = []
    for record in suppressions.records:
        if record.has_justification:
            continue
        demanding = [
            rule_id
            for rule_id in record.rule_ids
            if rule_id == "all"
            or _registered_severity(rule_id) in (None, Severity.ERROR)
        ]
        if not demanding:
            continue
        findings.append(
            Finding(
                path=path,
                line=record.line,
                col=1,
                rule_id=UNJUSTIFIED_SUPPRESSION_RULE_ID,
                severity=Severity.NOTE,
                message=(
                    f"{record.kind}={','.join(demanding)} suppresses an "
                    f"error-severity rule without a '-- justification' clause"
                ),
            )
        )
    return findings


class LintRunner:
    """Applies a rule battery over paths, one AST pass per file."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None, config=None):
        from repro.lint.config import LintConfig  # local import to avoid cycle

        self.config = config if config is not None else LintConfig()
        all_rules = list(rules) if rules is not None else registered_rules()
        self.rules = [rule for rule in all_rules if self.config.rule_enabled(rule.rule_id)]
        for rule in self.rules:
            override = self.config.scope_override(rule.rule_id)
            if override is not None:
                rule.scope = tuple(override)

    def collect_files(self, paths: Iterable[str]) -> List[str]:
        files: List[str] = []
        for path in paths:
            if os.path.isdir(path):
                for dirpath, dirnames, filenames in os.walk(path):
                    dirnames.sort()  # deterministic traversal
                    dirnames[:] = [d for d in dirnames if d != "__pycache__"]
                    for name in sorted(filenames):
                        if name.endswith(".py"):
                            files.append(os.path.join(dirpath, name))
            elif path.endswith(".py"):
                files.append(path)
        return [f for f in files if not self.config.excluded(scope_path_for(f))]

    def lint_source(self, source: str, path: str, scope_path: Optional[str] = None) -> List[Finding]:
        """Sorted, unsuppressed findings for one source text."""
        resolved_scope = scope_path if scope_path is not None else scope_path_for(path)
        suppressions = _parse_suppressions(source)
        try:
            module = ModuleInfo.from_source(source, path, resolved_scope)
        except SyntaxError as error:
            return [
                Finding(
                    path=path,
                    line=error.lineno or 1,
                    col=(error.offset or 0) + 1,
                    rule_id=PARSE_ERROR_RULE_ID,
                    severity=Severity.ERROR,
                    message=f"could not parse file: {error.msg}",
                )
            ]
        findings = [
            finding
            for rule in self.rules
            if rule.applies_to(module)
            for finding in rule.check(module)
        ]
        if self.config.rule_enabled(UNJUSTIFIED_SUPPRESSION_RULE_ID):
            findings.extend(_unjustified_suppression_findings(path, suppressions))
        return sorted(
            finding for finding in findings
            if not suppressions.is_suppressed(finding)
        )

    def lint_file(self, path: str) -> List[Finding]:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        return self.lint_source(source, path)

    def lint_paths(self, paths: Iterable[str]) -> List[Finding]:
        findings: List[Finding] = []
        for path in self.collect_files(paths):
            findings.extend(self.lint_file(path))
        return sorted(findings)


def lint_source(
    source: str,
    scope_path: str = "repro/sim/fixture.py",
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint a source string as if it lived at ``scope_path`` (test helper)."""
    runner = LintRunner(rules=rules)
    return runner.lint_source(source, path=scope_path, scope_path=scope_path)
