"""Static-analysis suite enforcing the reproduction's core invariants.

``repro.lint`` walks Python ASTs and checks the three properties the
RAPTEE reproduction's claims rest on (see ``src/repro/lint/README.md``):

1. **Determinism** — seeded runs are bit-for-bit reproducible;
2. **Enclave boundary** — untrusted code reaches enclave state only
   through declared ECALLs;
3. **Crypto hygiene** — constant-time comparisons, no OS entropy or weak
   hashes near key material;

plus **sim purity** (no I/O in protocol hot paths).  Every rule sees one
file at a time: one parse, one pass.  Run it with
``python -m repro.lint [paths]`` or ``repro lint``; configure it via
``[tool.repro-lint]`` in ``pyproject.toml``.
"""

from repro.lint.config import LintConfig, load_config
from repro.lint.core import (
    Finding,
    LintRunner,
    ModuleInfo,
    Rule,
    Severity,
    lint_source,
    register_rule,
    registered_rules,
)
from repro.lint.reporter import render_json, render_text

__all__ = [
    "Finding",
    "LintConfig",
    "LintRunner",
    "ModuleInfo",
    "Rule",
    "Severity",
    "lint_source",
    "load_config",
    "register_rule",
    "registered_rules",
    "render_json",
    "render_text",
]
