"""Tier-1 gate: the source tree satisfies every lint invariant.

This is the test that makes :mod:`repro.lint` bite — a PR that introduces a
determinism, enclave-boundary, crypto-hygiene or purity violation anywhere
under ``src/`` or ``tests/`` fails here with the full finding list, and a
rule scope left naming deleted code fails here too.
"""

import os

from repro.lint import LintRunner, load_config, registered_rules
from repro.lint.reporter import render_text

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _lint(*relative_paths):
    config = load_config(os.path.join(REPO_ROOT, "pyproject.toml"))
    runner = LintRunner(config=config)
    return runner.lint_paths([os.path.join(REPO_ROOT, path) for path in relative_paths])


def test_src_tree_is_violation_free():
    findings = _lint("src")
    assert findings == [], "\n" + render_text(findings)


def test_test_tree_is_violation_free():
    findings = _lint("tests")
    assert findings == [], "\n" + render_text(findings)


def test_rule_battery_is_present():
    """All four invariant families stay wired into the default battery."""
    rule_ids = {rule.rule_id for rule in LintRunner().rules}
    families = {rule_id.split("-")[0] for rule_id in rule_ids}
    assert families == {"det", "enclave", "crypto", "purity", "lint"}
    assert len(rule_ids) == 13


def _is_module_or_package(path):
    return os.path.isfile(path) or os.path.isfile(os.path.join(path, "__init__.py"))


def test_every_rule_scope_names_real_code():
    """A scope prefix that names nothing under ``src/`` silently scopes
    nothing: every default scope and every ``[tool.repro-lint.scopes]``
    override must name a module or a package (a directory left holding
    only ``__pycache__`` does not count)."""
    rules = registered_rules()
    overrides = load_config(os.path.join(REPO_ROOT, "pyproject.toml")).scopes
    assert set(overrides) <= {rule.rule_id for rule in rules}
    scopes = {f"{rule.rule_id} (default)": rule.scope for rule in rules}
    scopes.update(overrides)
    stale = [
        (where, prefix)
        for where, prefixes in sorted(scopes.items())
        for prefix in prefixes
        if not _is_module_or_package(os.path.join(REPO_ROOT, "src", prefix))
    ]
    assert stale == []
    assert any(scopes.values())  # the check above has something to check
