"""Tier-1 gate: the source tree satisfies every lint invariant.

This is the test that makes :mod:`repro.lint` bite — a PR that introduces a
determinism, enclave-boundary, crypto-hygiene or purity violation anywhere
under ``src/`` or ``tests/`` fails here with the full finding list.
"""

import os

from repro.lint import LintRunner, load_config
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
