"""Finding reporters: text for people, JSON for tools."""

from __future__ import annotations

import json
from typing import Dict, Sequence

from repro.lint.core import Finding

__all__ = ["render_text", "render_json"]


def render_text(findings: Sequence[Finding]) -> str:
    """Human-readable report, one finding per line plus a summary."""
    if not findings:
        return "repro.lint: no findings"
    lines = [finding.format_text() for finding in findings]
    counts: Dict[str, int] = {}
    for finding in findings:
        counts[finding.severity.name.lower()] = counts.get(finding.severity.name.lower(), 0) + 1
    summary = ", ".join(f"{count} {name}" for name, count in sorted(counts.items()))
    lines.append(f"repro.lint: {len(findings)} finding(s) ({summary})")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    """Machine-readable report: ``{"findings": [...], "count": N}``."""
    payload = {
        "findings": [finding.to_dict() for finding in findings],
        "count": len(findings),
    }
    return json.dumps(payload, indent=2, sort_keys=True)
