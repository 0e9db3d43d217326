"""Evaluation metrics and statistics for the paper's experiments."""

from repro.analysis.metrics import (
    DISCOVERY_THRESHOLD,
    STABILITY_TOLERANCE,
    overhead_percent,
    resilience_from_trace,
    resilience_improvement,
    stability_round,
)
from repro.analysis.stats import Summary, summarize

__all__ = [
    "DISCOVERY_THRESHOLD",
    "STABILITY_TOLERANCE",
    "overhead_percent",
    "resilience_from_trace",
    "resilience_improvement",
    "stability_round",
    "Summary",
    "summarize",
]
