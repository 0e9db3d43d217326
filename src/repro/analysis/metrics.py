"""The paper's three evaluation metrics (§II Fig. 3, §V-B).

* **resilience** — the percentage of Byzantine IDs in the views of correct
  nodes once the system has converged (we average the per-round mean over a
  tail window of rounds);
* **system-discovery time** — rounds until *all* correct nodes have
  discovered at least 75 % of the non-Byzantine IDs;
* **view-stability time** — rounds until every correct node's view
  pollution is within 10 percentage points of the average pollution across
  correct nodes.

Derived quantities: *resilience improvement* is the percentage drop of
Byzantine representation vs the Brahms baseline; *overhead* is the extra
rounds (in %) RAPTEE needs for discovery/stability vs the baseline.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.observers import RoundRecord

__all__ = [
    "resilience_from_trace",
    "stability_round",
    "stability_tolerance_for",
    "resilience_improvement",
    "overhead_percent",
    "DISCOVERY_THRESHOLD",
    "STABILITY_TOLERANCE",
    "STABILITY_Z",
    "PAPER_VIEW_SIZE",
]

DISCOVERY_THRESHOLD = 0.75
STABILITY_TOLERANCE = 0.10

# The paper's 10 % band at l1 = 200 and ~30 % pollution equals 3.1 binomial
# standard deviations (0.10 ≈ 3.1 · √(0.3·0.7/200)).  Scaled-down runs use
# smaller views with proportionally larger per-view noise, so the band is
# generalized as z·σ with the same z — it reduces to the paper's 10 % at
# paper scale.  See DESIGN.md §5.
STABILITY_Z = 3.1
PAPER_VIEW_SIZE = 200


def stability_tolerance_for(view_size: int, mean_fraction: float) -> float:
    """The z·σ stability band for a given view size and pollution level."""
    if view_size <= 0:
        raise ValueError("view_size must be positive")
    p = min(max(mean_fraction, 0.0), 1.0)
    sigma = math.sqrt(p * (1.0 - p) / view_size)
    return max(STABILITY_TOLERANCE, STABILITY_Z * sigma)


def resilience_from_trace(records: Sequence["RoundRecord"], tail: int = 10) -> float:
    """Mean Byzantine fraction of correct views over the last ``tail`` rounds."""
    if not records:
        raise ValueError("empty trace")
    if tail <= 0:
        raise ValueError("tail must be positive")
    window = records[-tail:]
    return sum(record.mean_byzantine_fraction for record in window) / len(window)


def stability_round(
    records: Sequence["RoundRecord"],
    tolerance: Optional[float] = None,
    sustained: int = 1,
    view_size: Optional[int] = None,
) -> int:
    """First round at which every correct view is within the stability band
    of the mean pollution, holding for ``sustained`` consecutive rounds.
    Returns -1 if never reached.

    Pass an explicit ``tolerance`` (absolute, in fraction points — the
    paper's 10 %), or a ``view_size`` to use the z·σ scaled band; exactly
    one of the two must be given.
    """
    if (tolerance is None) == (view_size is None):
        raise ValueError("pass exactly one of tolerance or view_size")
    if tolerance is not None and tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if sustained <= 0:
        raise ValueError("sustained must be positive")
    streak = 0
    for record in records:
        fractions = record.shares.tolist()
        if not fractions:
            streak = 0
            continue
        mean = sum(fractions) / len(fractions)
        band = (
            tolerance
            if tolerance is not None
            else stability_tolerance_for(view_size, mean)
        )
        if max(abs(fraction - mean) for fraction in fractions) <= band:
            streak += 1
            if streak >= sustained:
                return record.round_number - sustained + 1
        else:
            streak = 0
    return -1


def resilience_improvement(baseline_fraction: float, raptee_fraction: float) -> float:
    """Percentage drop in Byzantine representation vs the Brahms baseline.

    Positive = RAPTEE is better (fewer Byzantine IDs in correct views).
    """
    if baseline_fraction <= 0:
        return 0.0
    return 100.0 * (baseline_fraction - raptee_fraction) / baseline_fraction


def overhead_percent(baseline_rounds: int, rounds: int) -> Optional[float]:
    """Extra rounds (in %) relative to the baseline; ``None`` when either
    run never reached the milestone (round value -1)."""
    if baseline_rounds <= 0 or rounds <= 0:
        return None
    return 100.0 * (rounds - baseline_rounds) / baseline_rounds
