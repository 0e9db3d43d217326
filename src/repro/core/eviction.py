"""Byzantine eviction policies (§IV-C).

At the end of each round a trusted node ignores a fraction — the *eviction
rate* — of the IDs pulled from untrusted peers: they are neither streamed to
the samplers nor eligible for the β·l1 slots of the view renewal.

Two policies from the paper:

* :class:`FixedEviction` — one system-wide constant rate in [0, 1]
  (the paper evaluates 0 %, 40 %, 60 % and 100 %);
* :class:`AdaptiveEviction` — the local rule: the larger the share of this
  round's exchanges that were with trusted peers, the less eviction is
  needed.  The paper anchors the rule at (trusted share ≥ 80 % → rate 20 %)
  and (trusted share ≤ 20 % → rate 80 %) with a linear segment in between,
  i.e. ``rate = clamp(1 − trusted_share, 0.20, 0.80)``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["EvictionPolicy", "FixedEviction", "AdaptiveEviction"]


class EvictionPolicy:
    """Maps the round's trusted-contact share to an eviction rate."""

    def rate(self, trusted_share: float) -> float:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class FixedEviction(EvictionPolicy):
    """A constant eviction rate, whatever the trusted-contact share."""

    value: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"eviction rate must be in [0, 1], got {self.value}")

    def rate(self, trusted_share: float) -> float:
        return self.value

    def describe(self) -> str:
        return f"fixed-{int(round(self.value * 100))}%"


@dataclass(frozen=True)
class AdaptiveEviction(EvictionPolicy):
    """The paper's adaptive rule, generalized to arbitrary anchor points.

    ``rate(share)`` is ``high_rate`` for shares at or below ``low_share``,
    ``low_rate`` for shares at or above ``high_share``, and linear between.
    The paper's anchors are the defaults; ``repro figure ablation-anchors``
    sweeps them.
    """

    low_share: float = 0.2
    high_share: float = 0.8
    low_rate: float = 0.2
    high_rate: float = 0.8

    def __post_init__(self) -> None:
        if not 0.0 <= self.low_share < self.high_share <= 1.0:
            raise ValueError("need 0 <= low_share < high_share <= 1")
        if not 0.0 <= self.low_rate <= self.high_rate <= 1.0:
            raise ValueError("need 0 <= low_rate <= high_rate <= 1")

    def rate(self, trusted_share: float) -> float:
        if not 0.0 <= trusted_share <= 1.0:
            raise ValueError(f"trusted_share must be in [0, 1], got {trusted_share}")
        if trusted_share <= self.low_share:
            return self.high_rate
        if trusted_share >= self.high_share:
            return self.low_rate
        slope = (self.low_rate - self.high_rate) / (self.high_share - self.low_share)
        return self.high_rate + slope * (trusted_share - self.low_share)

    def describe(self) -> str:
        return "adaptive"
