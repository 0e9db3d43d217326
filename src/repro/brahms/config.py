"""Brahms protocol parameters.

Defaults follow the original paper's recommendation, also used by RAPTEE's
evaluation (§II): α = β = 0.4, γ = 0.2.  The view size l1 and sample size l2
scale with the system size; the RAPTEE paper uses l1 = 200 at N = 10,000.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

__all__ = ["BrahmsConfig", "BYZANTINE_PUSH_LIMIT_MULTIPLIER"]

#: Byzantine identities may spend more pushes than honest ones before the
#: rate limiter stops them (the paper's limit mechanism prices pushes but
#: does not pin them to the protocol's α·l1; the blocking defense is what
#: actually caps useful flooding).  This multiple of
#: :attr:`BrahmsConfig.effective_push_limit` is the cap on every engine,
#: calibrated so the Brahms baseline reproduces Fig. 3's collapse shape
#: (matching the 81 % pollution the paper reports at f = 18 %).
BYZANTINE_PUSH_LIMIT_MULTIPLIER = 3


@dataclass(frozen=True)
class BrahmsConfig:
    """Parameters of one Brahms instance.

    Attributes:
        view_size: l1, the dynamic-view size.
        sample_size: l2, the number of min-wise samplers.
        alpha: fraction of the renewed view drawn from received pushes.
        beta: fraction drawn from pull answers.
        gamma: fraction drawn from the history sample (the sample list S).
        blocking_enabled: Brahms defense (ii) — refuse the view update in a
            round where more pushes than the expected α·l1 arrived.
        validation_period: every that many rounds, samplers probe their
            current sample for liveness and reset if it is dead (0 disables).
        push_limit: per-node per-round push budget enforced by the
            rate-limiting mechanism (defense i).  ``None`` derives the
            natural protocol value α·l1.
    """

    view_size: int = 20
    sample_size: int = 10
    alpha: float = 0.4
    beta: float = 0.4
    gamma: float = 0.2
    blocking_enabled: bool = True
    validation_period: int = 10
    push_limit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.view_size <= 0:
            raise ValueError("view_size must be positive")
        if self.sample_size <= 0:
            raise ValueError("sample_size must be positive")
        for name in ("alpha", "beta", "gamma"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if abs(self.alpha + self.beta + self.gamma - 1.0) > 1e-9:
            raise ValueError(
                f"alpha + beta + gamma must equal 1, got "
                f"{self.alpha + self.beta + self.gamma}"
            )
        if self.validation_period < 0:
            raise ValueError("validation_period must be non-negative")
        if self.push_limit is not None and self.push_limit <= 0:
            raise ValueError("push_limit must be positive when set")

    @property
    def alpha_count(self) -> int:
        """α·l1 (floored, min 1): pushes per round and push view slots.

        Flooring keeps the γ (history-sample) portion non-empty on the small
        views used in tests; at the paper's l1 = 200 the products are exact.
        """
        return max(1, math.floor(self.alpha * self.view_size))

    @property
    def beta_count(self) -> int:
        """β·l1 (floored, min 1): pull requests per round and pull slots."""
        return max(1, math.floor(self.beta * self.view_size))

    @property
    def gamma_count(self) -> int:
        """History-sample slots in the renewed view (l1 − α·l1 − β·l1)."""
        return max(0, self.view_size - self.alpha_count - self.beta_count)

    @property
    def effective_push_limit(self) -> int:
        """The rate-limiter budget: explicit, or the protocol's own α·l1."""
        return self.push_limit if self.push_limit is not None else self.alpha_count

    def scaled(self, n_nodes: int, view_ratio: float = 0.02) -> "BrahmsConfig":
        """Derive a config with the paper's view-size ratio for ``n_nodes``.

        The paper uses l1 = 200 at N = 10,000 (ratio 0.02) and l2 = l1/2
        is a common Brahms instantiation; both are clamped to at least 8/4
        so tiny test topologies keep meaningful α/β/γ splits.
        """
        view = max(8, int(round(n_nodes * view_ratio)))
        return BrahmsConfig(
            view_size=view,
            sample_size=max(4, view // 2),
            alpha=self.alpha,
            beta=self.beta,
            gamma=self.gamma,
            blocking_enabled=self.blocking_enabled,
            validation_period=self.validation_period,
            push_limit=self.push_limit,
        )
