"""Churn models: node departures and arrivals over rounds.

The paper's evaluation runs a static membership (its metrics — discovery
time, stability time — are defined over a fixed population), but peer
sampling exists to handle churn, so the simulator supports it for the
robustness examples and failure-injection tests.  Static membership has no
model: a simulation without churn holds ``None``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

__all__ = ["ChurnEvent", "ChurnModel", "UniformChurn", "CatastrophicFailure"]


@dataclass(frozen=True)
class ChurnEvent:
    """What happens to membership at the start of a round."""

    departures: List[int]
    arrivals: int  # number of fresh nodes to create


class ChurnModel:
    """Interface: decide the churn event for each round."""

    def events_for_round(self, round_number: int, alive_ids: Sequence[int], rng: random.Random) -> ChurnEvent:
        raise NotImplementedError

    @property
    def may_produce_arrivals(self) -> Optional[bool]:
        """Whether this model can ever emit arrivals.

        ``True``/``False`` let :class:`~repro.sim.engine.Simulation` validate
        the ``node_factory`` requirement at construction time; ``None``
        (the base-class default) means "unknown" and defers the check to the
        round in which arrivals actually appear.
        """
        return None


class UniformChurn(ChurnModel):
    """Each round, each alive node departs with probability ``leave_rate``
    and ``join_rate`` × current population fresh nodes arrive."""

    def __init__(self, leave_rate: float, join_rate: float):
        if not 0.0 <= leave_rate < 1.0:
            raise ValueError("leave_rate must be in [0, 1)")
        if not (math.isfinite(join_rate) and join_rate >= 0.0):
            raise ValueError("join_rate must be finite and non-negative")
        self.leave_rate = leave_rate
        self.join_rate = join_rate

    def events_for_round(self, round_number, alive_ids, rng):
        departures = [node for node in alive_ids if rng.random() < self.leave_rate]
        arrivals = int(round(self.join_rate * len(alive_ids)))
        return ChurnEvent(departures=departures, arrivals=arrivals)

    @property
    def may_produce_arrivals(self) -> bool:
        return self.join_rate > 0.0


class CatastrophicFailure(ChurnModel):
    """Kill a fixed fraction of the population at one specific round.

    Used by the failure-injection tests to check that the overlay does not
    partition and that views repopulate with alive nodes.
    """

    def __init__(self, at_round: int, fraction: float):
        if not 0.0 < fraction < 1.0:
            raise ValueError("fraction must be in (0, 1)")
        self.at_round = at_round
        self.fraction = fraction

    def events_for_round(self, round_number, alive_ids, rng):
        if round_number != self.at_round:
            return ChurnEvent(departures=[], arrivals=0)
        count = int(len(alive_ids) * self.fraction)
        return ChurnEvent(departures=rng.sample(list(alive_ids), count), arrivals=0)

    @property
    def may_produce_arrivals(self) -> bool:
        return False
