"""Per-link latency models for the event-driven engine.

A :class:`LatencyModel` turns an RNG into a one-way delay in seconds; one
model governs every link of a run.  Two shapes:

* :class:`ConstantLatency` — fixed delay; consumes **zero** RNG draws, so
  a zero-latency run leaves the latency stream untouched and delivers
  pushes inline;
* :class:`LogNormalLatency` — heavy-tailed, parameterised by the median
  and the log-space sigma (the paper-friendly parameterisation: the
  median survives the exponentiation, unlike the mean).

Every parameter must be finite: a NaN or infinite delay would put an
event at a time the queue can never drain past.

The log-normal model draws through ``lognormvariate``, backed purely by
``rng.random()`` — never ``gauss``, whose cached spare value lives outside
:class:`~repro.crypto.prng.Sha256Prng`'s checkpointable state.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "LogNormalLatency",
    "parse_latency_model",
]


class LatencyModel:
    """One-way link delay distribution (seconds)."""

    def sample(self, rng: random.Random) -> float:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantLatency(LatencyModel):
    """Fixed one-way delay; ``ConstantLatency(0.0)`` is the zero link."""

    seconds: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.seconds) and self.seconds >= 0):
            raise ValueError("latency must be finite and non-negative")

    def sample(self, rng: random.Random) -> float:
        return self.seconds

    def describe(self) -> str:
        if self.seconds == 0.0:
            return "zero"
        return f"constant {1000.0 * self.seconds:g} ms"


@dataclass(frozen=True)
class LogNormalLatency(LatencyModel):
    """Log-normal one-way delay with the given median (seconds).

    ``sigma`` is the standard deviation of the underlying normal; the
    distribution's median is ``median`` exactly and its tail weight grows
    with sigma (p95 ≈ median·e^{1.64σ}).
    """

    median: float
    sigma: float = 0.5

    def __post_init__(self) -> None:
        if not (math.isfinite(self.median) and self.median > 0):
            raise ValueError("log-normal median must be finite and positive")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError("sigma must be finite and non-negative")

    def sample(self, rng: random.Random) -> float:
        # lognormvariate goes through normalvariate, which rejection-samples
        # from random() only — no hidden gauss spare-value state.
        return rng.lognormvariate(math.log(self.median), self.sigma)

    def describe(self) -> str:
        return f"lognormal median {1000.0 * self.median:g} ms sigma {self.sigma:g}"


def parse_latency_model(spec: str) -> LatencyModel:
    """Parse a CLI latency spec into a model.

    Accepted forms (times in **milliseconds**, converted here)::

        zero
        constant:MS
        lognormal:MEDIAN_MS:SIGMA
    """
    parts = spec.strip().lower().split(":")
    kind, args = parts[0], parts[1:]
    try:
        if kind == "zero" and not args:
            return ConstantLatency(0.0)
        if kind == "constant" and len(args) == 1:
            return ConstantLatency(float(args[0]) / 1000.0)
        if kind == "lognormal" and len(args) == 2:
            return LogNormalLatency(float(args[0]) / 1000.0, float(args[1]))
    except ValueError as error:
        raise ValueError(f"bad latency spec {spec!r}: {error}") from error
    raise ValueError(
        f"bad latency spec {spec!r}: expected zero | constant:MS | "
        f"lognormal:MEDIAN:SIGMA (times in ms)"
    )
