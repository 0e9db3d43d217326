"""CPU-cycle cost model calibrated from the paper's Table I.

The paper measures, on real SGX NUCs, the per-function cycle cost of five
peer-sampling operations in and out of the enclave, then *emulates* SGX at
Grid'5000 scale by injecting random delays drawn from the measured mean
overhead and standard deviation.  We reproduce exactly that pipeline: every
enclave-executed function charges ``standard + N(mean_overhead, std)`` cycles
to the node's accountant, while untrusted execution charges ``standard``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:
    import random  # annotation-only: the rng is always injected, never drawn here

__all__ = [
    "FunctionCost",
    "TABLE_I",
    "CycleModel",
    "CycleAccountant",
    "PeerSamplingFunction",
]


class PeerSamplingFunction:
    """The five instrumented functions of Table I (string constants)."""

    PULL_REQUEST = "pull_request"
    PUSH_MESSAGE = "push_message"
    TRUSTED_COMMUNICATIONS = "trusted_communications"
    SAMPLE_LIST_COMPUTATION = "sample_list_computation"
    DYNAMIC_VIEW_COMPUTATION = "dynamic_view_computation"

    ALL = (
        PULL_REQUEST,
        PUSH_MESSAGE,
        TRUSTED_COMMUNICATIONS,
        SAMPLE_LIST_COMPUTATION,
        DYNAMIC_VIEW_COMPUTATION,
    )


@dataclass(frozen=True)
class FunctionCost:
    """Cycle costs of one function: plain CPU vs inside the enclave.

    ``std_fraction`` is the paper's "standard deviation" column, expressed as
    a fraction of the mean overhead (Table I reports 2-4 %).
    """

    standard: int
    sgx: int
    std_fraction: float

    @property
    def mean_overhead(self) -> int:
        return self.sgx - self.standard

    @property
    def overhead_std(self) -> float:
        return self.mean_overhead * self.std_fraction


#: Paper Table I, verbatim (cycles).
TABLE_I: Dict[str, FunctionCost] = {
    PeerSamplingFunction.PULL_REQUEST: FunctionCost(15_623, 18_593, 0.03),
    PeerSamplingFunction.PUSH_MESSAGE: FunctionCost(7_521, 9_182, 0.03),
    PeerSamplingFunction.TRUSTED_COMMUNICATIONS: FunctionCost(9_845, 11_516, 0.03),
    PeerSamplingFunction.SAMPLE_LIST_COMPUTATION: FunctionCost(13_024, 15_364, 0.04),
    PeerSamplingFunction.DYNAMIC_VIEW_COMPUTATION: FunctionCost(12_457, 15_076, 0.02),
}


class CycleModel:
    """Samples per-invocation cycle costs from the calibrated table."""

    def __init__(self, costs: Optional[Dict[str, FunctionCost]] = None):
        self._costs = dict(costs or TABLE_I)

    def function_cost(self, function: str) -> FunctionCost:
        try:
            return self._costs[function]
        except KeyError:
            raise KeyError(
                f"unknown instrumented function {function!r}; "
                f"known: {sorted(self._costs)}"
            ) from None

    def sample_cycles(self, function: str, trusted: bool, rng: random.Random) -> float:
        """Cycle cost of one invocation.

        Trusted execution pays the standard cost plus a Gaussian overhead
        with the Table-I mean and standard deviation (clamped at zero: the
        enclave can never be faster than plain execution in this model).
        """
        cost = self.function_cost(function)
        if not trusted:
            return float(cost.standard)
        overhead = rng.gauss(cost.mean_overhead, cost.overhead_std)
        return cost.standard + max(0.0, overhead)


@dataclass
class CycleAccountant:
    """Per-node accumulator of modelled CPU cycles, split by function.

    ``force_standard`` makes the accountant charge the plain-CPU cost even
    for trusted execution — the paper's "emulated SGX on non-capable
    devices" control group (§V-A), used by the Table I reproduction.
    """

    model: CycleModel
    rng: random.Random
    force_standard: bool = False
    total_cycles: float = 0.0
    per_function: Dict[str, float] = field(default_factory=dict)
    invocations: Dict[str, int] = field(default_factory=dict)

    def charge(self, function: str, trusted: bool) -> float:
        """Charge one invocation of ``function``; returns the cycles charged."""
        cycles = self.model.sample_cycles(
            function, trusted and not self.force_standard, self.rng
        )
        self.total_cycles += cycles
        self.per_function[function] = self.per_function.get(function, 0.0) + cycles
        self.invocations[function] = self.invocations.get(function, 0) + 1
        return cycles

    def mean_cost(self, function: str) -> float:
        """Mean charged cycles per invocation of ``function`` so far."""
        count = self.invocations.get(function, 0)
        if count == 0:
            raise ValueError(f"{function!r} was never invoked")
        return self.per_function[function] / count

    def reset(self) -> None:
        self.total_cycles = 0.0
        self.per_function.clear()
        self.invocations.clear()
