"""Compile scenario data into a :class:`~repro.shard.state.ShardConfig`.

The shard engine supports the *batch-friendly v1 subset* of the scenario
space: Brahms and RAPTEE topologies, message loss, modeled transport
encryption, fixed/adaptive eviction, the balanced adversary, loss-burst
and crash/restart faults.  Everything else — churn, membership epochs,
poisoned-view injection, sketch unbiasing, probe pulls, cycle accounting,
the adaptive adversary, the event clock, the invariant checker — stays on
the per-node engines; asking for it raises :class:`ShardUnsupportedError`
naming the feature, never a silent approximation.
:func:`repro.scenario.run.run_scenario` drives the compiled engine like
the other two; :func:`shard_config_from_spec` is the one way to build a
config from scenario data.
"""

from __future__ import annotations

from typing import Optional

from repro.core.eviction import AdaptiveEviction, EvictionPolicy, FixedEviction
from repro.faults.plan import CrashRestartFault, LossBurstFault
from repro.shard.state import ShardConfig

__all__ = [
    "ShardUnsupportedError",
    "eviction_fields",
    "shard_config_from_spec",
]


class ShardUnsupportedError(ValueError):
    """A scenario feature the sharded engine does not model."""

    def __init__(self, feature: str):
        super().__init__(
            f"the shard engine does not support {feature}; run this scenario "
            f"on the legacy engine (engine.kind='rounds')"
        )
        self.feature = feature


def eviction_fields(policy: Optional[EvictionPolicy], enabled: bool = True):
    """An eviction policy as the (kind, params) pair ShardConfig stores."""
    if policy is None or not enabled:
        return "none", ()
    if isinstance(policy, FixedEviction):
        return "fixed", (policy.value,)
    if isinstance(policy, AdaptiveEviction):
        return "adaptive", (
            policy.low_share, policy.high_share, policy.low_rate, policy.high_rate,
        )
    raise ShardUnsupportedError(f"eviction policy {type(policy).__name__}")


def shard_config_from_spec(spec) -> ShardConfig:
    """Build a :class:`ShardConfig` from a ``kind='shard'``
    :class:`~repro.scenario.spec.ScenarioSpec`, rejecting features outside
    the v1 subset with :class:`ShardUnsupportedError`."""
    if spec.engine.kind != "shard":
        raise ValueError(
            f"scenario {spec.name!r} selects engine.kind="
            f"{spec.engine.kind!r}, not the shard engine"
        )
    if spec.churn.kind != "none":
        raise ShardUnsupportedError(f"churn kind {spec.churn.kind!r}")
    if spec.membership is not None:
        raise ShardUnsupportedError("the membership service")
    if spec.adversary_strategy != "balanced":
        raise ShardUnsupportedError(
            f"adversary strategy {spec.adversary_strategy!r} "
            f"(only 'balanced' is modeled)"
        )
    options = spec.raptee_options
    if options.sketch_unbias_enabled:
        raise ShardUnsupportedError("count-min sketch unbiasing")
    if options.probe_pulls:
        raise ShardUnsupportedError("probe pulls")
    if options.with_cycle_accounting:
        raise ShardUnsupportedError("SGX cycle accounting")
    loss_bursts = []
    crashes = []
    for fault in spec.faults:
        if isinstance(fault, LossBurstFault):
            loss_bursts.append(
                (fault.window.start, fault.window.end, fault.loss_rate)
            )
        elif isinstance(fault, CrashRestartFault):
            crashes.append((fault.node_id, fault.at_round, fault.down_rounds))
        else:
            raise ShardUnsupportedError(f"fault kind {type(fault).__name__}")
    topology = spec.topology
    if topology.poisoned_fraction:
        raise ShardUnsupportedError("poisoned-view injection")
    brahms = spec.brahms_config
    if spec.protocol == "brahms":
        eviction_kind, eviction_params = "none", ()
    else:
        eviction_kind, eviction_params = eviction_fields(
            options.eviction, options.eviction_enabled
        )
    return ShardConfig(
        protocol=spec.protocol,
        n_nodes=topology.n_nodes,
        seed=spec.seed,
        n_byzantine=topology.n_byzantine,
        n_trusted=topology.n_trusted,  # a Brahms spec has no trusted fraction
        view_size=brahms.view_size,
        sample_size=brahms.sample_size,
        alpha_count=brahms.alpha_count,
        beta_count=brahms.beta_count,
        gamma_count=brahms.gamma_count,
        blocking_enabled=brahms.blocking_enabled,
        validation_period=brahms.validation_period,
        push_limit=brahms.push_limit,
        loss_rate=topology.loss_rate,
        encrypt=topology.transport_encryption,
        eviction_kind=eviction_kind,
        eviction_params=eviction_params,
        trusted_exchange=options.trusted_exchange_enabled,
        loss_bursts=tuple(loss_bursts),
        crashes=tuple(crashes),
    )
