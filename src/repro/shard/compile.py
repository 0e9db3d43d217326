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
the other two; :func:`shard_config_from_topology` is the keyword spelling
the engine's own tests build edge-case configs with.
"""

from __future__ import annotations

from typing import Optional

from repro.core.eviction import AdaptiveEviction, EvictionPolicy, FixedEviction
from repro.experiments.scenarios import TopologySpec
from repro.faults.plan import CrashRestartFault, LossBurstFault
from repro.shard.state import ShardConfig

__all__ = [
    "ShardUnsupportedError",
    "eviction_fields",
    "shard_config_from_topology",
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


def shard_config_from_topology(
    topology: TopologySpec,
    seed: int,
    protocol: str = "raptee",
    brahms=None,
    eviction: Optional[EvictionPolicy] = None,
    eviction_enabled: bool = True,
    trusted_exchange: bool = True,
    loss_bursts=(),
    crashes=(),
) -> ShardConfig:
    """Build a :class:`ShardConfig` from a topology + Brahms parameters
    (what :func:`shard_config_from_spec` ends in).

    ``brahms`` defaults to ``topology.brahms_config()`` — the same derived
    view/sample sizes every other builder uses.
    """
    if topology.poisoned_fraction:
        raise ShardUnsupportedError("poisoned-view injection")
    config = brahms if brahms is not None else topology.brahms_config()
    if protocol == "brahms":
        eviction_kind, eviction_params = "none", ()
    else:
        eviction_kind, eviction_params = eviction_fields(
            eviction if eviction is not None else AdaptiveEviction(),
            eviction_enabled,
        )
    return ShardConfig(
        protocol=protocol,
        n_nodes=topology.n_nodes,
        seed=seed,
        n_byzantine=topology.n_byzantine,
        n_trusted=topology.n_trusted if protocol == "raptee" else 0,
        view_size=config.view_size,
        sample_size=config.sample_size,
        alpha_count=config.alpha_count,
        beta_count=config.beta_count,
        gamma_count=config.gamma_count,
        blocking_enabled=config.blocking_enabled,
        validation_period=config.validation_period,
        push_limit=config.push_limit,
        loss_rate=topology.loss_rate,
        encrypt=topology.transport_encryption,
        eviction_kind=eviction_kind,
        eviction_params=eviction_params,
        trusted_exchange=trusted_exchange,
        loss_bursts=tuple(loss_bursts),
        crashes=tuple(crashes),
    )


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
    return shard_config_from_topology(
        spec.topology,
        spec.seed,
        protocol=spec.protocol,
        brahms=spec.brahms_config,
        eviction=options.eviction,
        eviction_enabled=options.eviction_enabled,
        trusted_exchange=options.trusted_exchange_enabled,
        loss_bursts=loss_bursts,
        crashes=crashes,
    )
