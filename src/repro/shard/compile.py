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
config from scenario data.  The config carries the spec's own objects,
not a re-encoding of them: the §IV-C eviction policy (``None`` when the
run evicts nothing) and the loss-burst and crash-restart faults, which
:func:`repro.faults.plan.validate_faults` has already checked at spec
load.
"""

from __future__ import annotations

from repro.faults.plan import CrashRestartFault, LossBurstFault
from repro.shard.state import ShardConfig

__all__ = [
    "ShardUnsupportedError",
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
    options = spec.raptee_config
    if options.sketch_unbias_enabled:
        raise ShardUnsupportedError("count-min sketch unbiasing")
    if options.probe_pulls:
        raise ShardUnsupportedError("probe pulls")
    if options.with_cycle_accounting:
        raise ShardUnsupportedError("SGX cycle accounting")
    for fault in spec.faults:
        if not isinstance(fault, (LossBurstFault, CrashRestartFault)):
            raise ShardUnsupportedError(f"fault kind {type(fault).__name__}")
    topology = spec.topology
    if topology.poisoned_fraction:
        raise ShardUnsupportedError("poisoned-view injection")
    brahms = spec.brahms_config
    evicts = spec.protocol == "raptee" and options.eviction_enabled
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
        eviction=options.eviction if evicts else None,
        trusted_exchange=options.trusted_exchange_enabled,
        loss_bursts=tuple(f for f in spec.faults if isinstance(f, LossBurstFault)),
        crashes=tuple(f for f in spec.faults if isinstance(f, CrashRestartFault)),
    )
