"""Compile a :class:`~repro.scenario.spec.ScenarioSpec` into runnable parts.

:func:`compile_spec` is the single build path of all three engines: CLI
flags, Python callers and loaded dicts all produce a
:class:`~repro.scenario.spec.ScenarioSpec`.  A per-node spec goes to the
assembly code in :mod:`repro.experiments.scenarios` — which reads each
parameter off the spec where it is used — and gets its churn plan attached
through the engine's public :meth:`~repro.sim.engine.Simulation.set_churn`
seam; a ``kind='shard'`` spec goes to :func:`shard_simulation_from_spec`,
the only place under ``src/repro`` a shard engine is constructed.

The runtime-only sections (fault plan, engine choice) are translated by
:func:`fault_plan_from_spec` / :func:`event_options_from_spec` and wired
by :func:`repro.scenario.run.run_scenario`, the one place the
``wire_telemetry`` → ``wire_faults`` → ``wire_events`` calls change a
bundle.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.crypto.prng import derive_seed
from repro.experiments.scenarios import _build_brahms, _build_raptee
from repro.scenario.spec import ChurnSpec, ScenarioSpec
from repro.sim.churn import CatastrophicFailure, ChurnModel, UniformChurn

__all__ = [
    "ArrivalFactory",
    "churn_model_from_spec",
    "compile_spec",
    "event_options_from_spec",
    "fault_plan_from_spec",
    "shard_simulation_from_spec",
]


class ArrivalFactory:
    """Module-level (picklable) node factory for churn arrivals.

    Arrivals join as honest nodes of the scenario's protocol (RAPTEE when
    ``raptee_config`` is set, else Brahms), each with its own seed-derived
    RNG stream and a one-node bootstrap view so it gossips in its join
    round — the same construction the engine's other arrival paths use,
    and snapshot-safe by being a plain class.
    """

    def __init__(self, config, raptee_config, seed: int):
        self.config = config
        self.raptee_config = raptee_config
        self.seed = seed

    def __call__(self, node_id: int):
        from repro.sim.node import NodeKind

        rng = random.Random(derive_seed(self.seed, "node", node_id))
        if self.raptee_config is None:
            from repro.brahms.node import BrahmsNode

            node = BrahmsNode(node_id, NodeKind.HONEST, self.config, rng)
        else:
            from repro.core.node import RapteeNode

            node = RapteeNode(
                node_id, NodeKind.HONEST, self.config, self.raptee_config, rng
            )
        node.seed_view([0])
        return node


def churn_model_from_spec(churn: ChurnSpec) -> Optional[ChurnModel]:
    """The engine churn model for a churn section (``None`` for 'none')."""
    if churn.kind == "none":
        return None
    if churn.kind == "uniform":
        return UniformChurn(leave_rate=churn.leave_rate, join_rate=churn.join_rate)
    if churn.kind == "catastrophic":
        return CatastrophicFailure(at_round=churn.at_round, fraction=churn.fraction)
    raise ValueError(f"unknown churn kind {churn.kind!r}")


def compile_spec(spec: ScenarioSpec, workers: int = 1):
    """Build what a spec describes: a :class:`SimulationBundle` for the
    per-node engines, a :class:`~repro.shard.engine.ShardSimulation` for
    ``kind='shard'``.

    Compiles the population/protocol sections; the runtime sections
    (faults, engine) are wired onto a bundle by
    :func:`~repro.scenario.run.run_scenario`.  ``workers`` is the shard
    engine's thread count — it cannot change a byte, so it is an argument
    and not a spec field; the per-node engines run on one thread.
    """
    if spec.engine.kind == "shard":
        return shard_simulation_from_spec(spec, workers=workers)
    # Churn arrivals join with the very config objects the honest nodes run.
    config = spec.brahms_config
    if spec.protocol == "brahms":
        raptee_config = None
        bundle = _build_brahms(spec, config)
    else:
        raptee_config = spec.raptee_config
        bundle = _build_raptee(spec, config, raptee_config)
    churn = churn_model_from_spec(spec.churn)
    if churn is not None:
        factory = None
        if churn.may_produce_arrivals is not False:
            factory = ArrivalFactory(config, raptee_config, spec.seed)
        bundle.simulation.set_churn(churn, factory)
    return bundle


def shard_simulation_from_spec(spec: ScenarioSpec, workers: int = 1):
    """Compile a ``kind='shard'`` spec into a ready
    :class:`~repro.shard.engine.ShardSimulation` (``min(spec.engine.shards,
    workers)`` partitions).  Raises
    :class:`~repro.shard.compile.ShardUnsupportedError` for features the
    batch engine does not model."""
    from repro.shard.compile import shard_config_from_spec
    from repro.shard.engine import ShardSimulation

    return ShardSimulation(
        shard_config_from_spec(spec), shards=spec.engine.shards, workers=workers
    )


def fault_plan_from_spec(spec: ScenarioSpec):
    """The :class:`~repro.faults.plan.FaultPlan` for a spec's fault list.

    An enabled ``membership`` section implies the fault layer even with no
    faults listed: the injector's per-round hook is what ticks the
    :class:`~repro.membership.director.MembershipDirector`, so without it
    trusted-set churn, rotation and log gossip never run.  ``None`` only
    when the spec has neither.
    """
    membership_on = spec.membership is not None and spec.membership.enabled
    if not spec.faults and not membership_on:
        return None
    from repro.faults.plan import FaultPlan

    return FaultPlan(list(spec.faults))


def event_options_from_spec(spec: ScenarioSpec):
    """The :class:`~repro.events.EventOptions` for a spec's engine section:
    ``None`` unless the spec selects the events engine in continuous mode.
    A ``mode='barrier'`` spec is the lockstep round loop, so it gets no
    event engine."""
    engine = spec.engine
    if engine.kind != "events" or engine.mode == "barrier":
        return None
    from repro.events import EventOptions, parse_latency_model

    return EventOptions(
        seed=spec.seed,
        tick_interval=engine.tick_interval,
        latency=parse_latency_model(engine.latency or "zero"),
    )
