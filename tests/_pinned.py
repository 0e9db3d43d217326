"""The pinned differential scenarios and their deterministic surface.

Three scenarios cover the three configuration families: the Brahms
baseline, RAPTEE with fixed eviction + encrypted transport + count-min
unbiasing, and RAPTEE under an active fault plan.  The differential suites
(events, scenario) and the determinism matrix run them through
:func:`observables`, so they can never drift apart in what they consider
"the deterministic surface".

Each scenario is written twice on purpose: once through the
Python-argument constructors (:data:`PINNED`) and once as the plain dict a
spec file would hold (:data:`PINNED_DICTS`); the scenario differential
proves the two spellings are one program.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.metrics import per_round_series
from repro.core.eviction import AdaptiveEviction, FixedEviction
from repro.experiments.scenarios import (
    TopologySpec,
    build_brahms_simulation,
    build_raptee_simulation,
)
from repro.faults.harness import wire_faults
from repro.faults.plan import CrashRestartFault, FaultPlan, LossBurstFault, RoundWindow
from repro.scenario import spec_from_dict
from repro.scenario.run import ScenarioArtifacts
from repro.shard import ShardSimulation
from repro.shard.compile import shard_config_from_spec
from repro.telemetry import (
    Telemetry,
    TelemetryConfig,
    metrics_to_csv,
    trace_to_jsonl,
    wire_telemetry,
)

ROUNDS = 6


def observables(bundle, harness_runner, rounds):
    """Run and collect every deterministic-surface artifact of a bundle."""
    config = TelemetryConfig(tracing=True, trace_messages=True, trace_ecalls=True)
    telemetry_harness = wire_telemetry(bundle, config)
    harness_runner(rounds)
    telemetry = telemetry_harness.telemetry
    simulation = bundle.simulation
    stats = simulation.network.stats
    return {
        "trace_jsonl": trace_to_jsonl(telemetry.trace.events),
        "metrics_csv": metrics_to_csv(telemetry.registry),
        "final_views": {
            node_id: tuple(node.view_ids())
            for node_id, node in sorted(simulation.nodes.items())
        },
        "view_trace": bundle.trace.records,
        "pushes_series": per_round_series(stats.per_round_pushes, rounds),
        "requests_series": per_round_series(stats.per_round_requests, rounds),
        "losses_series": per_round_series(stats.per_round_losses, rounds),
        "totals": (
            stats.pushes_sent,
            stats.pushes_delivered,
            stats.requests_sent,
            stats.replies_delivered,
            stats.messages_lost,
            stats.bytes_encrypted,
        ),
    }


def _brahms_baseline():
    spec = TopologySpec(
        n_nodes=60, byzantine_fraction=0.10, view_ratio=0.08, loss_rate=0.05
    )
    return build_brahms_simulation(spec, seed=11), 11, None


def _raptee_fixed_eviction():
    spec = TopologySpec(
        n_nodes=40, byzantine_fraction=0.10, trusted_fraction=0.10,
        view_ratio=0.10, transport_encryption=True,
    )
    bundle = build_raptee_simulation(
        spec, seed=23, eviction=FixedEviction(0.6), sketch_unbias_enabled=True
    )
    return bundle, 23, None


def _raptee_faults():
    spec = TopologySpec(
        n_nodes=40, byzantine_fraction=0.10, trusted_fraction=0.10,
        view_ratio=0.10, transport_encryption=True,
    )
    bundle = build_raptee_simulation(spec, seed=31, eviction=AdaptiveEviction())
    plan = FaultPlan([
        LossBurstFault(window=RoundWindow(2, 3), loss_rate=0.30),
        # Node 5 is trusted (IDs 4-7 here): the crash kills its enclave,
        # pulling the recovery manager into the differential surface.
        CrashRestartFault(node_id=5, at_round=2, down_rounds=2),
    ])
    return bundle, 31, plan


#: name → builder returning ``(bundle, seed, fault plan or None)``.
PINNED = {
    "brahms-baseline": _brahms_baseline,
    "raptee-fixed-eviction": _raptee_fixed_eviction,
    "raptee-faults": _raptee_faults,
}

_RAPTEE_TOPOLOGY = {
    "n_nodes": 40,
    "byzantine_fraction": 0.10,
    "trusted_fraction": 0.10,
    "view_ratio": 0.10,
    "transport_encryption": True,
}

#: name → the same scenario as :func:`repro.scenario.spec_from_dict` input.
PINNED_DICTS = {
    "brahms-baseline": {
        "name": "brahms-baseline",
        "protocol": "brahms",
        "seed": 11,
        "rounds": ROUNDS,
        "topology": {
            "n_nodes": 60,
            "byzantine_fraction": 0.10,
            "view_ratio": 0.08,
            "loss_rate": 0.05,
        },
    },
    "raptee-fixed-eviction": {
        "name": "raptee-fixed-eviction",
        "protocol": "raptee",
        "seed": 23,
        "rounds": ROUNDS,
        "topology": _RAPTEE_TOPOLOGY,
        "raptee": {
            "eviction": {"kind": "fixed", "value": 0.6},
            "sketch_unbias_enabled": True,
        },
    },
    "raptee-faults": {
        "name": "raptee-faults",
        "protocol": "raptee",
        "seed": 31,
        "rounds": ROUNDS,
        "topology": _RAPTEE_TOPOLOGY,
        "raptee": {"eviction": {"kind": "adaptive"}},
        "faults": [
            {"kind": "loss-burst", "window": {"start": 2, "end": 3},
             "loss_rate": 0.30},
            {"kind": "crash-restart", "node_id": 5, "at_round": 2,
             "down_rounds": 2},
        ],
    },
}


def run_built(bundle, seed, plan, driver=None):
    """Observables of a built bundle on the round engine, or on whatever
    ``driver(bundle, seed)`` returns as the ``rounds -> None`` runner (the
    event engine, in the events differential); ``plan`` is the fault plan
    to wire first, or ``None``."""

    def runner(rounds):
        # Telemetry must be wired before faults so injector events land in
        # the same hub; wire_faults picks it up from the bundle and installs
        # the FaultController that either engine fires through run_round.
        if plan is not None:
            wire_faults(bundle, plan, seed=seed)
        (bundle.run if driver is None else driver(bundle, seed))(rounds)

    return observables(bundle, runner, ROUNDS)


def run_pinned(name, driver=None):
    """:func:`run_built` on one :data:`PINNED` scenario."""
    return run_built(*PINNED[name](), driver=driver)


def shard_config(topology, seed, protocol, **sections):
    """The :class:`~repro.shard.state.ShardConfig` of a ``kind='shard'``
    spec dict, built the way a spec file is: ``topology`` is the topology
    section and ``sections`` any other top-level section (``raptee``,
    ``faults``) in the form :func:`repro.scenario.spec_from_dict` reads."""
    return shard_config_from_spec(spec_from_dict({
        "name": "shard-test", "protocol": protocol, "seed": seed, "rounds": 1,
        "topology": topology, "adversary_strategy": "balanced",
        "engine": {"kind": "shard"}, **sections,
    }))


def run_shard_config(config, rounds, shards=1, workers=1, use_numpy=True,
                     trace_messages=False):
    """Run a :class:`~repro.shard.state.ShardConfig` — the shard suites'
    edge cases, often a :func:`shard_config` with fields replaced, and
    their pure-backend rows (``use_numpy`` stops at the ``ShardSimulation``
    seam) — and read it through the :class:`ScenarioArtifacts` that
    ``run_scenario`` returns.  No spec travels with the config, so
    ``metrics`` and ``artifact_sections`` do not apply."""
    simulation = ShardSimulation(
        config, shards=shards, workers=workers, use_numpy=use_numpy,
        telemetry=Telemetry(
            TelemetryConfig(tracing=True, trace_messages=trace_messages)
        ),
    )
    simulation.run(rounds)
    return ScenarioArtifacts(spec=None, bundle=simulation)


def known_ids(rows, n_nodes):
    """Packed ``known`` rows — ``[rows, ⌈N/8⌉]`` uint8, a slice of
    ``ShardState.known`` or a numpy ``PartitionDelta.known_bits`` — as one
    sorted id list per row."""
    bits = np.unpackbits(rows, axis=1, count=n_nodes)
    return [np.flatnonzero(row).tolist() for row in bits]


def assert_saturated_samples_uniform(histograms, n_byzantine, sample_size):
    """§II relies on a saturated sampler returning a uniform id.  Each of
    ``histograms`` (one a seed, pooled) counts, per id of a population
    whose lowest ``n_byzantine`` ids are Byzantine, the samplers of correct
    nodes that hold it once every correct node has streamed every other id
    through ``sample_size`` samplers.  χ² against uniform over the other
    N − 1 ids at false-alarm rate 0.001 (Wilson–Hilferty critical value)."""
    chi2, dof = 0.0, 0
    for observed in histograms:
        n = len(observed)
        for pid, count in enumerate(observed):
            # A node never samples itself: a correct id has one sampling
            # node fewer than a Byzantine id.
            samplers = (n - n_byzantine) - (pid >= n_byzantine)
            expected = samplers * sample_size / (n - 1)
            chi2 += (count - expected) ** 2 / expected
        dof += n - 1
    z_999 = 3.0902
    critical = dof * (1 - 2 / (9 * dof) + z_999 * (2 / (9 * dof)) ** 0.5) ** 3
    assert chi2 < critical, (chi2, critical)
