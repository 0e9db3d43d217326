"""Differential equivalence: legacy builder path vs spec compilation.

The builder functions in :mod:`repro.experiments.scenarios` are now thin
shims that express each call as a :class:`ScenarioSpec` and compile it.
This suite is the proof obligation for that refactor: for every
pre-existing pinned scenario family (the ones the perf/snapshot/events
differential suites run through the builders), the direct legacy
assembly path (``_build_*_impl``) and the spec-compiled path must
produce byte-identical runs — same trace JSONL, same metrics CSV, same
final views, same traffic series.

Each scenario is expressed three ways and all must agree:

1. legacy: ``_build_*_impl`` called directly (the pre-refactor path);
2. shim: the public builder function (spec built in memory);
3. loaded: the same scenario as a plain dict through
   :func:`spec_from_dict` → :func:`compile_spec` (what a vector replays).
"""

from __future__ import annotations

import pytest

from repro.core.eviction import AdaptiveEviction, FixedEviction
from repro.experiments.scenarios import (
    TopologySpec,
    _build_brahms_impl,
    _build_raptee_impl,
    build_brahms_simulation,
    build_raptee_simulation,
)
from repro.faults.harness import wire_faults
from repro.faults.plan import CrashRestartFault, FaultPlan, LossBurstFault, RoundWindow
from repro.membership import MembershipConfig
from repro.scenario import compile_spec, spec_from_dict

from tests._pinned import observables as _observables

ROUNDS = 6


# Every pre-existing pinned scenario family, expressed once as builder
# kwargs (the legacy surface) and once as a spec dict (the loaded
# surface).  IDs mirror the scenario names of the earlier differential
# suites.
_BRAHMS_CASES = {
    "brahms-baseline": {
        "spec": TopologySpec(
            n_nodes=60, byzantine_fraction=0.10, view_ratio=0.08, loss_rate=0.05
        ),
        "seed": 11,
        "kwargs": {},
        "dict": {
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
    },
}

_RAPTEE_CASES = {
    "raptee-fixed-eviction": {
        "spec": TopologySpec(
            n_nodes=40, byzantine_fraction=0.10, trusted_fraction=0.10,
            view_ratio=0.10, transport_encryption=True,
        ),
        "seed": 23,
        "kwargs": {
            "eviction": FixedEviction(0.6),
            "sketch_unbias_enabled": True,
        },
        "dict": {
            "name": "raptee-fixed-eviction",
            "protocol": "raptee",
            "seed": 23,
            "rounds": ROUNDS,
            "topology": {
                "n_nodes": 40,
                "byzantine_fraction": 0.10,
                "trusted_fraction": 0.10,
                "view_ratio": 0.10,
                "transport_encryption": True,
            },
            "raptee": {
                "eviction": {"kind": "fixed", "value": 0.6},
                "sketch_unbias_enabled": True,
            },
        },
    },
    "raptee-membership": {
        "spec": TopologySpec(
            n_nodes=40, byzantine_fraction=0.10, trusted_fraction=0.15,
            view_ratio=0.10, transport_encryption=True,
        ),
        "seed": 53,
        "kwargs": {
            "eviction": AdaptiveEviction(),
            "membership": MembershipConfig(join_rate=0.05, leave_rate=0.03),
        },
        "dict": {
            "name": "raptee-membership",
            "protocol": "raptee",
            "seed": 53,
            "rounds": ROUNDS,
            "topology": {
                "n_nodes": 40,
                "byzantine_fraction": 0.10,
                "trusted_fraction": 0.15,
                "view_ratio": 0.10,
                "transport_encryption": True,
            },
            "raptee": {"eviction": {"kind": "adaptive"}},
            "membership": {"join_rate": 0.05, "leave_rate": 0.03},
        },
    },
    "raptee-poisoned-cycles": {
        "spec": TopologySpec(
            n_nodes=40, byzantine_fraction=0.10, trusted_fraction=0.10,
            poisoned_fraction=0.05, view_ratio=0.10,
        ),
        "seed": 29,
        "kwargs": {
            "eviction": AdaptiveEviction(),
            "probe_pulls": 2,
            "auth_mode": "aes-ctr",
            "with_cycle_accounting": True,
        },
        "dict": {
            "name": "raptee-poisoned-cycles",
            "protocol": "raptee",
            "seed": 29,
            "rounds": ROUNDS,
            "topology": {
                "n_nodes": 40,
                "byzantine_fraction": 0.10,
                "trusted_fraction": 0.10,
                "poisoned_fraction": 0.05,
                "view_ratio": 0.10,
            },
            "raptee": {
                "eviction": {"kind": "adaptive"},
                "probe_pulls": 2,
                "auth_mode": "aes-ctr",
                "with_cycle_accounting": True,
            },
        },
    },
}

_FAULT_PLAN = [
    LossBurstFault(window=RoundWindow(2, 3), loss_rate=0.30),
    CrashRestartFault(node_id=5, at_round=2, down_rounds=2),
]

_RAPTEE_FAULTS_CASE = {
    "spec": TopologySpec(
        n_nodes=40, byzantine_fraction=0.10, trusted_fraction=0.10,
        view_ratio=0.10, transport_encryption=True,
    ),
    "seed": 31,
    "kwargs": {"eviction": AdaptiveEviction()},
    "dict": {
        "name": "raptee-faults",
        "protocol": "raptee",
        "seed": 31,
        "rounds": ROUNDS,
        "topology": {
            "n_nodes": 40,
            "byzantine_fraction": 0.10,
            "trusted_fraction": 0.10,
            "view_ratio": 0.10,
            "transport_encryption": True,
        },
        "raptee": {"eviction": {"kind": "adaptive"}},
        "faults": [
            {"kind": "loss-burst", "window": {"start": 2, "end": 3},
             "loss_rate": 0.30},
            {"kind": "crash-restart", "node_id": 5, "at_round": 2,
             "down_rounds": 2},
        ],
    },
}


def _assert_identical(reference, candidate, label):
    assert candidate["trace_jsonl"] == reference["trace_jsonl"], (
        f"{label}: trace JSONL diverged"
    )
    assert candidate["metrics_csv"] == reference["metrics_csv"], (
        f"{label}: metrics CSV diverged"
    )
    for key in reference:
        assert candidate[key] == reference[key], f"{label}: {key} diverged"


class TestBrahmsPaths:
    @pytest.mark.parametrize("name", sorted(_BRAHMS_CASES))
    def test_legacy_shim_and_loaded_specs_agree(self, name):
        case = _BRAHMS_CASES[name]

        legacy = _build_brahms_impl(case["spec"], case["seed"], **case["kwargs"])
        reference = _observables(legacy, legacy.run, ROUNDS)

        shim = build_brahms_simulation(case["spec"], case["seed"], **case["kwargs"])
        _assert_identical(
            reference, _observables(shim, shim.run, ROUNDS), f"{name} (shim)"
        )

        loaded = compile_spec(spec_from_dict(case["dict"]))
        _assert_identical(
            reference, _observables(loaded, loaded.run, ROUNDS), f"{name} (loaded)"
        )


class TestRapteePaths:
    @pytest.mark.parametrize("name", sorted(_RAPTEE_CASES))
    def test_legacy_shim_and_loaded_specs_agree(self, name):
        case = _RAPTEE_CASES[name]

        legacy = _build_raptee_impl(case["spec"], case["seed"], **case["kwargs"])
        reference = _observables(legacy, legacy.run, ROUNDS)

        shim = build_raptee_simulation(case["spec"], case["seed"], **case["kwargs"])
        _assert_identical(
            reference, _observables(shim, shim.run, ROUNDS), f"{name} (shim)"
        )

        loaded = compile_spec(spec_from_dict(case["dict"]))
        _assert_identical(
            reference, _observables(loaded, loaded.run, ROUNDS), f"{name} (loaded)"
        )


class TestRapteeFaultsPath:
    def test_fault_scenario_agrees_across_paths(self):
        case = _RAPTEE_FAULTS_CASE

        def runner_for(bundle):
            def run(rounds):
                harness = wire_faults(
                    bundle, FaultPlan(list(_FAULT_PLAN)), seed=case["seed"]
                )
                harness.run(rounds)

            return run

        legacy = _build_raptee_impl(case["spec"], case["seed"], **case["kwargs"])
        reference = _observables(legacy, runner_for(legacy), ROUNDS)

        shim = build_raptee_simulation(case["spec"], case["seed"], **case["kwargs"])
        _assert_identical(
            reference,
            _observables(shim, runner_for(shim), ROUNDS),
            "raptee-faults (shim)",
        )

        # The loaded path carries the fault plan inside the spec; wiring it
        # through wire_faults with the spec seed is exactly what
        # run_scenario does, so drive it the same way here.
        loaded = compile_spec(spec_from_dict(case["dict"]))
        _assert_identical(
            reference,
            _observables(loaded, runner_for(loaded), ROUNDS),
            "raptee-faults (loaded)",
        )


class TestViewSizeValidation:
    """Satellite fix: oversized views are rejected at construction."""

    def test_topology_spec_rejects_view_ratio_ge_population(self):
        with pytest.raises(ValueError, match="view_ratio"):
            TopologySpec(n_nodes=10, byzantine_fraction=0.0, view_ratio=0.97)

    def test_topology_spec_rejects_view_ratio_out_of_range(self):
        with pytest.raises(ValueError, match="view_ratio"):
            TopologySpec(n_nodes=50, byzantine_fraction=0.0, view_ratio=1.2)
        with pytest.raises(ValueError, match="view_ratio"):
            TopologySpec(n_nodes=50, byzantine_fraction=0.0, view_ratio=0.0)

    def test_topology_spec_rejects_rounded_counts_without_honest_nodes(self):
        # The fractions sum below 1, but round(5.5) + round(4.4) = 6 + 4.
        with pytest.raises(ValueError, match="6 Byzantine.*4 trusted.*0 honest"):
            TopologySpec(n_nodes=10, byzantine_fraction=0.55,
                         trusted_fraction=0.44, view_ratio=0.5)

    def test_builders_reject_oversized_config_override(self):
        from repro.brahms.config import BrahmsConfig

        spec = TopologySpec(n_nodes=20, byzantine_fraction=0.10, view_ratio=0.4)
        oversized = BrahmsConfig(view_size=30, sample_size=10)
        with pytest.raises(ValueError, match="view_size"):
            build_brahms_simulation(spec, seed=1, config_override=oversized)
        with pytest.raises(ValueError, match="view_size"):
            build_raptee_simulation(
                spec, seed=1, eviction=AdaptiveEviction(),
                config_override=oversized,
            )

    def test_impls_reject_oversized_config_override(self):
        from repro.brahms.config import BrahmsConfig

        spec = TopologySpec(n_nodes=20, byzantine_fraction=0.10, view_ratio=0.4)
        oversized = BrahmsConfig(view_size=30, sample_size=10)
        with pytest.raises(ValueError, match="view_size"):
            _build_brahms_impl(spec, seed=1, config_override=oversized)
        with pytest.raises(ValueError, match="view_size"):
            _build_raptee_impl(
                spec, seed=1, eviction=AdaptiveEviction(),
                config_override=oversized,
            )

    def test_valid_view_sizes_still_accepted(self):
        spec = TopologySpec(n_nodes=20, byzantine_fraction=0.10, view_ratio=0.4)
        bundle = build_brahms_simulation(spec, seed=1)
        assert len(bundle.simulation.nodes) == 20
