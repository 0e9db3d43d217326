"""End-to-end fault drills over full RAPTEE deployments."""

import functools
import math
import pickle

import pytest

from repro.core.node import RapteeNode
from repro.experiments.scenarios import TopologySpec
from repro.faults.harness import wire_faults
from repro.faults.invariants import InvariantChecker
from repro.faults.plan import (
    AttestationOutageFault,
    EnclaveCrashFault,
    FaultPlan,
    LossBurstFault,
    RoundWindow,
    SealedBlobCorruptionFault,
)
from repro.scenario import ScenarioSpec, compile_spec, get_spec, run_scenario
from repro.telemetry import TelemetryConfig, render_summary


def build_bundle(n_nodes, seed=1):
    topology = TopologySpec(
        n_nodes=n_nodes,
        byzantine_fraction=0.10,
        trusted_fraction=0.30,
        view_ratio=0.08,
    )
    return compile_spec(ScenarioSpec(name="fault-drill", protocol="raptee",
                                     seed=seed, topology=topology))


def mass_crash_plan(bundle, crash_round=8, outage_end=14):
    trusted = sorted(bundle.trusted_ids)
    victims = trusted[: math.ceil(len(trusted) * 0.30)]
    faults = [AttestationOutageFault(RoundWindow(crash_round, outage_end))]
    faults.extend(EnclaveCrashFault(v, crash_round) for v in victims)
    faults.extend(SealedBlobCorruptionFault(v, crash_round) for v in victims[::3])
    return FaultPlan(faults), victims


class TestMassEnclaveCrash:
    """The acceptance scenario: 220 nodes, 30 % of trusted enclaves die."""

    ROUNDS = 30

    @pytest.fixture(scope="class")
    def outcome(self):
        bundle = build_bundle(220)
        plan, victims = mass_crash_plan(bundle)
        checker = InvariantChecker()
        wire_faults(bundle, plan, seed=1).run(
            self.ROUNDS, extra_observers=(checker,)
        )
        return bundle, checker, victims

    def test_no_exception_and_invariants_hold(self, outcome):
        _bundle, checker, _victims = outcome
        assert checker.rounds_checked == self.ROUNDS
        assert checker.violations == []

    def test_all_victims_degraded_then_repromoted(self, outcome):
        bundle, _checker, victims = outcome
        nodes = bundle.simulation.nodes
        assert bundle.faults.stats.enclave_crashes == len(victims)
        for victim in victims:
            node = nodes[victim]
            assert node.degradations_total >= 1
            assert node.promotions_total >= 1
            assert not node.degraded
            assert node.trusted
        stats = bundle.faults.recovery.stats
        assert stats.restores_from_seal > 0      # intact blobs: fast path
        assert stats.reprovisions > 0            # corrupted blobs: re-attest
        assert stats.failed_attempts > 0         # ... blocked by the outage

    def test_degraded_nodes_kept_gossiping_as_honest(self, outcome):
        bundle, _checker, victims = outcome
        # Degraded rounds still produced usable views: every victim ends
        # with a full, nonempty view — it fell back to the honest path
        # rather than stalling.
        for victim in victims:
            assert bundle.simulation.nodes[victim].view_ids()

    def test_trusted_swaps_resumed_after_promotion(self, outcome):
        bundle, _checker, victims = outcome
        swaps = sum(
            node.trusted_exchanges_total
            for node_id, node in sorted(bundle.simulation.nodes.items())
            if isinstance(node, RapteeNode) and node_id in set(victims)
        )
        assert swaps > 0

    def test_corrupted_victims_resume_swaps_after_reattestation(self):
        # Focused two-stage run: victims whose sealed blobs rot stay
        # degraded through the attestation outage (their exchange counter
        # freezes), then re-attest and swap again.
        bundle = build_bundle(60, seed=4)
        plan, victims = mass_crash_plan(bundle, crash_round=4, outage_end=10)
        corrupted = victims[::3]
        wire_faults(bundle, plan, seed=4)
        bundle.run(9)  # inside the outage: corrupted victims are degraded
        nodes = bundle.simulation.nodes
        assert any(nodes[v].degraded for v in corrupted)
        frozen = {v: nodes[v].trusted_exchanges_total for v in corrupted}
        bundle.run(21)  # outage lifts; backoff retries eventually land
        assert all(not nodes[v].degraded for v in corrupted)
        assert any(
            nodes[v].trusted_exchanges_total > frozen[v] for v in corrupted
        )

    def test_resilience_not_destroyed(self, outcome):
        bundle, _checker, _victims = outcome
        from repro.analysis.metrics import resilience_from_trace

        polluted = resilience_from_trace(bundle.trace.records)
        assert polluted < 0.75


class TestDeterminism:
    def _fingerprint(self, seed):
        bundle = build_bundle(60, seed=seed)
        plan, _victims = mass_crash_plan(bundle, crash_round=4, outage_end=7)
        plan = FaultPlan(list(plan.faults) + [LossBurstFault(RoundWindow(3, 9), 0.2)])
        wire_faults(bundle, plan, seed=seed).run(12)
        per_round_views = [
            (record.round_number, sorted(record.byzantine_fraction.items()))
            for record in bundle.trace.records
        ]
        return pickle.dumps((
            per_round_views,
            [(record.pushes, record.requests, record.losses)
             for record in bundle.trace.records],
            sorted(bundle.faults.stats.drops_by_cause.items()),
            bundle.faults.recovery.stats,
        ))

    def test_same_seed_same_plan_byte_identical(self):
        assert self._fingerprint(7) == self._fingerprint(7)

    def test_different_seed_differs(self):
        assert self._fingerprint(7) != self._fingerprint(8)


@functools.lru_cache(maxsize=None)
def _drill(name):
    """A catalog drill, run as ``repro trace --scenario`` runs it: with the
    invariant checker observing every round (read-only, so shared)."""
    return run_scenario(get_spec(f"drill-{name}"),
                        telemetry=TelemetryConfig(tracing=False), check_invariants=True)


class TestDrills:
    def test_every_drill_runs_clean_at_small_scale(self):
        for name in ("enclave-outage", "partition", "flaky-provisioning"):
            checker = _drill(name).checker
            assert checker.violations == [], f"{name}: {checker.violations}"
            assert checker.rounds_checked == 16

    def test_unknown_drill_rejected(self):
        with pytest.raises(KeyError, match="no catalog scenario"):
            get_spec("drill-nope")

    def test_drill_report_renders(self):
        text = render_summary(_drill("enclave-outage").bundle.telemetry)
        assert "enclave crashes" in text
        assert "sealed restores" in text
