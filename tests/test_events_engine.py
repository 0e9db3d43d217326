"""Continuous-mode event engine: determinism, load, stragglers, churn.

The two ISSUE-8 determinism fixtures live here:

* identical metrics under ``repeat()`` with ``workers=1`` vs ``workers=4``
  (the scheduler key is ``(time, seq)`` — no per-process state leaks in);
* identical event sequences across two *fresh* interpreter processes with
  the same seed (the schedule log digest printed by a subprocess).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.eviction import AdaptiveEviction
from repro.crypto.prng import derive_seed
from repro.events import (
    ConstantLatency,
    EventOptions,
    LatencyConfig,
    LoadSpec,
    LogNormalLatency,
    StragglerProfile,
    wire_events,
)
from repro.experiments.runner import repeat, run_bundle
from repro.experiments.scenarios import (
    TopologySpec,
    build_brahms_simulation,
    build_raptee_simulation,
)
from repro.faults.invariants import InvariantChecker
from repro.sim.churn import UniformChurn
from repro.telemetry import TelemetryConfig, wire_telemetry

ROUNDS = 8
_REPO_ROOT = Path(__file__).resolve().parents[1]


def _latency_options(seed, **overrides):
    base = dict(
        seed=seed,
        mode="continuous",
        latency=LatencyConfig(default=LogNormalLatency(0.04, 0.6)),
    )
    base.update(overrides)
    return EventOptions(**base)


def _raptee_bundle(seed):
    spec = TopologySpec(
        n_nodes=40, byzantine_fraction=0.10, trusted_fraction=0.10,
        view_ratio=0.10,
    )
    return build_raptee_simulation(spec, seed, eviction=AdaptiveEviction())


def _build_and_run_events(seed: int):
    """Module-level (picklable) task for repeat() worker-count tests."""
    bundle = _raptee_bundle(seed)
    wire_events(bundle, _latency_options(seed))
    return run_bundle(bundle, ROUNDS)


class TestContinuousMode:
    def test_rounds_advance_and_invariants_hold(self):
        bundle = _raptee_bundle(5)
        harness = wire_events(bundle, _latency_options(5))
        checker = InvariantChecker(record_only=True)
        harness.run(ROUNDS, extra_observers=(checker,))
        assert bundle.simulation.round_number == ROUNDS
        assert harness.engine.rounds_completed == ROUNDS
        assert checker.rounds_checked == ROUNDS
        assert checker.violations == []
        # Every node cycled roughly once per round.
        assert harness.engine.cycles >= ROUNDS * len(bundle.simulation.nodes) // 2
        # Non-degenerate latency: pushes actually rode the queue.
        assert harness.engine.latency_network.deferred_pushes > 0

    def test_bundle_run_drives_the_attached_event_engine(self):
        # bundle.run after wire_events is the event clock, not a silent
        # fall-back to lockstep rounds.
        bundle = _raptee_bundle(5)
        harness = wire_events(bundle, _latency_options(5))
        bundle.run(ROUNDS)
        assert harness.engine.rounds_completed == ROUNDS
        assert harness.engine.cycles > 0
        assert bundle.simulation.round_number == ROUNDS

    def test_view_trace_records_every_round(self):
        bundle = _raptee_bundle(6)
        wire_events(bundle, _latency_options(6)).run(ROUNDS)
        assert [record.round_number for record in bundle.trace.records] == list(
            range(1, ROUNDS + 1)
        )

    def test_zero_latency_continuous_is_deterministic(self):
        def run():
            bundle = _raptee_bundle(9)
            options = EventOptions(seed=9, mode="continuous",
                                   latency=LatencyConfig(default=ConstantLatency(0.0)))
            wire_events(bundle, options).run(ROUNDS)
            return {
                node_id: tuple(node.view_ids())
                for node_id, node in sorted(bundle.simulation.nodes.items())
            }

        assert run() == run()

    def test_engine_is_single_shot(self):
        bundle = _raptee_bundle(5)
        harness = wire_events(bundle, _latency_options(5))
        harness.run(2)
        with pytest.raises(RuntimeError):
            harness.run(2)

    def test_churn_arrivals_get_cycles(self):
        from repro.brahms.node import BrahmsNode
        from repro.sim.node import NodeKind

        spec = TopologySpec(n_nodes=50, byzantine_fraction=0.10, view_ratio=0.08)
        bundle = build_brahms_simulation(spec, seed=47)
        simulation = bundle.simulation
        config = spec.brahms_config()

        def factory(node_id):
            node = BrahmsNode(
                node_id, NodeKind.HONEST, config,
                random.Random(derive_seed(47, "node", node_id)),
            )
            # Honest bootstrap contacts (IDs 0-4 are Byzantine here) so the
            # join round's pulls return real views.
            node.seed_view([10, 20, 30])
            return node

        simulation._churn = UniformChurn(leave_rate=0.02, join_rate=0.06)
        simulation._node_factory = factory
        harness = wire_events(bundle, _latency_options(47))
        harness.run(12)
        arrivals = [node_id for node_id in simulation.nodes if node_id >= 50]
        assert arrivals, "churn produced no arrivals; raise join_rate"
        # Arrivals were scheduled onto the event clock and gossiped: their
        # pulls expanded their known set past the bootstrap contacts, and
        # their pushes reached established correct nodes.
        learned = [node_id for node_id in arrivals
                   if len(simulation.nodes[node_id].known) > 4]
        assert learned
        established = [
            node for node in simulation.correct_nodes() if node.node_id < 50
        ]
        heard_of = [node_id for node_id in arrivals
                    if any(node_id in node.known for node in established)]
        assert heard_of


class TestLoadGenerator:
    def test_load_metrics_reach_registry(self):
        bundle = _raptee_bundle(7)
        harness = wire_telemetry(bundle, TelemetryConfig(tracing=False))
        wire_events(bundle, _latency_options(7, load=LoadSpec(10, 30.0)))
        bundle.run(ROUNDS)
        load = bundle.events.load
        assert load.served > 0
        registry = harness.telemetry.registry
        assert registry.value("load.requests") == load.served
        assert registry.value("load.failures") == load.failed
        assert registry.value("load.byzantine_samples") == load.byzantine_samples
        # Histogram value() reads the observation count.
        assert registry.value("load.latency_ms") == load.served
        assert len(load.records) == load.served + load.failed
        assert load.latencies_ms and min(load.latencies_ms) > 0

    def test_load_is_deterministic(self):
        def run():
            bundle = _raptee_bundle(8)
            options = _latency_options(8, load=LoadSpec(10, 30.0))
            wire_events(bundle, options).run(ROUNDS)
            return bundle.events.load.records

        assert run() == run()


class TestStragglers:
    def test_membership_is_deterministic_and_sized(self):
        profile = StragglerProfile(0.25, 8.0)
        factors = {node_id: profile.factor_for(3, node_id) for node_id in range(400)}
        assert factors == {node_id: profile.factor_for(3, node_id)
                           for node_id in range(400)}
        slow = sum(1 for factor in factors.values() if factor > 1.0)
        assert 50 <= slow <= 150  # ~25% of 400

    def test_stragglers_fall_behind(self):
        def late_fraction(profile):
            bundle = _raptee_bundle(4)
            harness = wire_events(bundle, _latency_options(4, stragglers=profile))
            harness.run(ROUNDS)
            return harness.engine.late_fraction

        baseline = late_fraction(None)
        straggling = late_fraction(StragglerProfile(0.2, 16.0))
        assert straggling > baseline


class TestCrossProcessDeterminism:
    def test_repeat_workers_1_vs_4_identical(self):
        seeds = [101, 102, 103, 104]
        serial = repeat(_build_and_run_events, seeds, workers=1)
        parallel = repeat(_build_and_run_events, seeds, workers=4)
        assert serial.runs == parallel.runs
        assert serial.resilience == parallel.resilience

    def test_fresh_processes_same_seed_same_event_sequence(self):
        script = (
            "import hashlib, json\n"
            "from tests.test_events_engine import _raptee_bundle, _latency_options\n"
            "from repro.events import LoadSpec, wire_events\n"
            "bundle = _raptee_bundle(12)\n"
            "options = _latency_options(12, load=LoadSpec(5, 30.0),"
            " record_schedule=True)\n"
            "harness = wire_events(bundle, options)\n"
            "harness.run(6)\n"
            "views = {n: tuple(node.view_ids())"
            " for n, node in sorted(bundle.simulation.nodes.items())}\n"
            "payload = json.dumps([harness.engine.schedule_log, views],"
            " sort_keys=True)\n"
            "print(hashlib.sha256(payload.encode()).hexdigest())\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(_REPO_ROOT / "src"), str(_REPO_ROOT)]
        )
        digests = [
            subprocess.run(
                [sys.executable, "-c", script], env=env, cwd=str(_REPO_ROOT),
                capture_output=True, text=True, check=True,
            ).stdout.strip()
            for _ in range(2)
        ]
        assert digests[0] and digests[0] == digests[1]


class TestSloFigure:
    def test_slo_figure_is_deterministic_and_non_degenerate(self):
        from repro.experiments.figures import Scale, slo_figure

        scale = Scale(n_nodes=40, rounds=8, repetitions=1, view_ratio=0.10)
        loads = ((5, 30.0), (20, 30.0))
        first = slo_figure(scale, loads=loads)
        second = slo_figure(scale, loads=loads)
        assert first.rows == second.rows
        served = [float(row[1]) for row in first.rows]
        assert all(count > 0 for count in served)
        # More clients => more served requests (throughput actually scales).
        assert served[1] > served[0]
        # Non-degenerate latency: p95 is a positive bucket bound.
        assert all(float(row[4]) > 0 for row in first.rows)
        # The bytes the figure rendered before it went through _scenario/_run.
        assert hashlib.sha256(first.render().encode("utf-8")).hexdigest() == (
            "47501c9c8ef1cbd9967b6426d51fb604c999902fa19d19c6fe347243d127c875"
        )
