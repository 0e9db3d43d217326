"""Continuous-mode event engine: determinism, lateness, churn.

The two determinism fixtures live here:

* identical metrics under ``repeat()`` with ``workers=1`` vs ``workers=4``
  (the scheduler key is ``(time, seq)`` — no per-process state leaks in);
* identical runs across two *fresh* interpreter processes with the same
  seed (a digest of the event count, the cycle and late-cycle counts and
  the final views, printed by a subprocess).
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.crypto.prng import derive_seed
from repro.events import (
    ConstantLatency,
    EventEngine,
    EventOptions,
    LogNormalLatency,
    wire_events,
)
from repro.experiments.runner import repeat
from repro.experiments.scenarios import TopologySpec
from repro.faults.invariants import InvariantChecker
from repro.scenario import EngineSpec, ScenarioSpec, compile_spec, run_scenario
from repro.sim.churn import UniformChurn
from repro.telemetry import TelemetryConfig, wire_telemetry

ROUNDS = 8
_REPO_ROOT = Path(__file__).resolve().parents[1]


def _latency_options(seed, **overrides):
    base = dict(seed=seed, latency=LogNormalLatency(0.04, 0.6))
    base.update(overrides)
    return EventOptions(**base)


def _raptee_spec(seed, **sections):
    return ScenarioSpec(
        name="events-raptee", protocol="raptee", seed=seed, rounds=ROUNDS,
        topology=TopologySpec(n_nodes=40, byzantine_fraction=0.10,
                              trusted_fraction=0.10, view_ratio=0.10),
        **sections,
    )


def _raptee_bundle(seed):
    return compile_spec(_raptee_spec(seed))


def _build_and_run_events(seed: int):
    """Module-level (picklable) task for repeat() worker-count tests: the
    :func:`_latency_options` engine, written as the spec's engine section."""
    engine = EngineSpec(kind="events", latency="lognormal:40:0.6")
    return run_scenario(_raptee_spec(seed, engine=engine), telemetry=None).metrics


class TestContinuousMode:
    def test_rounds_advance_and_invariants_hold(self):
        bundle = wire_telemetry(_raptee_bundle(5), TelemetryConfig(tracing=False))
        checker = InvariantChecker()
        wire_events(bundle, _latency_options(5)).run(
            ROUNDS, extra_observers=(checker,)
        )
        assert bundle.simulation.round_number == ROUNDS
        assert bundle.engine.rounds_completed == ROUNDS
        assert checker.rounds_checked == ROUNDS
        assert checker.violations == []
        # Every node cycled roughly once per round.
        assert bundle.engine.cycles >= ROUNDS * len(bundle.simulation.nodes) // 2
        # Non-degenerate latency: pushes actually rode the queue (histogram
        # value() reads the observation count).
        assert bundle.telemetry.registry.value("events.push_latency_ms") > 0

    def test_bundle_run_drives_the_attached_event_engine(self):
        # bundle.run after wire_events is the event clock, not a silent
        # fall-back to lockstep rounds.
        bundle = wire_events(_raptee_bundle(5), _latency_options(5))
        bundle.run(ROUNDS)
        assert isinstance(bundle.engine, EventEngine)
        assert bundle.engine.rounds_completed == ROUNDS
        assert bundle.engine.cycles > 0
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
            options = EventOptions(seed=9, latency=ConstantLatency(0.0))
            wire_events(bundle, options).run(ROUNDS)
            return {
                node_id: tuple(node.view_ids())
                for node_id, node in sorted(bundle.simulation.nodes.items())
            }

        assert run() == run()

    def test_engine_is_single_shot(self):
        bundle = wire_events(_raptee_bundle(5), _latency_options(5))
        bundle.run(2)
        with pytest.raises(RuntimeError):
            bundle.run(2)

    def test_churn_arrivals_get_cycles(self):
        from repro.brahms.node import BrahmsNode
        from repro.sim.node import NodeKind

        spec = ScenarioSpec(
            name="events-churn", protocol="brahms", seed=47,
            topology=TopologySpec(n_nodes=50, byzantine_fraction=0.10,
                                  view_ratio=0.08),
        )
        bundle = compile_spec(spec)
        simulation = bundle.simulation
        config = spec.brahms_config

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
        wire_events(bundle, _latency_options(47)).run(12)
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


class TestLateness:
    def test_slower_links_make_more_cycles_late(self):
        """A cycle is late when its sessions' round trips outlast the round
        period: a 400 ms median link makes more of them late than a 40 ms one."""
        def late_fraction(median):
            options = _latency_options(4, latency=LogNormalLatency(median, 0.6))
            bundle = wire_events(_raptee_bundle(4), options)
            bundle.run(ROUNDS)
            return bundle.engine.late_fraction

        assert late_fraction(0.4) > late_fraction(0.04)


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
            "from repro.events import wire_events\n"
            "bundle = wire_events(_raptee_bundle(12), _latency_options(12))\n"
            "bundle.run(6)\n"
            "engine = bundle.engine\n"
            "views = {n: tuple(node.view_ids())"
            " for n, node in sorted(bundle.simulation.nodes.items())}\n"
            "payload = json.dumps([engine.queue.scheduled_total, engine.cycles,"
            " engine.late_cycles, views], sort_keys=True)\n"
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
