"""Telemetry wired into full simulations: determinism and zero-perturbation.

The contract under test: telemetry observes, never steers.  A run with
telemetry on must produce the same protocol results, byte for byte, as a
run with it off; and the trace itself must be byte-identical across
repeated runs of the same scenario + seed.
"""

import re
from pathlib import Path

from repro.experiments.scenarios import TopologySpec
from repro.scenario import ScenarioSpec, get_spec, run_scenario
from repro.telemetry import (
    TelemetryConfig,
    metrics_to_csv,
    trace_to_jsonl,
    validate_trace_jsonl,
)

SPEC = TopologySpec(
    n_nodes=40,
    byzantine_fraction=0.10,
    trusted_fraction=0.20,
    view_ratio=0.10,
)
SEED = 7
ROUNDS = 8


def _run(config, seed=SEED):
    """The scenario under hub ``config`` (``None``: no hub at all)."""
    spec = ScenarioSpec(name="telemetry", protocol="raptee", seed=seed,
                        rounds=ROUNDS, topology=SPEC)
    return run_scenario(spec, telemetry=config)


def _traced_run(config=TelemetryConfig(), seed=SEED):
    artifacts = _run(config, seed)
    return artifacts.metrics, artifacts.bundle.telemetry


class TestTraceDeterminism:
    def test_same_seed_twice_is_byte_identical(self):
        _, first = _traced_run()
        _, second = _traced_run()
        assert trace_to_jsonl(first.trace.events) == \
            trace_to_jsonl(second.trace.events)
        assert metrics_to_csv(first.registry) == metrics_to_csv(second.registry)

    def test_different_seed_changes_trace(self):
        _, telemetry = _traced_run()
        _, other = _traced_run(seed=SEED + 1)
        assert trace_to_jsonl(telemetry.trace.events) != \
            trace_to_jsonl(other.trace.events)

    def test_exported_trace_validates(self):
        _, telemetry = _traced_run()
        text = trace_to_jsonl(telemetry.trace.events)
        assert validate_trace_jsonl(text) == len(telemetry.trace)


class TestZeroPerturbation:
    def test_telemetry_off_matches_on(self):
        baseline = _run(None).metrics
        traced, _ = _traced_run()
        assert traced == baseline

    def test_message_events_off_matches_on(self):
        baseline, full = _traced_run()
        quiet_metrics, quiet = _traced_run(TelemetryConfig(trace_messages=False))
        assert quiet_metrics == baseline
        assert len(quiet.trace) < len(full.trace)
        assert not quiet.trace.named("net.push")


class TestRegistryContents:
    def test_traffic_counters_mirror_network_stats(self):
        bundle = _run(TelemetryConfig()).bundle
        registry = bundle.telemetry.registry
        stats = bundle.simulation.network.stats
        assert registry.value("network.pushes_sent") == stats.pushes_sent
        assert registry.value("network.pushes_delivered") == stats.pushes_delivered
        assert registry.total("network.requests_sent") == stats.requests_sent
        assert registry.total("network.replies_delivered") == stats.replies_delivered
        assert registry.value("sim.rounds") == ROUNDS
        assert registry.total("sgx.ecalls") > 0

    def test_round_histograms_cover_every_round(self):
        _, telemetry = _traced_run()
        hist = telemetry.registry.histogram("round.pushes")
        assert hist.count == ROUNDS


class TestDrillDeterminism:
    def test_drill_reports_are_reproducible(self):
        first, second = (
            run_scenario(get_spec("drill-enclave-outage"),
                         telemetry=TelemetryConfig(tracing=False), check_invariants=True)
            for _ in range(2)
        )
        assert first.metrics_csv == second.metrics_csv
        assert first.checker.violations == second.checker.violations
        registry = first.bundle.telemetry.registry
        assert registry.value("faults.enclave_crashes") > 0
        assert (registry.value("raptee.degradations")
                >= registry.value("faults.enclave_crashes"))


class TestReadmeSnippet:
    def test_telemetry_section_python_block_runs(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8")
        section = text.split("\n## Telemetry\n", 1)[1].split("\n## ", 1)[0]
        (block,) = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
        namespace = {}
        exec(compile(block, "README.md (Telemetry)", "exec"), namespace)
        telemetry = namespace["telemetry"]
        assert validate_trace_jsonl(namespace["jsonl"]) == len(telemetry.trace)
        assert namespace["last"].round == 10
        assert namespace["last"].fields == {"alive": 50}
