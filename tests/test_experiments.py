"""Scenario-assembly and runner tests (small topologies)."""

import pickle
import re

import pytest

from repro.core.config import RapteeConfig
from repro.core.eviction import FixedEviction
from repro.experiments.runner import (
    RunMetrics,
    SeedTaskError,
    map_ordered,
    repeat,
)
from repro.experiments.scenarios import TopologySpec
from repro.scenario import ScenarioSpec, compile_spec, run_scenario
from repro.sim.node import NodeKind

_WORKER_SPEC = TopologySpec(n_nodes=30, byzantine_fraction=0.1)


def _spec(protocol, seed, topology, rounds=0, **sections):
    return ScenarioSpec(name="experiments-unit", protocol=protocol, seed=seed,
                        rounds=rounds, topology=topology, **sections)


def _metrics(protocol, seed, topology, rounds):
    return run_scenario(_spec(protocol, seed, topology, rounds),
                        telemetry=None).metrics


def _build_and_run_small(seed):
    # Module level so ProcessPoolExecutor can pickle it (workers > 1).
    return _metrics("brahms", seed, _WORKER_SPEC, rounds=5)


def _fail_on_seed_three(seed):
    # Module level for the same pickling reason.
    if seed == 3:
        raise RuntimeError("boom")
    return RunMetrics(resilience=0.1 * seed, discovery_round=2,
                      stability_round=3, rounds=5)


class TestTopologySpec:
    def test_population_counts(self):
        spec = TopologySpec(n_nodes=100, byzantine_fraction=0.1, trusted_fraction=0.05)
        assert spec.n_byzantine == 10
        assert spec.n_trusted == 5
        assert spec.n_honest == 85

    def test_poisoned_are_additional(self):
        spec = TopologySpec(n_nodes=100, byzantine_fraction=0.1, poisoned_fraction=0.05)
        assert spec.n_poisoned == 5
        assert spec.n_honest == 90

    def test_validation(self):
        with pytest.raises(ValueError):
            TopologySpec(n_nodes=5)
        with pytest.raises(ValueError):
            TopologySpec(byzantine_fraction=1.2)
        with pytest.raises(ValueError):
            TopologySpec(byzantine_fraction=0.6, trusted_fraction=0.5)

    def test_brahms_config_scaling(self):
        spec = TopologySpec(n_nodes=500, view_ratio=0.04)
        assert spec.brahms_config().view_size == 20


class TestBrahmsBuilder:
    def test_population_kinds(self):
        topology = TopologySpec(n_nodes=50, byzantine_fraction=0.2)
        sim = compile_spec(_spec("brahms", 1, topology)).simulation
        assert len(sim.ids_of_kind(NodeKind.BYZANTINE)) == 10
        assert len(sim.ids_of_kind(NodeKind.HONEST)) == 40

    def test_runs_and_produces_trace(self):
        topology = TopologySpec(n_nodes=50, byzantine_fraction=0.1)
        artifacts = run_scenario(_spec("brahms", 1, topology, rounds=10),
                                 telemetry=None)
        assert 0.0 <= artifacts.metrics.resilience <= 1.0
        assert len(artifacts.bundle.trace.records) == 10

    def test_deterministic_under_seed(self):
        topology = TopologySpec(n_nodes=50, byzantine_fraction=0.1)
        first = _metrics("brahms", 7, topology, rounds=8)
        second = _metrics("brahms", 7, topology, rounds=8)
        assert first == second

    def test_seed_changes_outcome(self):
        topology = TopologySpec(n_nodes=50, byzantine_fraction=0.1)
        first = _metrics("brahms", 7, topology, rounds=8)
        second = _metrics("brahms", 8, topology, rounds=8)
        assert first != second


class TestRapteeBuilder:
    def test_population_kinds(self):
        topology = TopologySpec(
            n_nodes=50, byzantine_fraction=0.1, trusted_fraction=0.1,
            poisoned_fraction=0.04,
        )
        bundle = compile_spec(_spec("raptee", 1, topology))
        sim = bundle.simulation
        assert len(sim.ids_of_kind(NodeKind.BYZANTINE)) == 5
        assert len(sim.ids_of_kind(NodeKind.TRUSTED)) == 5
        assert len(sim.ids_of_kind(NodeKind.POISONED_TRUSTED)) == 2
        assert bundle.trusted_ids == sim.ids_of_kind(NodeKind.TRUSTED) | sim.ids_of_kind(
            NodeKind.POISONED_TRUSTED
        )

    def test_all_trusted_nodes_share_group_key(self):
        topology = TopologySpec(n_nodes=40, byzantine_fraction=0.0, trusted_fraction=0.1)
        bundle = compile_spec(_spec("raptee", 1, topology))
        trusted = [
            sim_node
            for sim_node in bundle.simulation.nodes.values()
            if sim_node.kind is NodeKind.TRUSTED
        ]
        r_a = b"r" * 16
        r_b, proof = trusted[0].enclave.auth_respond(r_a)
        assert trusted[1].enclave.auth_check_response(r_a, r_b, proof)

    def test_runs_with_cycle_accounting(self):
        topology = TopologySpec(n_nodes=40, byzantine_fraction=0.0, trusted_fraction=0.2)
        options = RapteeConfig(eviction=FixedEviction(0.0), with_cycle_accounting=True)
        bundle = run_scenario(_spec("raptee", 1, topology, rounds=5, raptee=options),
                              telemetry=None).bundle
        trusted_id = next(iter(bundle.trusted_ids))
        accountant = bundle.cycle_accountants[trusted_id]
        assert accountant.total_cycles > 0

    def test_cycle_mode_validation(self):
        with pytest.raises(ValueError, match="cycle_mode"):
            RapteeConfig(with_cycle_accounting=True, cycle_mode="bogus")

    def test_deterministic_under_seed(self):
        topology = TopologySpec(n_nodes=40, byzantine_fraction=0.1, trusted_fraction=0.1)
        first = _metrics("raptee", 5, topology, rounds=6)
        second = _metrics("raptee", 5, topology, rounds=6)
        assert first == second

    def test_probe_pulls_collect_intel(self):
        topology = TopologySpec(n_nodes=50, byzantine_fraction=0.2, trusted_fraction=0.1)
        spec = _spec("raptee", 1, topology, rounds=5,
                     raptee=RapteeConfig(probe_pulls=3))
        bundle = run_scenario(spec, telemetry=None).bundle
        assert len(bundle.coordinator.intel) > 0


class TestRepeat:
    def test_aggregates_over_seeds(self):
        topology = TopologySpec(n_nodes=40, byzantine_fraction=0.1)

        def build_and_run(seed):
            return _metrics("brahms", seed, topology, rounds=6)

        repeated = repeat(build_and_run, seeds=[1, 2, 3])
        assert repeated.resilience.count == 3
        assert len(repeated.runs) == 3

    def test_workers_match_serial(self):
        seeds = [1, 2, 3, 4]
        serial = repeat(_build_and_run_small, seeds)
        pooled = repeat(_build_and_run_small, seeds, workers=2)
        assert pooled.runs == serial.runs
        assert pooled.resilience == serial.resilience
        assert pooled.discovery_round == serial.discovery_round
        assert pooled.stability_round == serial.stability_round

    def test_workers_one_is_serial_path(self):
        seeds = [1, 2]
        assert repeat(_build_and_run_small, seeds, workers=1).runs == \
            repeat(_build_and_run_small, seeds).runs

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            repeat(_build_and_run_small, [1], workers=0)

    def test_round_zero_milestones_are_counted(self):
        # The "never reached" sentinel is -1; a milestone hit at round 0
        # must be aggregated, not filtered out alongside the sentinel.
        from repro.experiments.runner import RunMetrics

        metrics = {
            1: RunMetrics(resilience=0.1, discovery_round=0,
                          stability_round=0, rounds=5),
            2: RunMetrics(resilience=0.2, discovery_round=-1,
                          stability_round=3, rounds=5),
        }
        repeated = repeat(lambda seed: metrics[seed], seeds=[1, 2])
        assert repeated.discovery_round.count == 1
        assert repeated.discovery_round.mean == 0
        assert repeated.stability_round.count == 2


class TestRepeatFailureReporting:
    def test_serial_failure_names_the_seed(self):
        with pytest.raises(SeedTaskError, match="seed 3 failed.*boom") as excinfo:
            repeat(_fail_on_seed_three, seeds=[1, 3, 5])
        assert excinfo.value.seed == 3

    def test_pool_failure_names_the_seed(self):
        # Regression: the pool used to re-raise the bare worker exception,
        # losing which seed produced it.
        with pytest.raises(SeedTaskError, match="seed 3 failed.*boom") as excinfo:
            repeat(_fail_on_seed_three, seeds=[1, 2, 3, 4], workers=2)
        assert excinfo.value.seed == 3

    def test_seed_task_error_survives_pickling(self):
        error = SeedTaskError(7, "seed 7 failed: ValueError: nope")
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, SeedTaskError)
        assert clone.seed == 7
        assert str(clone) == str(error)

    def test_original_exception_chained(self):
        with pytest.raises(SeedTaskError) as excinfo:
            repeat(_fail_on_seed_three, seeds=[3])
        assert isinstance(excinfo.value.__cause__, RuntimeError)


_METRICS = RunMetrics(resilience=0.1, discovery_round=2, stability_round=3, rounds=5)
_PICKLE_ERRORS = (AttributeError, pickle.PicklingError)  # 3.11 / 3.12+
_UNPICKLABLE_SHAPES = ("local-class", "lambda", "closure")


def _unpicklable_task(shape):
    """One of the three shapes that only pickle when nobody runs parallel —
    a function-local class instance (PR 5's PollutionProbe bug), a lambda,
    a closure — and the qualified name its failure must mention."""

    class PollutionProbe:
        def __call__(self, seed):
            return _METRICS

    def closure(seed):
        return metrics

    metrics = _METRICS
    anonymous = lambda seed: _METRICS  # noqa: E731 - the lambda is the fixture
    task, named = {
        "local-class": (PollutionProbe(), PollutionProbe),
        "lambda": (anonymous, anonymous),
        "closure": (closure, closure),
    }[shape]
    return task, re.escape(named.__qualname__)


@pytest.mark.parametrize("shape", _UNPICKLABLE_SHAPES)
class TestPoolSeamPicklability:
    """An unpicklable task fails loudly at the one process-pool seam,
    before anything is recorded; serially the same task is fine."""

    def test_map_ordered_pool_rejects_before_any_result(self, shape):
        task, name = _unpicklable_task(shape)
        recorded = []
        with pytest.raises(_PICKLE_ERRORS, match=name):
            map_ordered(task, [1, 2, 3], workers=2,
                        on_result=lambda index, result: recorded.append(index))
        assert recorded == []

    def test_repeat_pool_rejects_before_any_checkpoint(self, shape, tmp_path):
        task, name = _unpicklable_task(shape)
        path = tmp_path / "repeat.json"
        with pytest.raises(_PICKLE_ERRORS, match=name):
            repeat(task, seeds=[1, 2, 3], workers=2, checkpoint_path=str(path))
        assert not path.exists()

    def test_same_task_runs_serially(self, shape):
        task, _ = _unpicklable_task(shape)
        assert map_ordered(task, [1, 2]) == [_METRICS, _METRICS]
        assert repeat(task, seeds=[1, 2], workers=None).runs == [_METRICS, _METRICS]


class TestRepeatCheckpoint:
    def test_resume_skips_completed_seeds(self, tmp_path):
        path = str(tmp_path / "repeat.json")
        calls = []

        def build_and_run(seed):
            calls.append(seed)
            return RunMetrics(resilience=0.1 * seed, discovery_round=2,
                              stability_round=3, rounds=5)

        first = repeat(build_and_run, seeds=[1, 2, 3], checkpoint_path=path)
        assert calls == [1, 2, 3]

        second = repeat(build_and_run, seeds=[1, 2, 3], checkpoint_path=path)
        assert calls == [1, 2, 3]  # nothing re-ran
        assert second == first

    def test_resume_runs_only_missing_seeds(self, tmp_path):
        path = str(tmp_path / "repeat.json")
        calls = []

        def build_and_run(seed):
            calls.append(seed)
            return RunMetrics(resilience=0.1 * seed, discovery_round=2,
                              stability_round=3, rounds=5)

        repeat(build_and_run, seeds=[1, 2], checkpoint_path=path)
        repeated = repeat(build_and_run, seeds=[1, 2, 4, 5], checkpoint_path=path)
        assert calls == [1, 2, 4, 5]
        assert [run.resilience for run in repeated.runs] == \
            pytest.approx([0.1, 0.2, 0.4, 0.5])

    def test_failed_sweep_keeps_completed_seeds(self, tmp_path):
        from repro.snapshot import SeedResultStore

        path = str(tmp_path / "repeat.json")
        with pytest.raises(SeedTaskError):
            repeat(_fail_on_seed_three, seeds=[1, 2, 3], checkpoint_path=path)
        assert sorted(SeedResultStore(path).results()) == [1, 2]

        # Resuming after fixing the bad seed re-runs only seed 3.
        calls = []

        def fixed(seed):
            calls.append(seed)
            return RunMetrics(resilience=0.1 * seed, discovery_round=2,
                              stability_round=3, rounds=5)

        repeated = repeat(fixed, seeds=[1, 2, 3], checkpoint_path=path)
        assert calls == [3]
        assert len(repeated.runs) == 3

    def test_pool_failure_still_persists_finished_seeds(self, tmp_path):
        from repro.snapshot import SeedResultStore

        path = str(tmp_path / "repeat.json")
        with pytest.raises(SeedTaskError):
            repeat(_fail_on_seed_three, seeds=[1, 2, 3, 4], workers=2,
                   checkpoint_path=path)
        recorded = sorted(SeedResultStore(path).results())
        assert 3 not in recorded
        assert recorded  # at least one completed seed was kept

    def test_checkpoint_ignores_foreign_seeds(self, tmp_path):
        # Results recorded for seeds outside the requested set don't leak
        # into the aggregation.
        path = str(tmp_path / "repeat.json")

        def build_and_run(seed):
            return RunMetrics(resilience=0.1 * seed, discovery_round=2,
                              stability_round=3, rounds=5)

        repeat(build_and_run, seeds=[1, 2, 9], checkpoint_path=path)
        repeated = repeat(build_and_run, seeds=[1, 2], checkpoint_path=path)
        assert [run.resilience for run in repeated.runs] == \
            pytest.approx([0.1, 0.2])
