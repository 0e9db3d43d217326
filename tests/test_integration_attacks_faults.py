"""Integration: lossy networks and churn under attack."""

import statistics

from repro.experiments.scenarios import TopologySpec
from repro.scenario import ScenarioSpec, compile_spec, run_scenario

SEED = 23


def _raptee(loss_rate=0.0, rounds=0):
    """RAPTEE with adaptive eviction at N = 120, f = t = 10%."""
    return ScenarioSpec(
        name="integration", protocol="raptee", seed=SEED, rounds=rounds,
        topology=TopologySpec(n_nodes=120, byzantine_fraction=0.1,
                              trusted_fraction=0.1, view_ratio=0.1,
                              loss_rate=loss_rate),
    )


def _mean_known(simulation):
    return statistics.mean(
        len(node.known_ids()) for node in simulation.correct_nodes()
    )


class TestLossyNetwork:
    def test_raptee_works_under_message_loss(self):
        artifacts = run_scenario(_raptee(loss_rate=0.10, rounds=30), telemetry=None)
        assert 0.0 < artifacts.metrics.resilience < 1.0
        # Gossip still disseminates despite 10 % loss.
        assert _mean_known(artifacts.bundle.simulation) > 60

    def test_loss_degrades_gracefully_not_catastrophically(self):
        results = {
            loss: _mean_known(run_scenario(
                _raptee(loss_rate=loss, rounds=30), telemetry=None
            ).bundle.simulation)
            for loss in (0.0, 0.2)
        }
        # Some slowdown is fine; collapse is not.
        assert results[0.2] > results[0.0] * 0.5


class TestChurnWithAdversary:
    def test_raptee_survives_churn_under_attack(self):
        bundle = compile_spec(_raptee())
        # 2 % of correct nodes leave each round; no arrivals (paper's
        # metrics need a stable target set, so we only test departures).
        correct = sorted(bundle.simulation.correct_node_ids())
        departing = set(correct[: len(correct) // 3])

        class DepartSome:
            def __init__(self):
                self.queue = sorted(departing)

            def events_for_round(self, round_number, alive_ids, rng):
                from repro.sim.churn import ChurnEvent
                leave = self.queue[:2]
                self.queue = self.queue[2:]
                return ChurnEvent(departures=leave, arrivals=0)

        bundle.simulation._churn = DepartSome()
        bundle.run(25)
        sim = bundle.simulation
        alive_correct = sim.correct_nodes()
        assert alive_correct
        # Alive nodes' views hold mostly alive peers (departed get flushed).
        alive_ids = {node.node_id for node in sim.alive_nodes()} | sim.byzantine_ids
        staleness = statistics.mean(
            sum(1 for peer in node.view_ids() if peer not in alive_ids)
            / max(1, len(node.view_ids()))
            for node in alive_correct
        )
        assert staleness < 0.35
