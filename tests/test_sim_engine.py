"""Engine, churn, bootstrap, and observer tests."""

import random
from typing import Optional

import pytest

from repro.events.harness import wire_events
from repro.faults.harness import wire_faults
from repro.scenario import compile_spec, spec_from_dict
from repro.scenario.catalog import CATALOG, get_spec
from repro.scenario.compile import event_options_from_spec, fault_plan_from_spec
from repro.sim.bootstrap import UniformBootstrap
from repro.sim.churn import ChurnEvent, CatastrophicFailure, NoChurn, UniformChurn
from repro.sim.engine import Observer, Simulation
from repro.sim.messages import Message
from repro.sim.network import Network
from repro.sim.node import NodeBase, NodeKind
from repro.sim.observers import DiscoveryObserver, ViewTraceObserver


class PhaseRecorder(NodeBase):
    """Records the engine's phase calls."""

    def __init__(self, node_id, log):
        super().__init__(node_id, NodeKind.HONEST)
        self.log = log
        self._view = []

    def begin_round(self, ctx):
        self.log.append(("begin", self.node_id, ctx.round_number))

    def gossip(self, ctx):
        self.log.append(("gossip", self.node_id, ctx.round_number))

    def end_round(self, ctx):
        self.log.append(("end", self.node_id, ctx.round_number))

    def handle_request(self, message: Message) -> Optional[Message]:
        return None

    def view_ids(self):
        return list(self._view)

    def known_ids(self):
        # A set, as NodeBase.known_ids requires: discovery takes its len().
        return set(self._view)

    def seed_view(self, ids):
        self._view = list(ids)


def make_sim(n=4, churn=None, factory=None, seed=0):
    log = []
    network = Network(random.Random(seed))
    nodes = [PhaseRecorder(i, log) for i in range(n)]
    sim = Simulation(network, nodes, random.Random(seed), churn=churn, node_factory=factory)
    return sim, log


class TestPhases:
    def test_all_phases_run_in_order(self):
        sim, log = make_sim(n=3)
        sim.run_round()
        phases = [entry[0] for entry in log]
        assert phases[:3] == ["begin"] * 3
        assert phases[3:6] == ["gossip"] * 3
        assert phases[6:] == ["end"] * 3

    def test_round_number_increments(self):
        sim, _log = make_sim()
        sim.run_round()
        sim.run_round()
        assert sim.round_number == 2

    def test_observers_called_each_round(self):
        sim, _log = make_sim()

        class CountingObserver(Observer):
            def __init__(self):
                self.calls = 0

            def on_round_end(self, simulation):
                self.calls += 1

        observer = CountingObserver()
        sim.run(5, observers=[observer])
        assert observer.calls == 5


class TestFinalViews:
    def test_final_views_surface_matches_shard_contract(self):
        sim, _log = make_sim(n=4)
        for node_id, node in sim.nodes.items():
            node.seed_view([(node_id + 1) % 4, (node_id + 2) % 4])
        sim.set_node_alive(2, False)  # crashed, but its frozen view stays
        views = sim.final_views()
        assert list(views) == [0, 1, 2, 3]  # id order, like the shard engine
        assert views[2] == [3, 0]
        sim.remove_node(3)  # departed nodes drop out entirely
        assert list(sim.final_views()) == [0, 1, 2]

    def test_byzantine_nodes_excluded(self):
        sim, log = make_sim(n=2)
        byz = PhaseRecorder(9, log)
        byz.kind = NodeKind.BYZANTINE
        sim.add_node(byz)
        assert list(sim.final_views()) == [0, 1]


class TestBandedKinds:
    def test_banded_layout_single_definition(self):
        # Both engines answer "who is node i" from this one mapping.
        assert NodeKind.for_banded_id(0, 3, 2) is NodeKind.BYZANTINE
        assert NodeKind.for_banded_id(2, 3, 2) is NodeKind.BYZANTINE
        assert NodeKind.for_banded_id(3, 3, 2) is NodeKind.TRUSTED
        assert NodeKind.for_banded_id(4, 3, 2) is NodeKind.TRUSTED
        assert NodeKind.for_banded_id(5, 3, 2) is NodeKind.HONEST
        assert NodeKind.for_banded_id(1, 0) is NodeKind.HONEST

    def test_shard_config_delegates(self):
        from repro.shard.state import ShardConfig

        config = ShardConfig(
            protocol="raptee", n_nodes=10, seed=1,
            n_byzantine=3, n_trusted=2, view_size=4, sample_size=2,
            alpha_count=2, beta_count=1, gamma_count=1,
        )
        for node in range(6):
            kind = NodeKind.for_banded_id(node, 3, 2)
            assert config.is_byzantine(node) == (kind is NodeKind.BYZANTINE)
            assert config.is_trusted(node) == (kind is NodeKind.TRUSTED)


class TestMembership:
    def test_kind_queries(self):
        sim, _log = make_sim(n=3)
        assert len(sim.ids_of_kind(NodeKind.HONEST)) == 3
        assert sim.byzantine_ids == frozenset()
        assert sim.correct_node_ids() == {0, 1, 2}

    def test_remove_node(self):
        sim, _log = make_sim(n=3)
        sim.remove_node(1)
        assert 1 not in sim.correct_node_ids()
        assert len(sim.alive_nodes()) == 2

    def test_kind_cache_invalidation(self):
        sim, log = make_sim(n=3)
        assert len(sim.ids_of_kind(NodeKind.HONEST)) == 3
        sim.add_node(PhaseRecorder(10, log))
        assert len(sim.ids_of_kind(NodeKind.HONEST)) == 4

    def test_remove_unknown_node_is_noop(self):
        # Regression: removing an ID that was never registered used to call
        # network.unregister anyway, which drops whatever the network holds
        # under that ID.
        sim, _log = make_sim(n=3)
        unregistered = []
        original = sim.network.unregister
        sim.network.unregister = lambda node_id: (
            unregistered.append(node_id), original(node_id))

        sim.remove_node(99)
        assert unregistered == []
        assert len(sim.alive_nodes()) == 3

        sim.remove_node(1)
        assert unregistered == [1]
        assert len(sim.alive_nodes()) == 2

    def test_remove_node_twice_unregisters_once(self):
        sim, _log = make_sim(n=3)
        unregistered = []
        original = sim.network.unregister
        sim.network.unregister = lambda node_id: (
            unregistered.append(node_id), original(node_id))
        sim.remove_node(2)
        sim.remove_node(2)
        assert unregistered == [2]


class TestChurn:
    def test_no_churn_keeps_membership(self):
        sim, _log = make_sim(n=5, churn=NoChurn())
        sim.run(3)
        assert len(sim.alive_nodes()) == 5

    def test_catastrophic_failure(self):
        sim, _log = make_sim(n=10, churn=CatastrophicFailure(at_round=2, fraction=0.5))
        sim.run(3)
        assert len(sim.alive_nodes()) == 5

    def test_uniform_churn_arrivals_rejected_at_construction(self):
        # A model that declares it produces arrivals is caught before the
        # run starts, not 40 rounds in.
        with pytest.raises(ValueError, match="node_factory"):
            make_sim(n=5, churn=UniformChurn(leave_rate=0.0, join_rate=0.5))

    def test_unknown_churn_arrivals_fail_at_runtime_with_round(self):
        # A model with unknown arrival behaviour defers the check to the
        # round in which arrivals actually appear; the error names it.
        class SurpriseArrivals(UniformChurn):
            @property
            def may_produce_arrivals(self):
                return None

        sim, _log = make_sim(
            n=5, churn=SurpriseArrivals(leave_rate=0.0, join_rate=0.5)
        )
        with pytest.raises(RuntimeError, match="round 1"):
            sim.run_round()

    def test_uniform_churn_with_factory_grows(self):
        log = []
        sim, _ = make_sim(
            n=4,
            churn=UniformChurn(leave_rate=0.0, join_rate=0.5),
            factory=lambda node_id: PhaseRecorder(node_id, log),
        )
        sim.run_round()
        assert len(sim.alive_nodes()) == 6

    def test_churn_validation(self):
        with pytest.raises(ValueError):
            UniformChurn(leave_rate=1.0, join_rate=0.0)
        with pytest.raises(ValueError):
            CatastrophicFailure(at_round=1, fraction=1.5)

    @pytest.mark.parametrize("join_rate", [float("nan"), float("inf")])
    def test_non_finite_join_rate_refused(self, join_rate):
        # Refused here, not by int(round(...)) mid-run.
        with pytest.raises(ValueError, match="join_rate must be finite"):
            UniformChurn(leave_rate=0.0, join_rate=join_rate)

    def test_crashed_nodes_excluded_from_churn_candidates(self):
        # Regression: the engine used to offer every *registered* ID to the
        # churn model, so a crashed (alive=False) node could be picked as a
        # departure — silently swallowing the event — and still counted
        # toward UniformChurn's arrival population.
        class RecordingChurn(NoChurn):
            def __init__(self):
                self.offered = []

            def events_for_round(self, round_number, alive_ids, rng):
                self.offered.append(list(alive_ids))
                return ChurnEvent(departures=[], arrivals=0)

        churn = RecordingChurn()
        sim, _log = make_sim(n=5, churn=churn)
        sim.set_node_alive(1, False)
        sim.set_node_alive(3, False)
        sim.run_round()
        assert churn.offered == [[0, 2, 4]]

    def test_crashed_nodes_do_not_inflate_arrival_population(self):
        # UniformChurn sizes arrivals off the population it is offered:
        # with join_rate=1.0 and 2 of 4 nodes crashed, exactly 2 fresh
        # nodes must arrive (4 before the fix).
        log = []
        sim, _ = make_sim(
            n=4,
            churn=UniformChurn(leave_rate=0.0, join_rate=1.0),
            factory=lambda node_id: PhaseRecorder(node_id, log),
        )
        sim.set_node_alive(0, False)
        sim.set_node_alive(2, False)
        sim.run_round()
        arrivals = [nid for nid in sim.nodes if nid >= 4]
        assert arrivals == [4, 5]

    def test_crash_restart_survives_total_departure_churn(self):
        # A node that is down during a churn wave must not be *departed*
        # (permanently removed) by it: crash/restart and churn are distinct
        # lifecycles.  With leave_rate≈1 every alive node departs, but the
        # crashed node stays registered and can come back.
        sim, _log = make_sim(n=4, churn=UniformChurn(leave_rate=0.99, join_rate=0.0))
        sim.set_node_alive(3, False)
        for _ in range(5):
            sim.run_round()
        assert 3 in sim.nodes
        sim.set_node_alive(3, True)
        assert sim.alive_nodes() == [sim.nodes[3]]

    def test_catastrophic_failure_below_one_node_kills_nobody(self):
        # fraction·N < 1 truncates to zero departures — the wave is a no-op,
        # not a crash or a single-node kill.
        sim, _log = make_sim(
            n=10, churn=CatastrophicFailure(at_round=1, fraction=0.09)
        )
        sim.run(2)
        assert len(sim.alive_nodes()) == 10

    def test_arrivals_gossip_in_their_join_round(self):
        # Churn is applied at the start of the round, so a node arriving at
        # round r runs begin/gossip/end in round r — not r+1.
        log = []
        sim, _ = make_sim(
            n=4,
            churn=UniformChurn(leave_rate=0.0, join_rate=0.5),
            factory=lambda node_id: PhaseRecorder(node_id, log),
        )
        sim.run_round()
        new_ids = [nid for nid in sim.nodes if nid >= 4]
        assert new_ids == [4, 5]
        for nid in new_ids:
            assert ("gossip", nid, 1) in log


class TestBootstrap:
    def test_excludes_self(self):
        bootstrap = UniformBootstrap(list(range(10)), random.Random(0))
        for _ in range(20):
            view = bootstrap.initial_view(3, 5)
            assert 3 not in view
            assert len(view) == 5

    def test_small_membership_returns_everyone_else(self):
        bootstrap = UniformBootstrap([0, 1, 2], random.Random(0))
        assert sorted(bootstrap.initial_view(0, 10)) == [1, 2]

    def test_empty_membership_rejected(self):
        with pytest.raises(ValueError):
            UniformBootstrap([], random.Random(0))


class TestObservers:
    def test_view_trace_records_fractions(self):
        sim, _log = make_sim(n=3)
        for node in sim.nodes.values():
            node.seed_view([0, 1, 2])
        trace = ViewTraceObserver()
        sim.run(2, observers=[trace])
        assert len(trace.records) == 2
        record = trace.records[-1]
        assert set(record.byzantine_fraction) == {0, 1, 2}
        assert record.mean_byzantine_fraction == 0.0

    def test_discovery_observer_thresholds(self):
        sim, _log = make_sim(n=4)
        for node in sim.nodes.values():
            node.seed_view([0, 1, 2, 3])  # everyone knows everyone
        discovery = DiscoveryObserver(threshold=0.75)
        sim.run(1, observers=[discovery])
        assert discovery.all_discovered_round(sim) == 1

    def test_discovery_threshold_validation(self):
        with pytest.raises(ValueError):
            DiscoveryObserver(threshold=0.0)

    def test_discovery_not_reached_returns_minus_one(self):
        sim, _log = make_sim(n=4)
        discovery = DiscoveryObserver(threshold=0.9)
        sim.run(1, observers=[discovery])
        assert discovery.all_discovered_round(sim) == -1


class DiscoveryAudit(Observer):
    """Runs after the bundle's DiscoveryObserver and holds its count, for
    every correct node every round, to the count it replaced: a copy of the
    target set intersected with the node's known set, plus the node."""

    def __init__(self, discovery):
        self.discovery = discovery
        self.rounds = 0
        self.counted = 0
        self.arrivals_counted = 0

    def on_round_end(self, simulation):
        self.rounds += 1
        target = self.discovery._target_ids
        others = simulation.ever_registered - target
        for node in simulation.correct_nodes():
            known = node.known_ids()
            # The counting-from-the-other-side identity rests on this.
            assert known <= simulation.ever_registered, node.node_id
            reference = len(target.intersection(known) | {node.node_id})
            assert self.discovery._known_count(node, others) == reference, (
                simulation.round_number, node.node_id)
            self.counted += 1
            self.arrivals_counted += node.node_id not in target


def _audited_run(spec):
    """``run_scenario``'s per-node wiring (faults, then events) with the
    audit riding after the metric observers; telemetry moves no count."""
    bundle = compile_spec(spec)
    plan = fault_plan_from_spec(spec)
    if plan is not None:
        bundle = wire_faults(bundle, plan, seed=spec.seed)
    events = event_options_from_spec(spec)
    if events is not None:
        bundle = wire_events(bundle, events)
    audit = DiscoveryAudit(bundle.discovery)
    bundle.run(spec.rounds, extra_observers=(audit,))
    return bundle, audit


_PER_NODE_CATALOG = [entry["name"] for entry in CATALOG
                     if entry.get("engine", {}).get("kind") != "shard"]

#: Catalog entries with churn arrivals, which join outside the frozen target
#: set: the case of the "+1 unless self is a known target" rule.
_ARRIVALS = {"brahms-churn-uniform", "raptee-membership-churn"}


class TestDiscoveryCount:
    @pytest.mark.parametrize("name", _PER_NODE_CATALOG)
    def test_catalog_counts_match_the_reference(self, name):
        spec = get_spec(name)
        bundle, audit = _audited_run(spec)
        assert audit.rounds == spec.rounds and audit.counted
        if name in _ARRIVALS:
            assert audit.arrivals_counted
        if name == "raptee-poisoned-probes":  # poisoned-view injection
            assert any(node.kind is NodeKind.POISONED_TRUSTED
                       for node in bundle.simulation.correct_nodes())

    def test_counts_match_through_the_threshold(self):
        # A Brahms churn run long and large enough that nodes cross the 75%
        # threshold, arrivals included: the audit checks every count.
        spec = spec_from_dict({
            "name": "discovery-audit", "protocol": "brahms", "seed": 5,
            "rounds": 20,
            "topology": {"n_nodes": 120, "byzantine_fraction": 0.1,
                         "view_ratio": 0.1},
            "churn": {"kind": "uniform", "leave_rate": 0.01,
                      "join_rate": 0.03},
        })
        bundle, audit = _audited_run(spec)
        assert audit.arrivals_counted > 0
        assert bundle.discovery.discovery_round
