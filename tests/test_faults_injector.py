"""Fault injector: network-layer faults, node faults, and determinism."""

import random

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    CrashRestartFault,
    EclipseFault,
    FaultPlan,
    LinkFault,
    LossBurstFault,
    OmissionFault,
    PartitionFault,
    RoundWindow,
)
from repro.sim.engine import Simulation
from repro.sim.network import Network
from repro.sim.node import NodeBase, NodeKind
from repro.sim.observers import RoundRecorder


class ChattyNode(NodeBase):
    """Pushes to every other node each round, recording what arrives."""

    def __init__(self, node_id, peers):
        super().__init__(node_id, NodeKind.HONEST)
        self.peers = peers
        self.received = []

    def begin_round(self, ctx):
        return None

    def gossip(self, ctx):
        for peer in self.peers:
            if peer != self.node_id:
                ctx.send_push(self.node_id, peer)

    def end_round(self, ctx):
        return None

    def on_push(self, sender_id):
        self.received.append(sender_id)

    def handle_request(self, message):
        return None

    def view_ids(self):
        return []

    def known_ids(self):
        return set(self.peers)

    def seed_view(self, ids):
        return None


def make_sim(n=6, plan=None, seed=3):
    network = Network(random.Random(seed))
    peers = list(range(n))
    nodes = [ChattyNode(i, peers) for i in peers]
    sim = Simulation(network, nodes, random.Random(seed))
    injector = None
    if plan is not None:
        injector = FaultInjector(plan, random.Random(seed + 1))
        injector.attach(sim)
    return sim, nodes, injector


class TestNetworkFaults:
    def test_partition_cuts_both_directions(self):
        plan = FaultPlan([
            PartitionFault(frozenset({0, 1, 2}), frozenset({3, 4, 5}),
                           RoundWindow(1, 2)),
        ])
        sim, nodes, injector = make_sim(plan=plan)
        sim.run_round()
        for node in nodes[:3]:
            assert all(sender < 3 for sender in node.received)
        for node in nodes[3:]:
            assert all(sender >= 3 for sender in node.received)
        assert injector.stats.drops_by_cause["partition"] == 18

    def test_partition_expires_with_window(self):
        plan = FaultPlan([
            PartitionFault(frozenset({0, 1, 2}), frozenset({3, 4, 5}),
                           RoundWindow(1, 1)),
        ])
        sim, nodes, _ = make_sim(plan=plan)
        sim.run_round()
        for node in nodes:
            node.received.clear()
        sim.run_round()
        assert any(sender >= 3 for sender in nodes[0].received)

    def test_eclipse_isolates_victim_except_allowed(self):
        plan = FaultPlan([
            EclipseFault(0, RoundWindow(1, 5), allowed=frozenset({1})),
        ])
        sim, nodes, _ = make_sim(plan=plan)
        sim.run_round()
        assert set(nodes[0].received) == {1}
        for node in nodes[2:]:
            assert 0 not in node.received

    def test_unidirectional_link_fault(self):
        plan = FaultPlan([
            LinkFault(0, 1, RoundWindow(1, 5), loss_rate=1.0),
        ])
        sim, nodes, _ = make_sim(plan=plan)
        sim.run_round()
        assert 0 not in nodes[1].received   # 0 -> 1 cut
        assert 1 in nodes[0].received       # 1 -> 0 untouched

    def test_bidirectional_link_fault(self):
        plan = FaultPlan([
            LinkFault(0, 1, RoundWindow(1, 5), loss_rate=1.0, bidirectional=True),
        ])
        sim, nodes, _ = make_sim(plan=plan)
        sim.run_round()
        assert 0 not in nodes[1].received
        assert 1 not in nodes[0].received

    def test_omission_node_drops_own_sends(self):
        plan = FaultPlan([
            OmissionFault(2, RoundWindow(1, 5), drop_rate=1.0),
        ])
        sim, nodes, injector = make_sim(plan=plan)
        sim.run_round()
        for node in nodes:
            assert 2 not in node.received
        # The omission node still *receives* everyone else's pushes.
        assert len(nodes[2].received) == 5
        assert injector.stats.drops_by_cause["omission"] == 5

    def test_loss_burst_drops_roughly_the_rate(self):
        plan = FaultPlan([LossBurstFault(RoundWindow(1, 10), 0.5)])
        sim, _nodes, injector = make_sim(plan=plan)
        sim.run(10)
        total = 6 * 5 * 10
        dropped = injector.stats.drops_by_cause["loss-burst"]
        assert 0.35 * total < dropped < 0.65 * total

    def test_injected_drops_are_counted_as_network_losses(self):
        plan = FaultPlan([
            PartitionFault(frozenset({0, 1, 2}), frozenset({3, 4, 5}),
                           RoundWindow(1, 1)),
        ])
        sim, _nodes, injector = make_sim(plan=plan)
        recorder = RoundRecorder()
        sim.run(1, observers=[recorder])
        stats = sim.network.stats
        assert stats.messages_lost == injector.stats.messages_dropped == 18
        assert recorder.records[0].losses == 18
        assert stats.pushes_sent == 30
        assert stats.pushes_delivered == 12


class TestNodeFaults:
    def test_crash_restart_cycle(self):
        plan = FaultPlan([CrashRestartFault(3, at_round=2, down_rounds=2,
                                            crash_enclave=False)])
        sim, nodes, injector = make_sim(plan=plan)
        sim.run_round()
        assert nodes[3].alive
        sim.run_round()                     # crashes at round 2
        assert not nodes[3].alive
        sim.run_round()
        assert not nodes[3].alive
        sim.run_round()                     # revives at round 4
        assert nodes[3].alive
        assert injector.stats.crashes == 1
        assert injector.stats.restarts == 1

    def test_crashed_node_gets_no_messages(self):
        plan = FaultPlan([CrashRestartFault(3, at_round=1, down_rounds=1,
                                            crash_enclave=False)])
        sim, nodes, _ = make_sim(plan=plan)
        sim.run_round()
        assert nodes[3].received == []

    def test_kind_cache_follows_liveness(self):
        plan = FaultPlan([CrashRestartFault(3, at_round=1, down_rounds=1,
                                            crash_enclave=False)])
        sim, _nodes, _ = make_sim(plan=plan)
        sim.run_round()
        assert 3 not in sim.ids_of_kind(NodeKind.HONEST)
        sim.run_round()
        assert 3 in sim.ids_of_kind(NodeKind.HONEST)


class TestDeterminismAndHygiene:
    def _delivery_log(self, plan_faults, seed):
        plan = FaultPlan(plan_faults)
        sim, nodes, _ = make_sim(plan=plan, seed=seed)
        sim.run(5)
        return [tuple(node.received) for node in nodes]

    def test_same_seed_same_plan_identical_runs(self):
        faults = [
            LossBurstFault(RoundWindow(2, 4), 0.3),
            OmissionFault(1, RoundWindow(1, 5), drop_rate=0.5),
        ]
        assert self._delivery_log(faults, seed=11) == self._delivery_log(faults, seed=11)

    def test_different_seed_differs(self):
        faults = [LossBurstFault(RoundWindow(1, 5), 0.5)]
        assert self._delivery_log(faults, seed=11) != self._delivery_log(faults, seed=12)

    def test_empty_plan_is_byte_identical_to_no_injector(self):
        sim_plain, nodes_plain, _ = make_sim(plan=None, seed=5)
        sim_plain.run(5)
        sim_empty, nodes_empty, _ = make_sim(plan=FaultPlan(), seed=5)
        sim_empty.run(5)
        assert [n.received for n in nodes_plain] == [n.received for n in nodes_empty]
        assert sim_plain.network.stats == sim_empty.network.stats

    def test_sgx_plan_without_infrastructure_is_rejected(self):
        from repro.faults.plan import AttestationOutageFault

        plan = FaultPlan([AttestationOutageFault(RoundWindow(1, 2))])
        network = Network(random.Random(0))
        sim = Simulation(network, [ChattyNode(0, [0])], random.Random(0))
        injector = FaultInjector(plan, random.Random(1))
        with pytest.raises(ValueError, match="SGX faults"):
            injector.attach(sim)

    def test_double_attach_rejected(self):
        sim, _nodes, injector = make_sim(plan=FaultPlan())
        with pytest.raises(RuntimeError):
            injector.attach(sim)
