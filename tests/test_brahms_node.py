"""Brahms node behaviour: gossip flows, defenses, view renewal."""

import random

from repro.brahms.config import BrahmsConfig
from repro.brahms.node import BrahmsNode, PulledBatch
from repro.sim.engine import Simulation
from repro.sim.messages import PullReply, PullRequest, Push
from repro.sim.network import Network
from repro.sim.node import NodeKind


def build_small_world(n=20, view_size=8, seed=3, rounds=0):
    config = BrahmsConfig(view_size=view_size, sample_size=4)
    network = Network(random.Random(seed))
    nodes = [
        BrahmsNode(i, NodeKind.HONEST, config, random.Random(seed * 1000 + i))
        for i in range(n)
    ]
    membership = list(range(n))
    boot = random.Random(seed)
    for node in nodes:
        node.seed_view(boot.sample([m for m in membership if m != node.node_id], view_size))
    sim = Simulation(network, nodes, random.Random(seed))
    if rounds:
        sim.run(rounds)
    return sim, nodes, config


class TestPassiveBehaviour:
    def test_pull_request_returns_current_view(self):
        _sim, nodes, _config = build_small_world()
        node = nodes[0]
        reply = node.handle_request(PullRequest(sender=1))
        assert isinstance(reply, PullReply)
        assert list(reply.ids) == node.view

    def test_unknown_message_returns_none(self):
        _sim, nodes, _config = build_small_world()
        assert nodes[0].handle_request(Push(sender=1)) is None

    def test_on_push_accumulates(self):
        _sim, nodes, _config = build_small_world()
        node = nodes[0]
        node.on_push(5)
        node.on_push(6)
        assert node._received_pushes == [5, 6]
        assert {5, 6} <= node.known


class TestRoundDynamics:
    def test_views_stay_within_membership(self):
        sim, nodes, config = build_small_world(rounds=10)
        for node in nodes:
            assert set(node.view) <= set(range(20)) - {node.node_id}

    def test_view_size_bounded(self):
        _sim, nodes, config = build_small_world(rounds=10)
        for node in nodes:
            assert len(node.view) <= config.view_size

    def test_known_grows_monotonically(self):
        sim, nodes, _config = build_small_world()
        before = {node.node_id: set(node.known) for node in nodes}
        sim.run(5)
        for node in nodes:
            assert before[node.node_id] <= node.known

    def test_gossip_converges_to_full_discovery(self):
        sim, nodes, _config = build_small_world(n=30, rounds=25)
        for node in nodes:
            assert len(node.known) >= 25

    def test_samplers_fill_up(self):
        _sim, nodes, _config = build_small_world(rounds=10)
        for node in nodes:
            assert len(node.samplers.sample_list()) == 4

    def test_deterministic_under_seed(self):
        _sim1, nodes1, _ = build_small_world(seed=9, rounds=8)
        _sim2, nodes2, _ = build_small_world(seed=9, rounds=8)
        assert [n.view for n in nodes1] == [n.view for n in nodes2]

    def test_different_seeds_differ(self):
        _sim1, nodes1, _ = build_small_world(seed=9, rounds=8)
        _sim2, nodes2, _ = build_small_world(seed=10, rounds=8)
        assert [n.view for n in nodes1] != [n.view for n in nodes2]


class TestBlockingDefense:
    def test_flood_blocks_view_update(self):
        _sim, nodes, config = build_small_world()
        node = nodes[0]
        view_before = list(node.view)

        class FakeCtx:
            round_number = 1

            class network:
                @staticmethod
                def is_reachable(node_id):
                    return True

        node.begin_round(FakeCtx)
        for sender in range(100, 100 + config.alpha_count + 5):  # above threshold
            node.on_push(sender)
        node._pulled.append(PulledBatch(source=1, ids=(2, 3)))
        node.end_round(FakeCtx)
        assert node.view == view_before
        assert node.blocked_rounds == 1

    def test_blocking_disabled_allows_update(self):
        config = BrahmsConfig(view_size=8, sample_size=4, blocking_enabled=False)
        node = BrahmsNode(0, NodeKind.HONEST, config, random.Random(1))
        node.seed_view([1, 2, 3])

        class FakeCtx:
            round_number = 1

            class network:
                @staticmethod
                def is_reachable(node_id):
                    return True

        node.begin_round(FakeCtx)
        for sender in range(100, 120):
            node.on_push(sender)
        node._pulled.append(PulledBatch(source=1, ids=(2, 3)))
        node.end_round(FakeCtx)
        assert node.view != [1, 2, 3]

    def test_no_update_without_pulls(self):
        _sim, nodes, _config = build_small_world()
        node = nodes[0]
        view_before = list(node.view)

        class FakeCtx:
            round_number = 1

            class network:
                @staticmethod
                def is_reachable(node_id):
                    return True

        node.begin_round(FakeCtx)
        node.on_push(99)
        node.end_round(FakeCtx)
        assert node.view == view_before


class TestViewRenewal:
    def test_renewal_mixes_pushes_pulls_history(self):
        config = BrahmsConfig(view_size=10, sample_size=5)
        node = BrahmsNode(0, NodeKind.HONEST, config, random.Random(2))
        node.samplers.update(range(50, 60))
        pushed = [1, 2, 3, 4]
        pulled = [5, 6, 7, 8, 9]
        new_view = node._renew_view(pushed, pulled)
        assert set(pushed) <= set(new_view)  # ≤ α·l1 pushes are all kept
        assert any(peer in (5, 6, 7, 8, 9) for peer in new_view)
        assert any(50 <= peer < 60 for peer in new_view)

    def test_excess_pushes_subsampled(self):
        config = BrahmsConfig(view_size=10, sample_size=5)
        node = BrahmsNode(0, NodeKind.HONEST, config, random.Random(2))
        pushed = list(range(100, 140))
        new_view = node._renew_view(pushed, [1])
        pushed_kept = [peer for peer in new_view if peer >= 100]
        assert len(pushed_kept) == config.alpha_count

    def test_self_never_enters_view(self):
        _sim, nodes, _config = build_small_world(rounds=10)
        for node in nodes:
            assert node.node_id not in node.view
