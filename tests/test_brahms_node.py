"""Brahms node behaviour: gossip flows, defenses, view renewal."""

import os
import random

import pytest

from repro.brahms.config import BrahmsConfig
from repro.brahms.node import BrahmsNode, PulledBatch
from repro.scenario import spec_from_dict
from repro.scenario.run import run_scenario
from repro.sim.engine import RoundContext, Simulation
from repro.sim.messages import PullReply, PullRequest, Push, wire_bytes
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


class TestPullReplyReuse:
    """A responder answers from one ``PullReply`` per view object."""

    def test_two_pulls_to_one_responder_in_a_round_get_equal_ids(self):
        sim, nodes, _config = build_small_world()
        ctx = RoundContext(sim, 1)
        first = nodes[0]._do_pull(ctx, 1)
        second = nodes[2]._do_pull(ctx, 1)
        assert first.ids == second.ids == tuple(nodes[1].view)

    def test_next_pull_after_a_view_renewal_sees_the_new_view(self):
        config = BrahmsConfig(view_size=8, sample_size=4, blocking_enabled=False)
        node = BrahmsNode(0, NodeKind.HONEST, config, random.Random(1))
        node.seed_view([1, 2, 3])
        before = node.handle_request(PullRequest(sender=9))

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
        after = node.handle_request(PullRequest(sender=9))
        assert before.ids == (1, 2, 3)
        assert after.ids == tuple(node.view) != before.ids

    def test_encrypted_bytes_are_the_same_for_a_reused_and_a_fresh_reply(self):
        config = BrahmsConfig(view_size=8, sample_size=4)
        network = Network(random.Random(0), encrypt=True)
        nodes = [
            BrahmsNode(i, NodeKind.HONEST, config, random.Random(i)) for i in range(2)
        ]
        nodes[0].seed_view([1])
        nodes[1].seed_view([0, 5, 6, 7])
        ctx = RoundContext(Simulation(network, nodes, random.Random(0)), 1)
        counted = []
        for _ in range(2):  # the second pull is answered by the cached reply
            before = network.stats.bytes_encrypted
            nodes[0]._do_pull(ctx, 1)
            counted.append(network.stats.bytes_encrypted - before)
        fresh = PullRequest(0), PullReply(sender=1, ids=(0, 5, 6, 7))
        assert counted[0] == counted[1] == sum(map(wire_bytes, fresh))


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


#: Peak RSS budget of the N = 3,000 per-node smoke.  On a 2-vCPU Xeon with
#: CPython 3.11 its pytest process peaked at 103 MiB with one KnownIds
#: bytemap per node, and at 450 MiB with one ``set`` per node.
_PERNODE_RSS_BUDGET_MIB = 200


class TestPaperScaleMemory:
    @pytest.mark.skipif(
        not os.environ.get("REPRO_FULL_SCALE"),
        reason="N = 3,000 per-node run (~25 s); set REPRO_FULL_SCALE=1 to run",
    )
    def test_pernode_brahms_3k_peak_rss(self):
        import resource

        spec = spec_from_dict({
            "name": "pernode-memory", "protocol": "brahms", "seed": 1,
            "rounds": 10, "adversary_strategy": "adaptive_balanced",
            "topology": {"n_nodes": 3000, "byzantine_fraction": 0.1,
                         "view_ratio": 0.02},
        })
        assert run_scenario(spec, telemetry=None).metrics.rounds == 10
        # The process high-water mark (KiB on Linux), so CI runs this test
        # in a pytest process of its own.
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        assert peak_mib <= _PERNODE_RSS_BUDGET_MIB, peak_mib
