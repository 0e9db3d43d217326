"""Network transport tests."""

import pickle
import random
from typing import List, Optional

import pytest

from repro.sim.messages import Message, PullReply, PullRequest
from repro.sim.network import Network
from repro.sim.node import NodeBase, NodeKind


class EchoNode(NodeBase):
    """Records pushes; answers pull requests with a fixed view."""

    def __init__(self, node_id: int, view=(1, 2, 3)):
        super().__init__(node_id, NodeKind.HONEST)
        self.pushes: List[int] = []
        self._view = list(view)

    def on_push(self, sender_id: int) -> None:
        self.pushes.append(sender_id)

    def handle_request(self, message: Message) -> Optional[Message]:
        if isinstance(message, PullRequest):
            return PullReply(sender=self.node_id, ids=tuple(self._view))
        return None

    def view_ids(self):
        return list(self._view)

    def known_ids(self):
        return list(self._view)

    def seed_view(self, ids):
        self._view = list(ids)

    def gossip(self, ctx):
        return None


@pytest.fixture
def network(rng):
    return Network(rng)


class TestDelivery:
    def test_push_delivery(self, network):
        a, b = EchoNode(1), EchoNode(2)
        network.register(a)
        network.register(b)
        assert network.send_push(1, 2)
        assert b.pushes == [1]
        assert network.stats.pushes_delivered == 1

    def test_push_to_unknown_node_is_lost(self, network):
        network.register(EchoNode(1))
        assert not network.send_push(1, 99)
        assert network.stats.messages_lost == 1

    def test_push_to_dead_node_is_lost(self, network):
        a, b = EchoNode(1), EchoNode(2)
        network.register(a)
        network.register(b)
        b.alive = False
        assert not network.send_push(1, 2)

    def test_request_reply(self, network):
        a, b = EchoNode(1), EchoNode(2, view=(7, 8))
        network.register(a)
        network.register(b)
        reply = network.request(1, 2, PullRequest(sender=1))
        assert isinstance(reply, PullReply)
        assert reply.ids == (7, 8)

    def test_request_to_dead_node_returns_none(self, network):
        a, b = EchoNode(1), EchoNode(2)
        network.register(a)
        network.register(b)
        b.alive = False
        assert network.request(1, 2, PullRequest(sender=1)) is None

    def test_duplicate_registration_rejected(self, network):
        network.register(EchoNode(1))
        with pytest.raises(ValueError):
            network.register(EchoNode(1))

    def test_per_round_push_accounting(self, network):
        a, b = EchoNode(1), EchoNode(2)
        network.register(a)
        network.register(b)
        network.current_round = 3
        network.send_push(1, 2)
        network.send_push(1, 2)
        assert network.stats.per_round_pushes[3] == 2


class TestLoss:
    def test_loss_rate_validation(self, rng):
        with pytest.raises(ValueError):
            Network(rng, loss_rate=1.0)

    def test_lossy_network_drops_messages(self):
        network = Network(random.Random(1), loss_rate=0.5)
        a, b = EchoNode(1), EchoNode(2)
        network.register(a)
        network.register(b)
        delivered = sum(network.send_push(1, 2) for _ in range(400))
        assert 120 < delivered < 280  # ≈ 200 ± tolerance

    def test_lossless_network_delivers_everything(self, network):
        a, b = EchoNode(1), EchoNode(2)
        network.register(a)
        network.register(b)
        assert all(network.send_push(1, 2) for _ in range(50))


class TestEncryptedTransport:
    def test_requests_roundtrip_through_encryption(self, rng):
        network = Network(rng, encrypt=True, transport_secret=b"s" * 16)
        a, b = EchoNode(1), EchoNode(2, view=(4, 5, 6))
        network.register(a)
        network.register(b)
        reply = network.request(1, 2, PullRequest(sender=1))
        assert isinstance(reply, PullReply)
        assert reply.ids == (4, 5, 6)
        assert network.stats.bytes_encrypted > 0

    def test_pair_keys_are_symmetric_and_distinct(self, rng):
        network = Network(rng, encrypt=True, transport_secret=b"s" * 16)
        assert network._pair_key(1, 2) == network._pair_key(2, 1)
        assert network._pair_key(1, 2) != network._pair_key(1, 3)

    def test_through_wire_roundtrips_and_counts_every_byte(self, rng):
        network = Network(rng, encrypt=True, transport_secret=b"s" * 16)
        message = PullReply(sender=2, ids=(4, 5, 6))
        size = len(pickle.dumps(message))

        def assert_roundtrips():
            for src, dst in [(1, 2), (3, 7)]:
                before = network.stats.bytes_encrypted
                assert network._through_wire(src, dst, message) == message
                assert network.stats.bytes_encrypted - before == size

        assert_roundtrips()
        old_key = network._pair_key(1, 2)
        network.rekey_pairs(b"epoch-2")
        assert network._pair_key(1, 2) != old_key
        assert_roundtrips()


class TestPerRoundCounters:
    def test_requests_and_losses_counted_per_round(self):
        network = Network(random.Random(2), loss_rate=0.5)
        a, b = EchoNode(1), EchoNode(2)
        network.register(a)
        network.register(b)
        network.current_round = 4
        for _ in range(60):
            network.request(1, 2, PullRequest(sender=1))
        network.current_round = 5
        for _ in range(40):
            network.request(1, 2, PullRequest(sender=1))
        stats = network.stats
        assert stats.per_round_requests[4] == 60
        assert stats.per_round_requests[5] == 40
        assert stats.requests_sent == 100
        # Every loss lands in the round it happened in, and the per-round
        # counters sum to the lifetime total.
        assert sum(stats.per_round_losses.values()) == stats.messages_lost
        assert stats.messages_lost > 0

    def test_dense_series_and_peak_readers(self):
        from repro.analysis.metrics import peak_round, per_round_series

        network = Network(random.Random(0))
        a, b = EchoNode(1), EchoNode(2)
        network.register(a)
        network.register(b)
        network.current_round = 2
        network.send_push(1, 2)
        network.current_round = 4
        network.send_push(1, 2)
        network.send_push(2, 1)
        assert per_round_series(network.stats.per_round_pushes, 5) == [0, 1, 0, 2, 0]
        assert peak_round(network.stats.per_round_pushes) == (4, 2)
        assert peak_round({}) is None


class TestStatsRoundAttribution:
    def test_stats_read_across_round_boundary(self, network):
        # Regression: per-round tallies used to be flushed lazily on the
        # next round transition, so a holder of the ``stats`` reference
        # reading mid-round saw totals ahead of the per-round Counters,
        # and a round's tail could be misattributed to its successor.
        a, b = EchoNode(1), EchoNode(2)
        network.register(a)
        network.register(b)
        stats = network.stats  # held across rounds, like a metrics exporter
        network.current_round = 7
        network.send_push(1, 2)
        network.request(1, 2, PullRequest(sender=1))
        # Mid-round read: per-round tallies must already agree with the
        # lifetime totals — eagerly, not after the next round's flush.
        assert stats.per_round_pushes[7] == 1 == stats.pushes_sent
        assert stats.per_round_requests[7] == 1 == stats.requests_sent
        network.current_round = 8
        network.send_push(2, 1)
        # Round 7's tail stays in round 7; nothing bleeds into round 8.
        assert stats.per_round_pushes[7] == 1
        assert stats.per_round_pushes[8] == 1
        assert stats.per_round_requests[8] == 0
        assert stats.pushes_sent == 2


class ChurnChatterNode(EchoNode):
    """Echo node that actually gossips, so encrypted pair keys get minted."""

    def gossip(self, ctx):
        for peer in sorted(ctx.network._nodes):
            if peer != self.node_id:
                ctx.request(self.node_id, peer, PullRequest(sender=self.node_id))


class TestPairKeyPruning:
    def test_unregister_prunes_pair_keys(self, rng):
        network = Network(rng, encrypt=True, transport_secret=b"s" * 16)
        for node_id in (1, 2, 3):
            network.register(EchoNode(node_id))
        network.request(1, 2, PullRequest(sender=1))
        network.request(1, 3, PullRequest(sender=1))
        network.request(2, 3, PullRequest(sender=2))
        assert len(network._pair_keys) == 3
        network.unregister(2)
        assert all(2 not in pair for pair in network._pair_keys)
        assert len(network._pair_keys) == 1

    def test_churny_encrypted_run_does_not_leak_keys(self):
        # Regression: departed nodes' pair keys used to accumulate forever
        # under churn, which on long encrypted runs is a memory leak.
        from repro.sim.churn import UniformChurn
        from repro.sim.engine import Simulation

        network = Network(random.Random(3), encrypt=True,
                          transport_secret=b"k" * 16)
        nodes = [ChurnChatterNode(i) for i in range(8)]
        simulation = Simulation(
            network, nodes, random.Random(3),
            churn=UniformChurn(leave_rate=0.25, join_rate=0.0),
        )
        simulation.run(6)
        alive = set(simulation.nodes)
        assert len(alive) < 8  # churn actually removed someone
        for pair in network._pair_keys:
            assert set(pair) <= alive
