"""Network transport tests."""

import random
from collections import Counter
from typing import List, Optional

import pytest

from repro.events.engine import EventEngine, EventOptions
from repro.events.latency import ConstantLatency
from repro.sim.engine import Simulation
from repro.sim.messages import Message, PullReply, PullRequest, wire_bytes
from repro.sim.network import Network
from repro.sim.node import NodeBase, NodeKind
from repro.sim.observers import RoundRecorder
from repro.telemetry import Telemetry, TelemetryConfig, metrics_to_csv


class EchoNode(NodeBase):
    """Records pushes; answers pull requests with a fixed view."""

    def __init__(self, node_id: int, view=(1, 2, 3)):
        super().__init__(node_id, NodeKind.HONEST)
        self.pushes: List[int] = []
        self.received: List[Message] = []
        self._view = list(view)

    def on_push(self, sender_id: int) -> None:
        self.pushes.append(sender_id)

    def handle_request(self, message: Message) -> Optional[Message]:
        self.received.append(message)
        if isinstance(message, PullRequest):
            return PullReply(sender=self.node_id, ids=tuple(self._view))
        return None

    def view_ids(self):
        return list(self._view)

    def known_ids(self):
        return set(self._view)

    def seed_view(self, ids):
        self._view = list(ids)

    def gossip(self, ctx):
        return None


@pytest.fixture
def network(rng):
    return Network(rng)


def _recorded(loss_rate=0.0):
    """Two echo nodes, ids 1 and 2, on a simulation, and a round recorder
    that :func:`_close` closes rounds on by hand."""
    simulation = Simulation(Network(random.Random(2), loss_rate=loss_rate),
                            [EchoNode(1), EchoNode(2)], random.Random(0))
    return simulation, RoundRecorder()


def _close(simulation, recorder, round_number):
    simulation.round_number = round_number
    recorder.on_round_end(simulation)
    return recorder.records[-1]


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

    def test_per_round_push_accounting(self):
        simulation, recorder = _recorded()
        simulation.network.current_round = 3
        simulation.network.send_push(1, 2)
        simulation.network.send_push(1, 2)
        assert _close(simulation, recorder, 3).pushes == 2


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
    """An encrypted network counts the bytes it would encrypt — the
    ``wire_bytes`` of each request and reply that reaches the other side —
    and hands the message object over as is."""

    @pytest.fixture
    def encrypted(self, rng):
        network = Network(rng, encrypt=True)
        network.register(EchoNode(1))
        network.register(EchoNode(2, view=(4, 5, 6)))
        return network

    def test_requests_roundtrip_through_encryption(self, encrypted):
        request = PullRequest(sender=1)
        reply = encrypted.request(1, 2, request)
        assert reply == PullReply(sender=2, ids=(4, 5, 6))
        assert encrypted.node(2).received == [request]
        assert encrypted.stats.bytes_encrypted == wire_bytes(request) + wire_bytes(reply)

    def test_a_lost_reply_counts_only_the_request(self, encrypted):
        encrypted.install_fault_hook(lambda src, dst, _round: (src, dst) == (2, 1))
        request = PullRequest(sender=1)
        assert encrypted.request(1, 2, request) is None
        assert encrypted.node(2).received == [request]
        assert encrypted.stats.messages_lost == 1
        assert encrypted.stats.bytes_encrypted == wire_bytes(request)

    def test_an_unanswered_request_counts_only_the_request(self, encrypted):
        request = Message(sender=1)  # EchoNode answers pulls only
        assert encrypted.request(1, 2, request) is None
        assert encrypted.node(2).received == [request]
        assert encrypted.stats.bytes_encrypted == wire_bytes(request)

    def test_pushes_count_no_bytes(self, encrypted):
        assert encrypted.send_push(1, 2)
        assert encrypted.stats.bytes_encrypted == 0

    def test_through_wire_roundtrips_and_counts_every_byte(self, encrypted):
        message = PullReply(sender=2, ids=(4, 5, 6))
        for _ in range(2):
            before = encrypted.stats.bytes_encrypted
            assert encrypted._through_wire(message) is message
            assert encrypted.stats.bytes_encrypted - before == wire_bytes(message)


class TestPerRoundCounters:
    def test_requests_and_losses_counted_per_round(self):
        simulation, recorder = _recorded(loss_rate=0.5)
        network = simulation.network
        network.current_round = 4
        for _ in range(60):
            network.request(1, 2, PullRequest(sender=1))
        round_4 = _close(simulation, recorder, 4)
        network.current_round = 5
        for _ in range(40):
            network.request(1, 2, PullRequest(sender=1))
        round_5 = _close(simulation, recorder, 5)
        stats = network.stats
        assert (round_4.requests, round_5.requests) == (60, 40)
        assert stats.requests_sent == 100
        # Every loss lands in the round it happened in, and the records
        # sum to the lifetime total.
        assert round_4.losses + round_5.losses == stats.messages_lost
        assert round_4.losses > 0 and round_5.losses > 0


class TallyNetwork(Network):
    """The network, also tallying each message under the round open when
    the network counts it: what that round's record must hold."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.tally = Counter()

    def _tallied(self, call, *args):
        stats = self.stats
        before = (stats.pushes_sent, stats.requests_sent, stats.messages_lost)
        result = call(*args)
        after = (stats.pushes_sent, stats.requests_sent, stats.messages_lost)
        for name, then, now in zip(("pushes", "requests", "losses"), before, after):
            self.tally[name, self.current_round] += now - then
        return result

    def send_pushes(self, src, targets):
        return self._tallied(super().send_pushes, src, targets)

    def request(self, src, dst, message):
        return self._tallied(super().request, src, dst, message)


class Chatter(EchoNode):
    """In round r: ``r % 3`` pushes to each of ``targets`` (id 9 is never
    registered, so those are lost) and one pull of the first target."""

    def __init__(self, node_id, targets, sent):
        super().__init__(node_id)
        self.targets, self.sent = targets, sent

    def gossip(self, ctx):
        targets = self.targets * (ctx.round_number % 3)
        self.sent[ctx.round_number] += len(targets)
        ctx.send_pushes(self.node_id, targets)
        ctx.request(self.node_id, self.targets[0], PullRequest(sender=self.node_id))


def _chatter_run(run, rounds=6):
    sent = Counter()
    network = TallyNetwork(random.Random(4), loss_rate=0.2)
    nodes = [Chatter(node_id, [peer for peer in (1, 2, 3, 9) if peer != node_id], sent)
             for node_id in (1, 2, 3)]
    simulation = Simulation(network, nodes, random.Random(5))
    recorder = RoundRecorder()
    run(simulation, rounds, [recorder])
    records = recorder.records
    assert [record.round_number for record in records] == list(range(1, rounds + 1))
    for record in records:
        assert (record.pushes, record.requests, record.losses) == tuple(
            network.tally[name, record.round_number]
            for name in ("pushes", "requests", "losses")
        )
    stats = network.stats
    assert sum(record.pushes for record in records) == stats.pushes_sent
    assert sum(record.losses for record in records) == stats.messages_lost > 0
    return records, sent


class TestStatsRoundAttribution:
    """A message the network counts while round r is open lands in round
    r's record — on the round loop and on the event clock — however the
    ``stats`` reference is held."""

    def test_stats_read_across_round_boundary(self):
        simulation, recorder = _recorded()
        network = simulation.network
        stats = network.stats  # held across rounds, like a metrics exporter
        network.current_round = 7
        network.send_push(1, 2)
        network.request(1, 2, PullRequest(sender=1))
        # Mid-round read: the lifetime totals are current, not flushed later.
        assert (stats.pushes_sent, stats.requests_sent) == (1, 1)
        round_7 = _close(simulation, recorder, 7)
        network.current_round = 8
        network.send_push(2, 1)
        round_8 = _close(simulation, recorder, 8)
        # Round 7's tail stays in round 7; nothing bleeds into round 8.
        assert (round_7.pushes, round_7.requests) == (1, 1)
        assert (round_8.pushes, round_8.requests) == (1, 0)
        assert stats.pushes_sent == 2

    def test_round_loop_records_each_round_traffic(self):
        records, sent = _chatter_run(lambda sim, rounds, observers: sim.run(rounds, observers))
        # On the round loop every push is counted in the round it is sent.
        assert [record.pushes for record in records] == [sent[r] for r in range(1, 7)]

    def test_event_clock_records_each_round_traffic(self):
        def run(simulation, rounds, observers):
            options = EventOptions(seed=3, latency=ConstantLatency(0.45))
            EventEngine(simulation, options).run(rounds, observers)

        records, sent = _chatter_run(run)
        # A push in flight at the boundary is counted on arrival, in the
        # next round's record.
        assert [record.pushes for record in records] != [sent[r] for r in range(1, 7)]


class TestSendPushes:
    """``send_pushes`` is the push loop ``send_push`` calls with one
    target: a batch must leave what the same pushes sent one by one leave."""

    TARGETS = [2, 3, 4, 9, 5, 2, 3, 1, 5, 5, 4, 2]

    @staticmethod
    def _network():
        network = Network(random.Random(11), loss_rate=0.3)
        nodes = {node_id: EchoNode(node_id) for node_id in range(1, 6)}
        for node in nodes.values():
            network.register(node)
        nodes[4].alive = False  # dead; 9 is never registered
        gate_calls = []

        def hook(src, dst, round_number):
            gate_calls.append((src, dst, round_number))
            return dst == 3 and round_number % 2 == 1

        network.install_fault_hook(hook)
        telemetry = Telemetry(TelemetryConfig(tracing=True, trace_messages=True))
        network.set_telemetry(telemetry)
        return network, nodes, gate_calls, telemetry

    @staticmethod
    def _observed(network, nodes, gate_calls, telemetry):
        return {
            "stats": dict(vars(network.stats)),
            "loss_rng": network._rng.getstate(),
            "trace": telemetry.trace.events.jsonl(),
            "metrics": metrics_to_csv(telemetry.registry),
            "received": {node_id: node.pushes for node_id, node in nodes.items()},
            "gates": gate_calls,
        }

    def test_matches_a_loop_of_send_push(self):
        batched, looped = self._network(), self._network()
        # The gates modelled on their own: the hook drops pushes to 3 in odd
        # rounds, and only what it lets through draws from the loss RNG.
        twin, expected = random.Random(11), {node_id: [] for node_id in range(1, 6)}
        for round_number in (1, 2, 3, 4):
            for network, _, _, telemetry in (batched, looped):
                network.current_round = telemetry.current_round = round_number
            # Round 4 sends one empty batch and nothing else.
            targets = self.TARGETS[round_number:] if round_number < 4 else []
            delivered = batched[0].send_pushes(1, targets)
            assert batched[0].send_pushes(2, []) == 0
            assert delivered == sum(looped[0].send_push(1, dst) for dst in targets)
            for dst in targets:
                dropped = dst == 3 and round_number % 2 == 1
                if not dropped and twin.random() >= 0.3 and dst in (1, 2, 3, 5):
                    expected[dst].append(1)
        observed = self._observed(*batched)
        assert observed == self._observed(*looped)
        assert observed["received"] == expected
        assert observed["loss_rng"] == twin.getstate()
        # Every gate was exercised: hook drops, RNG losses, a dead node and
        # an unregistered id.
        assert observed["stats"]["messages_lost"] > 8
        assert observed["stats"]["pushes_delivered"] > 0
        assert '"delivered":false' in observed["trace"].replace(" ", "")
