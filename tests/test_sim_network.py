"""Network transport tests."""

import gc
import importlib
import pickle
import pkgutil
import random
import types
from typing import List, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.crypto
from repro.crypto.ctr import AesCtr
from repro.sim.messages import Message, PullReply, PullRequest
from repro.sim.network import _WINDOW_ROWS, Network
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
        return set(self._view)

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


class AuditedNetwork(Network):
    """Holds every keystream the wire is served to the per-message reference
    under the key current at that message, and the read-ahead to its shape.

    The comparison is to ``AesCtr(...).keystream``, never to a round trip:
    the wire XORs one keystream in and out, so a wrong one round-trips."""

    wire_bytes = 0

    def _keystream(self, src, dst, nonce, length):
        served = super()._keystream(src, dst, nonce, length)
        reference = AesCtr(self._pair_key(src, dst), nonce.to_bytes(8, "big"))
        assert served == reference.keystream(length)
        # At most one window, as wide as the largest message so far; no
        # other attribute holds keystream.
        pair, first_nonce, rows = self._window
        assert pair == (min(src, dst), max(src, dst))
        assert first_nonce <= nonce < first_nonce + _WINDOW_ROWS
        assert rows.shape == (_WINDOW_ROWS, 16 * self._window_blocks)
        assert length <= rows.shape[1]
        assert not [
            name for name, value in vars(self).items()
            if name != "_window" and isinstance(value, (tuple, np.ndarray))
        ]
        return served

    def _through_wire(self, src, dst, message):
        self.wire_bytes += len(pickle.dumps(message))
        delivered = super()._through_wire(src, dst, message)
        assert delivered == message
        return delivered


_NODE_IDS = (1, 2, 3, 4)
_pairs = st.tuples(
    st.sampled_from(_NODE_IDS), st.sampled_from(_NODE_IDS)
).filter(lambda pair: pair[0] != pair[1])
_wire_ops = st.one_of(
    # A pull whose reply carries 0 to several hundred ids.
    st.tuples(st.just("request"), _pairs,
              st.integers(min_value=0, max_value=24)
              | st.integers(min_value=0, max_value=400)),
    # Straight at the wire's keystream source: down to 1 byte, up to many
    # times the current width, at the next nonce or after a jump.
    st.tuples(st.just("keystream"), _pairs,
              st.integers(min_value=1, max_value=40)
              | st.integers(min_value=1, max_value=1500),
              st.none() | st.sampled_from([0, 2**32 - 2, 2**32 + 5, 2**63 - 3,
                                           2**63 + 1, 2**64 - 40])),
    st.tuples(st.just("rekey"), st.binary(min_size=0, max_size=4)),
    st.tuples(st.just("rejoin"), st.sampled_from(_NODE_IDS)),
    st.tuples(st.just("pickle")),
)


class TestKeystreamReadAhead:
    @settings(deadline=None, max_examples=60)
    @given(ops=st.lists(_wire_ops, min_size=1, max_size=30))
    def test_every_served_keystream_is_the_reference_stream(self, ops):
        network = AuditedNetwork(random.Random(5), encrypt=True,
                                 transport_secret=b"r" * 16)
        for node_id in _NODE_IDS:
            network.register(EchoNode(node_id))
        for op in ops:
            if op[0] == "request":
                _, (src, dst), n_ids = op
                network.node(dst).seed_view(range(n_ids))
                reply = network.request(src, dst, PullRequest(sender=src))
                assert reply == PullReply(sender=dst, ids=tuple(range(n_ids)))
            elif op[0] == "keystream":
                _, (src, dst), length, jump = op
                if jump is not None:
                    network._nonce_counter = jump
                network._nonce_counter += 1
                network._keystream(src, dst, network._nonce_counter, length)
            elif op[0] == "rekey":
                network.rekey_pairs(op[1])
                assert network._window is None
            elif op[0] == "rejoin":
                network.unregister(op[1])
                assert network._window is None
                network.register(EchoNode(op[1]))
            else:
                clone = pickle.loads(pickle.dumps(network))  # mid-window
                assert clone._window is None and clone._pair_ciphers == {}
                assert clone._pair_keys == network._pair_keys
                assert clone._nonce_counter == network._nonce_counter
                network = clone
        assert network.stats.bytes_encrypted == network.wire_bytes

    def test_a_session_costs_one_window(self, rng):
        # Six consecutive messages on one pair (the RAPTEE session shape)
        # are served from one read-ahead; a second pair starts its own.
        network = AuditedNetwork(rng, encrypt=True, transport_secret=b"r" * 16)
        for node_id in _NODE_IDS:
            network.register(EchoNode(node_id))
        windows = []
        for src, dst in [(1, 2), (2, 1), (1, 2), (3, 4), (3, 4), (1, 2)]:
            network.request(src, dst, PullRequest(sender=src))
            windows.append(network._window[:2])
        assert windows[0] == windows[1] == windows[2] == ((1, 2), 1)
        assert windows[3] == windows[4] == ((3, 4), 7)
        assert windows[5] == ((1, 2), 11)

    def test_window_crossing_the_last_nonce_raises(self, rng):
        network = AuditedNetwork(rng, encrypt=True, transport_secret=b"r" * 16)
        message = PullRequest(sender=1)
        network._nonce_counter = 2**64 - _WINDOW_ROWS - 1
        assert network._through_wire(1, 2, message) == message  # ends on 2^64 - 1
        network._through_wire(2, 1, message)  # its second row
        with pytest.raises(OverflowError):
            network._through_wire(1, 3, message)  # a new window would wrap


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


def _crypto_module_state_holds(secret: bytes) -> bool:
    """Whether ``secret`` is reachable from a module-level object of
    ``repro.crypto`` — as a value, a dict or cache key, or inside a longer
    byte string (an expanded schedule starts with its key)."""
    opaque = (types.ModuleType, type, types.FunctionType,
              types.BuiltinFunctionType, types.CodeType)
    stack = []
    for info in pkgutil.iter_modules(repro.crypto.__path__, "repro.crypto."):
        module = importlib.import_module(info.name)
        stack.extend(value for name, value in vars(module).items()
                     if not name.startswith("__"))
    seen = set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, opaque):
            continue
        seen.add(id(obj))
        if isinstance(obj, (bytes, bytearray)):
            if secret in obj:
                return True
        else:
            stack.extend(gc.get_referents(obj))
    return False


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

    def test_retired_pair_keys_leave_crypto_module_state(self, rng):
        # Regression: ``AES128.__init__`` used to file every expanded
        # schedule under its raw key in a process-global cache, so a pair
        # key outlived ``unregister`` / ``rekey_pairs`` there.
        probe = bytes(range(0xE0, 0xF0))
        AesCtr(probe, bytes(8))
        assert _crypto_module_state_holds(probe)  # the scan sees into memos

        # A secret no other test derives pair keys from.
        network = Network(rng, encrypt=True, transport_secret=b"pruning-secret!!")
        for node_id in (1, 2, 3):
            network.register(EchoNode(node_id))

        def talk():
            for src, dst in [(1, 2), (1, 3), (2, 3)]:
                network.request(src, dst, PullRequest(sender=src))
            return dict(network._pair_keys)

        first_epoch = talk()
        network.unregister(2)
        assert network._pair_ciphers.keys() == {(1, 3)}
        for pair, key in first_epoch.items():
            if 2 in pair:
                assert not _crypto_module_state_holds(key), pair

        network.register(EchoNode(2))
        second_epoch = talk()
        network.rekey_pairs(b"epoch-2")
        assert not network._pair_keys and not network._pair_ciphers
        assert network._window is None
        for pair, key in second_epoch.items():
            assert not _crypto_module_state_holds(key), pair

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
