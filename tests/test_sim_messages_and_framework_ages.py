"""The wire message dataclasses, and what each costs on the encrypted wire
on both engines."""

import dataclasses
import random

import pytest

from repro.brahms.config import BrahmsConfig
from repro.brahms.node import BrahmsNode
from repro.shard.engine import _plan_session
from repro.shard.state import build_state
from repro.sim import messages
from repro.sim.engine import RoundContext, Simulation
from repro.sim.messages import (
    FRAME_BYTES,
    ID_BYTES,
    AuthChallenge,
    AuthConfirm,
    AuthResponse,
    AuthResult,
    Message,
    PullReply,
    PullRequest,
    Push,
    TrustedSwapReply,
    TrustedSwapRequest,
    wire_bytes,
)
from repro.sim.network import Network
from repro.sim.node import NodeKind

from tests._pinned import shard_config


class TestMessages:
    def test_messages_are_frozen(self):
        message = Push(sender=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            message.sender = 2

    def test_pull_reply_defaults_empty(self):
        assert PullReply(sender=1).ids == ()

    def test_equality_by_value(self):
        assert PullRequest(sender=3) == PullRequest(sender=3)
        assert AuthChallenge(sender=1, r_a=b"x") != AuthChallenge(sender=1, r_a=b"y")

    def test_auth_response_fields(self):
        response = AuthResponse(sender=2, r_b=b"n" * 16, proof=b"p" * 32)
        assert response.r_b == b"n" * 16
        assert len(response.proof) == 32

    def test_swap_request_carries_offer(self):
        request = TrustedSwapRequest(sender=5, offered=(1, 2, 3))
        assert request.offered == (1, 2, 3)


#: One builder per message class that repro.sim.messages exports: the
#: message carrying ``ids`` where the class carries ids, else a message
#: whose other fields hold ``len(ids)`` of something (nonce and proof
#: bytes), which the wire does not charge.
_MESSAGES = {
    Message: lambda ids: Message(sender=len(ids)),
    Push: lambda ids: Push(sender=len(ids)),
    PullRequest: lambda ids: PullRequest(sender=len(ids)),
    PullReply: lambda ids: PullReply(sender=1, ids=ids),
    AuthChallenge: lambda ids: AuthChallenge(sender=1, r_a=bytes(len(ids))),
    AuthResponse: lambda ids: AuthResponse(sender=1, r_b=bytes(len(ids)),
                                           proof=bytes(len(ids))),
    AuthConfirm: lambda ids: AuthConfirm(sender=1, proof=bytes(len(ids))),
    AuthResult: lambda ids: AuthResult(sender=1, mutual=bool(ids)),
    TrustedSwapRequest: lambda ids: TrustedSwapRequest(sender=1, offered=ids),
    TrustedSwapReply: lambda ids: TrustedSwapReply(sender=1, offered=ids),
}
_CARRY_IDS = {PullReply, TrustedSwapRequest, TrustedSwapReply}


class TestWireBytes:
    """wire_bytes is a frame plus a fixed cost per id carried."""

    def test_every_exported_message_class_is_covered(self):
        exported = {
            obj for obj in map(vars(messages).get, messages.__all__)
            if isinstance(obj, type) and issubclass(obj, Message)
        }
        assert exported == set(_MESSAGES)

    @pytest.mark.parametrize("cls", list(_MESSAGES), ids=lambda cls: cls.__name__)
    def test_frame_plus_ids(self, cls):
        """64 bytes, plus 8 an id where the class carries ids, at 0, 1 and
        200 ids."""
        for n in (0, 1, 200):
            ids = tuple(range(70_000, 70_000 + n))
            carried = n if cls in _CARRY_IDS else 0
            assert wire_bytes(_MESSAGES[cls](ids)) == 64 + 8 * carried, n
        assert (FRAME_BYTES, ID_BYTES) == (64, 8)

    @pytest.mark.parametrize("message, cost", [
        pytest.param(AuthResponse(sender=1), 64, id="default-empty-bytes-twice"),
        pytest.param(AuthResponse(sender=1, r_b=b"", proof=b""), 64,
                     id="empty-bytes-twice"),
        pytest.param(AuthResponse(sender=1, r_b=bytes(32), proof=bytes(32)), 64,
                     id="equal-distinct-bytes"),
        pytest.param(PullReply(sender=1, ids=(5,) * 4), 64 + 4 * 8, id="repeated-id"),
        pytest.param(TrustedSwapReply(sender=65536, offered=tuple(range(250, 450))),
                     64 + 200 * 8, id="ids-across-256"),
        pytest.param(AuthResult(sender=True, mutual=False), 64, id="bool-sender"),
    ])
    def test_shared_and_equal_values(self, message, cost):
        """The cost reads only how many ids a message carries: shared,
        equal, repeated or wide values change nothing."""
        assert wire_bytes(message) == cost

    def test_one_bytes_object_in_two_fields(self):
        """A proof shared by two fields costs what two distinct ones do."""
        shared = bytes(range(16))
        one = AuthResponse(sender=3, r_b=shared, proof=shared)
        two = AuthResponse(sender=3, r_b=shared, proof=bytes(range(16)))
        assert wire_bytes(one) == wire_bytes(two) == FRAME_BYTES

    def test_an_unexported_message_class_raises(self):
        @dataclasses.dataclass(frozen=True)
        class Gossip(Message):
            pass

        with pytest.raises(ValueError, match="Gossip"):
            wire_bytes(Gossip(sender=1))

    @pytest.mark.parametrize("k", [1, 4, 7])
    def test_an_answered_brahms_pull_costs_the_same_on_both_engines(self, k):
        """Request frame, reply frame, ``k`` ids: on the per-node network
        and in the shard engine's session plan."""
        expected = 2 * FRAME_BYTES + k * ID_BYTES

        config = BrahmsConfig(view_size=8, sample_size=4)
        network = Network(random.Random(0), encrypt=True)
        nodes = [BrahmsNode(i, NodeKind.HONEST, config, random.Random(i))
                 for i in range(2)]
        nodes[0].seed_view([1])
        nodes[1].seed_view(list(range(2, 2 + k)))
        nodes[0]._do_pull(RoundContext(Simulation(network, nodes, random.Random(0)), 1), 1)
        assert network.stats.bytes_encrypted == expected

        shard = shard_config({"n_nodes": 40, "byzantine_fraction": 0.0,
                              "view_ratio": 0.2, "transport_encryption": True},
                             seed=3, protocol="brahms")
        state = build_state(shard)
        state.view_len[1] = k  # the answer is node 1's view, cut to k ids
        session = _plan_session(shard, state, 1, 0.0, 0, 0, 1)
        assert session.answered
        assert session.enc_bytes == expected
