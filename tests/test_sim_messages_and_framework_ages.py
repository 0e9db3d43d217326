"""The wire message dataclasses of the per-node engine."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import messages
from repro.sim.messages import (
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


def _pickled(message):
    """The independent oracle: the length pickle really gives."""
    return len(pickle.dumps(message, protocol=4))


# Field values at each boundary of the encodings wire_bytes models.
_IDS = st.sampled_from([0, 255, 256, 65535, 65536, 2**31 - 1]) | st.integers(0, 2**31 - 1)
# Short tuples, and the paper's l1 = 200 ids cycled from a few drawn ones.
_ID_TUPLES = st.lists(_IDS, max_size=4).map(tuple) | st.lists(
    _IDS, min_size=5, max_size=10).map(lambda ids: tuple(ids * 40)[:200])
_BYTES = st.sampled_from([0, 16, 32, 255]).flatmap(
    lambda n: st.binary(min_size=n, max_size=n)) | st.binary(max_size=255)


@st.composite
def _auth_response(draw):
    """Distinct r_b and proof, or one bytes object in both fields."""
    r_b = draw(_BYTES)
    proof = r_b if draw(st.booleans()) else draw(_BYTES)
    return AuthResponse(sender=draw(_IDS), r_b=r_b, proof=proof)


#: One strategy per message class that repro.sim.messages exports.
_MESSAGES = {
    Message: st.builds(Message, sender=_IDS),
    Push: st.builds(Push, sender=_IDS),
    PullRequest: st.builds(PullRequest, sender=_IDS),
    PullReply: st.builds(PullReply, sender=_IDS, ids=_ID_TUPLES),
    AuthChallenge: st.builds(AuthChallenge, sender=_IDS, r_a=_BYTES),
    AuthResponse: _auth_response(),
    AuthConfirm: st.builds(AuthConfirm, sender=_IDS, proof=_BYTES),
    AuthResult: st.builds(AuthResult, sender=_IDS, mutual=st.booleans()),
    TrustedSwapRequest: st.builds(TrustedSwapRequest, sender=_IDS, offered=_ID_TUPLES),
    TrustedSwapReply: st.builds(TrustedSwapReply, sender=_IDS, offered=_ID_TUPLES),
}


class TestWireBytes:
    """wire_bytes is the length pickle would give, computed from the fields."""

    def test_every_exported_message_class_is_covered(self):
        exported = {
            obj for obj in map(vars(messages).get, messages.__all__)
            if isinstance(obj, type) and issubclass(obj, Message)
        }
        assert exported == set(_MESSAGES)

    @pytest.mark.parametrize("cls", list(_MESSAGES), ids=lambda cls: cls.__name__)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_the_pickled_length(self, cls, data):
        message = data.draw(_MESSAGES[cls])
        assert wire_bytes(message) == _pickled(message)

    @pytest.mark.parametrize("message", [
        pytest.param(AuthResponse(sender=1), id="default-empty-bytes-twice"),
        pytest.param(AuthResponse(sender=1, r_b=b"", proof=b""), id="empty-bytes-twice"),
        pytest.param(AuthResponse(sender=1, r_b=bytes(32), proof=bytes(32)),
                     id="equal-distinct-bytes"),
        pytest.param(PullReply(sender=1, ids=(5,) * 4), id="repeated-id"),
        pytest.param(TrustedSwapReply(sender=65536, offered=tuple(range(250, 450))),
                     id="ids-across-256"),
        pytest.param(AuthResult(sender=True, mutual=False), id="bool-sender"),
    ])
    def test_shared_and_equal_values(self, message):
        assert wire_bytes(message) == _pickled(message)

    def test_one_bytes_object_in_two_fields(self):
        shared = bytes(range(16))
        message = AuthResponse(sender=3, r_b=shared, proof=shared)
        assert wire_bytes(message) == _pickled(message)
        assert wire_bytes(message) < wire_bytes(
            AuthResponse(sender=3, r_b=shared, proof=bytes(range(16))))

    def test_exact_just_below_the_second_frame(self):
        # 70 header bytes + 2 (sender) + 3 (MARK, TUPLE, MEMOIZE) + 5 an id.
        message = PullReply(sender=1, ids=(65536,) * 13092)
        assert wire_bytes(message) == _pickled(message) == 65535

    def test_counts_without_pickling(self, monkeypatch):
        sample = [PullReply(sender=7, ids=(1, 300, 70000)),
                  AuthResponse(sender=2, r_b=b"r" * 16, proof=b"p" * 32),
                  AuthResult(sender=4, mutual=True)]
        expected = [_pickled(message) for message in sample]

        def refuse(*args, **kwargs):
            raise AssertionError("wire_bytes pickled a message")

        monkeypatch.setattr(pickle, "dumps", refuse)
        assert [wire_bytes(message) for message in sample] == expected
        with pytest.raises(ValueError, match=r"PullReply\.ids"):
            wire_bytes(PullReply(sender=7, ids=(1, True)))

    @pytest.mark.parametrize("message, where", [
        pytest.param(PullReply(sender=1, ids=(1, np.int64(2))), r"PullReply\.ids",
                     id="numpy-id"),
        pytest.param(TrustedSwapRequest(sender=1, offered=(3, True)),
                     r"TrustedSwapRequest\.offered", id="true-id"),
        pytest.param(TrustedSwapReply(sender=1, offered=(False,)),
                     r"TrustedSwapReply\.offered", id="false-id"),
        pytest.param(PullReply(sender=1, ids=[1, 2]), r"PullReply\.ids", id="list"),
        pytest.param(AuthChallenge(sender=1, r_a="r_a"), r"AuthChallenge\.r_a", id="str"),
        pytest.param(AuthConfirm(sender=1, proof=bytearray(32)), r"AuthConfirm\.proof",
                     id="bytearray"),
        pytest.param(Push(sender=np.int64(1)), r"Push\.sender", id="numpy-sender"),
        pytest.param(Push(sender=-1), r"Push\.sender", id="negative-sender"),
        pytest.param(PullReply(sender=1, ids=(4, -1)), r"PullReply\.ids", id="negative-id"),
        pytest.param(PullRequest(sender=2**31), r"PullRequest\.sender", id="sender-2^31"),
        pytest.param(PullReply(sender=1, ids=(0, 2**31)), r"PullReply\.ids", id="id-2^31"),
        pytest.param(AuthResponse(sender=1, r_b=bytes(256)), r"AuthResponse\.r_b",
                     id="256-bytes"),
        pytest.param(PullReply(sender=256, ids=(65536,) * 13092), r"PullReply\.ids.*64 KiB",
                     id="64KiB"),
        pytest.param(TrustedSwapReply(sender=1, offered=tuple(range(70000, 100000))),
                     r"TrustedSwapReply\.offered.*64 KiB", id="over-64KiB"),
    ])
    def test_unmodelled_shapes_raise_naming_class_and_field(self, message, where):
        with pytest.raises(ValueError, match=where):
            wire_bytes(message)

    def test_an_unexported_message_class_raises(self):
        @dataclasses.dataclass(frozen=True)
        class Gossip(Message):
            pass

        with pytest.raises(ValueError, match="Gossip"):
            wire_bytes(Gossip(sender=1))
