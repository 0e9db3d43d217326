"""The wire message dataclasses of the per-node engine."""

import dataclasses

import pytest

from repro.sim.messages import (
    AuthChallenge,
    AuthResponse,
    PullReply,
    PullRequest,
    Push,
    TrustedSwapRequest,
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
