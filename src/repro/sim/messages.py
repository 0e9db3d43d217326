"""Wire messages exchanged by peer-sampling nodes.

The message vocabulary follows the paper:

* Brahms gossip: ``Push`` (sender's ID only, §III-A), ``PullRequest`` and
  ``PullReply`` (full view of the responder).
* RAPTEE mutual authentication (§IV-A): ``AuthChallenge`` (r_A),
  ``AuthResponse`` (r_B, [H(r_A‖r_B)]_{K_B}) and ``AuthConfirm``
  ([H(r_B‖r_A)]_{K_A}).
* RAPTEE trusted communication (§IV-B): ``TrustedSwapRequest`` /
  ``TrustedSwapReply`` carrying half-views.

All messages are plain frozen dataclasses; the transport layer (see
:mod:`repro.sim.network`) handles encryption and accounting.  What a
message costs on the encrypted wire is :func:`wire_bytes`, the one formula
both engines charge: a :data:`FRAME_BYTES` frame plus :data:`ID_BYTES` per
id carried.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

__all__ = [
    "Message",
    "Push",
    "PullRequest",
    "PullReply",
    "AuthChallenge",
    "AuthResponse",
    "AuthConfirm",
    "AuthResult",
    "TrustedSwapRequest",
    "TrustedSwapReply",
    "FRAME_BYTES",
    "ID_BYTES",
    "wire_bytes",
]


@dataclass(frozen=True)
class Message:
    """Base class; ``sender`` is the node ID of the originator."""

    sender: int


@dataclass(frozen=True)
class Push(Message):
    """Brahms push: advertises only the sender's own ID."""


@dataclass(frozen=True)
class PullRequest(Message):
    """Brahms pull request: asks the receiver for its full view."""


@dataclass(frozen=True)
class PullReply(Message):
    """Answer to a pull request: the responder's current view."""

    ids: Tuple[int, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class AuthChallenge(Message):
    """First auth flow: A sends the pseudo-random challenge r_A."""

    r_a: bytes = b""


@dataclass(frozen=True)
class AuthResponse(Message):
    """Second auth flow: B returns r_B and [H(r_A‖r_B)]_{K_B}."""

    r_b: bytes = b""
    proof: bytes = b""


@dataclass(frozen=True)
class AuthConfirm(Message):
    """Third auth flow: A returns [H(r_B‖r_A)]_{K_A}."""

    proof: bytes = b""


@dataclass(frozen=True)
class AuthResult(Message):
    """Reply to :class:`AuthConfirm`: whether the responder recognized the
    initiator as sharing its key.  A wire message like any reply (the shard
    engine charges it as the confirm's reply leg)."""

    mutual: bool = False


@dataclass(frozen=True)
class TrustedSwapRequest(Message):
    """Trusted communication: initiator offers half of its view."""

    offered: Tuple[int, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class TrustedSwapReply(Message):
    """Trusted communication: responder returns half of its own view."""

    offered: Tuple[int, ...] = field(default_factory=tuple)


#: What every encrypted message costs on the wire: the frame (header,
#: nonce, MAC and the fixed-size fields, auth nonces and proofs included).
FRAME_BYTES = 64
#: What each id a message carries adds to its frame.
ID_BYTES = 8

#: Each exported message class and the field holding the ids it carries
#: (``None``: it carries none, so it costs one frame).
_ID_FIELD: Dict[type, Optional[str]] = {
    Message: None,
    Push: None,
    PullRequest: None,
    PullReply: "ids",
    AuthChallenge: None,
    AuthResponse: None,
    AuthConfirm: None,
    AuthResult: None,
    TrustedSwapRequest: "offered",
    TrustedSwapReply: "offered",
}


def wire_bytes(message: Message) -> int:
    """What encrypting ``message`` costs on the wire: :data:`FRAME_BYTES`
    plus :data:`ID_BYTES` for each id it carries (a pull reply's view, a
    trusted swap's offer).

    The shard engine charges each delivered leg by the same two constants,
    so both engines price a message by one formula.  A class this module
    does not export raises :class:`ValueError` naming it: a new message
    kind must say here what it carries.
    """
    try:
        ids_field = _ID_FIELD[type(message)]
    except KeyError:
        raise ValueError(
            f"wire_bytes: {type(message).__name__} is not a message class "
            f"that repro.sim.messages exports") from None
    if ids_field is None:
        return FRAME_BYTES
    return FRAME_BYTES + ID_BYTES * len(getattr(message, ids_field))
