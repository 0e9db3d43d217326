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
message costs on the encrypted wire is :func:`wire_bytes`: the length
pickle would give, computed from the fields.
"""

from __future__ import annotations

import pickle
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import countOf
from typing import Dict, Tuple

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
    """Synchronous outcome of a handshake (not a wire message): whether the
    responder recognized the initiator as sharing its key."""

    mutual: bool = False


@dataclass(frozen=True)
class TrustedSwapRequest(Message):
    """Trusted communication: initiator offers half of its view."""

    offered: Tuple[int, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class TrustedSwapReply(Message):
    """Trusted communication: responder returns half of its own view."""

    offered: Tuple[int, ...] = field(default_factory=tuple)


#: The pickle protocol whose lengths :func:`wire_bytes` reproduces.
_PROTOCOL = 4
#: ``BININT`` holds a signed 4-byte int; the formula models ``[0, 2**31)``.
_INT_END = 1 << 31
#: Pickle opens a second frame once a frame holds 64 KiB; the formula
#: models messages under 64 KiB in all, so one frame.
_FRAME_END = 1 << 16


def wire_bytes(message: Message) -> int:
    """The length ``pickle.dumps(message, protocol=4)`` would give,
    computed from the fields, with no pickling.

    A message pickles as a header that only its class decides (the
    protocol-4 frame, the module and class-name globals, ``NEWOBJ``, the
    state dict and its field-name keys; :data:`_HEADER_BYTES`) plus one
    encoding per field value:

    * an int in ``[0, 2**31)``: ``BININT1`` (2 bytes) below 256,
      ``BININT2`` (3) below 65,536, else ``BININT`` (5);
    * a bool: ``NEWTRUE`` / ``NEWFALSE`` (1);
    * bytes of at most 255: ``SHORT_BINBYTES``, its length byte, the
      payload and a ``MEMOIZE`` mark;
    * a tuple of ids: ``EMPTY_TUPLE`` (1, never memoized) when empty, else
      each id's int width plus ``TUPLE1``–``TUPLE3`` or ``MARK`` …
      ``TUPLE``, plus a ``MEMOIZE`` mark;
    * a bytes or tuple object that already appeared in the message (by
      identity): a ``BINGET`` memo reference (2).

    Any other shape — a value of another type, a bool or non-``int`` id
    inside a tuple, a negative int or one at or above ``2**31``, bytes
    over 255, a total of 64 KiB or more (near where pickle opens a second
    frame) — raises :class:`ValueError` naming the class and the field, as
    does a class this module does not export; it never falls back to
    pickling.

    :class:`AuthResult` is documented as not a wire message, yet the
    RAPTEE handshake returns it through
    :meth:`repro.sim.network.Network.request`, so every delivered one is
    counted as encrypted bytes like any reply.  The count is kept as it
    is: changing it moves the conformance vectors.
    """
    cls = type(message)
    try:
        size = _HEADER_BYTES[cls]
    except KeyError:
        raise ValueError(
            f"wire_bytes: {cls.__name__} is not a message class that "
            f"repro.sim.messages exports") from None
    memoized: Tuple[object, ...] = ()
    for name, value in message.__dict__.items():
        kind = type(value)
        if kind is int:
            if not 0 <= value < _INT_END:
                raise ValueError(
                    f"wire_bytes: {cls.__name__}.{name}: int {value} is outside "
                    f"[0, 2**31), which the formula does not model")
            size += 2 if value < 256 else 3 if value < 65536 else 5
            continue
        if kind is bool:
            size += 1
            continue
        if kind is not bytes and kind is not tuple:
            raise ValueError(
                f"wire_bytes: {cls.__name__}.{name}: a {kind.__name__} value, "
                f"which the formula does not model")
        for seen in memoized:
            if seen is value:
                size += 2
                break
        else:
            n = len(value)
            if kind is bytes:
                if n > 255:
                    raise ValueError(
                        f"wire_bytes: {cls.__name__}.{name}: {n} bytes; the "
                        f"formula models at most 255 (SHORT_BINBYTES)")
                size += n + 3
            elif n:
                if countOf(map(type, value), int) != n:
                    raise ValueError(
                        f"wire_bytes: {cls.__name__}.{name}: an id that is not "
                        f"an int (a bool, a numpy integer, …)")
                ids = sorted(value)
                if ids[0] < 0 or ids[-1] >= _INT_END:
                    raise ValueError(
                        f"wire_bytes: {cls.__name__}.{name}: id outside "
                        f"[0, 2**31), which the formula does not model")
                # 2 bytes an id, 1 more from 256 on and 2 more from 65,536 on.
                size += 2 * n + (2 if n < 4 else 3)
                if ids[-1] > 255:
                    size += n - bisect_left(ids, 256)
                    if ids[-1] > 65535:
                        size += 2 * (n - bisect_left(ids, 65536))
            else:
                size += 1
                continue
            if size >= _FRAME_END:
                raise ValueError(
                    f"wire_bytes: {cls.__name__}.{name}: the message reaches "
                    f"{size} bytes; the formula models one pickle frame, "
                    f"under 64 KiB")
            memoized += (value,)
    return size


_WIRE_CLASSES = tuple(
    obj for obj in map(globals().get, __all__)
    if isinstance(obj, type) and issubclass(obj, Message)
)
# Each class's header is its template's pickled length less what
# wire_bytes charges the template's fields with every header still 0.
# The template holds the class defaults, where two fields may share one
# object (AuthResponse's two b""); wire_bytes charges the repeat as the
# memo reference pickle writes, so the difference is the header either way.
_HEADER_BYTES: Dict[type, int] = dict.fromkeys(_WIRE_CLASSES, 0)
_HEADER_BYTES = {
    cls: len(pickle.dumps(cls(0), protocol=_PROTOCOL)) - wire_bytes(cls(0))
    for cls in _WIRE_CLASSES
}
