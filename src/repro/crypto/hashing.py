"""Hash utilities shared by the auth protocol and the samplers.

The mutual-authentication handshake of §IV-A computes ``H(r_A . r_B)`` — the
hash of the concatenation of two nonces.  We use SHA-256 and make the
concatenation unambiguous with explicit length framing.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac

__all__ = [
    "sha256",
    "concat_hash",
    "FramedHash",
    "hmac_sha256",
    "hkdf",
    "constant_time_equal",
    "int_digest",
]


def sha256(data: bytes) -> bytes:
    """SHA-256 of ``data``."""
    return hashlib.sha256(data).digest()


def concat_hash(*parts: bytes) -> bytes:
    """Hash a concatenation of byte strings with length framing.

    Framing (4-byte big-endian length before each part) prevents the classic
    ambiguity where ``H(a || b) == H(a' || b')`` for different splits.

    One join + one C-level update hashes the identical byte stream that
    per-part updates would, at a fraction of the call overhead.  A hot
    caller with a fixed first part (the auth proofs' label) uses
    :class:`FramedHash` for the same bytes.
    """
    return hashlib.sha256(
        b"".join(len(part).to_bytes(4, "big") + part for part in parts)
    ).digest()


class FramedHash:
    """``concat_hash(label, *parts)`` with the label's framing hashed once.

    The SHA-256 state after the framed label is kept; each call copies it
    and feeds the framed parts in one update.  The auth proofs hash every
    nonce pair under one fixed label, so the label is never rehashed.
    """

    __slots__ = ("_prefix",)

    def __init__(self, label: bytes):
        self._prefix = hashlib.sha256(len(label).to_bytes(4, "big") + label)

    def __call__(self, *parts: bytes) -> bytes:
        # A flat loop, not a generator: no extra frame per part.
        framed = b""
        for part in parts:
            framed += len(part).to_bytes(4, "big") + part
        state = self._prefix.copy()
        state.update(framed)
        return state.digest()


# HMAC pads and hashes the key on every call; the simulator computes
# millions of proofs under a handful of long-lived keys, so the two
# RFC 2104 pad states of each key are cached as SHA-256 objects and an
# HMAC is two C-level copy/update/digest triples.
_BLOCK_BYTES = 64
_HMAC_PADS: dict = {}


def _hmac_pads(key: bytes) -> tuple:
    """The (inner, outer) SHA-256 states after ``key ^ ipad`` / ``key ^ opad``."""
    if len(key) > _BLOCK_BYTES:
        key = hashlib.sha256(key).digest()
    block = key.ljust(_BLOCK_BYTES, b"\x00")
    return (
        hashlib.sha256(block.translate(_hmac.trans_36)),
        hashlib.sha256(block.translate(_hmac.trans_5C)),
    )


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA256 (RFC 2104, with per-key pad-state caching)."""
    pads = _HMAC_PADS.get(key)
    if pads is None:
        pads = _hmac_pads(key)
        if len(_HMAC_PADS) < 4096:
            _HMAC_PADS[key] = pads
    inner = pads[0].copy()
    inner.update(message)
    outer = pads[1].copy()
    outer.update(inner.digest())
    return outer.digest()


def hkdf(key_material: bytes, info: bytes, length: int = 16, salt: bytes = b"") -> bytes:
    """HKDF (RFC 5869) extract-and-expand with SHA-256.

    Used to derive per-purpose subkeys (auth, transport) from a node's root
    secret so that key reuse across contexts is impossible.
    """
    if length > 255 * 32:
        raise ValueError("HKDF output too long")
    pseudo_random_key = hmac_sha256(salt or b"\x00" * 32, key_material)
    output = b""
    block = b""
    counter = 1
    while len(output) < length:
        block = hmac_sha256(pseudo_random_key, block + info + bytes([counter]))
        output += block
        counter += 1
    return output[:length]


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Timing-safe byte-string comparison."""
    return _hmac.compare_digest(a, b)


def int_digest(data: bytes, bits: int = 64) -> int:
    """SHA-256 of ``data`` truncated to an integer of ``bits`` bits."""
    if not 0 < bits <= 256:
        raise ValueError("bits must be in (0, 256]")
    return int.from_bytes(hashlib.sha256(data).digest(), "big") >> (256 - bits)
