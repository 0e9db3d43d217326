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
    per-part updates would, at a fraction of the call overhead — this sits
    on the auth hot path (every proof hashes framed nonces).
    """
    return hashlib.sha256(
        b"".join(len(part).to_bytes(4, "big") + part for part in parts)
    ).digest()


# HMAC pads and hashes the key on every call; the simulator computes
# millions of proofs under a handful of long-lived keys, so keyed
# prototypes are cached and copied (hmac.HMAC.copy is cheap).
_HMAC_PROTOTYPES: dict = {}


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA256 (with per-key prototype caching)."""
    prototype = _HMAC_PROTOTYPES.get(key)
    if prototype is None:
        prototype = _hmac.new(key, None, hashlib.sha256)
        if len(_HMAC_PROTOTYPES) < 4096:
            _HMAC_PROTOTYPES[key] = prototype
    mac = prototype.copy()
    mac.update(message)
    return mac.digest()


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
