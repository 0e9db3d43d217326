"""RSA, from scratch, for the attestation/provisioning substrate.

The paper's implementation uses RSA (via the Intel SGX OpenSSL port) for
asymmetric operations: signing enclave quotes and provisioning the trusted
group key to attested enclaves (§III-B, §V).  This module provides key
generation, OAEP-style randomized encryption, and hash-based signatures,
all over plain Python integers.  The factors come from
:func:`repro.crypto.numbers.generate_prime`: sieved, Miller-Rabin tested to
a 2^-80 error under the average-case bound for uniformly drawn candidates
(see that module's docstring), top two bits set.

Key sizes in the simulator default to 1024 bits, which is far faster in pure
Python than 2048+ and cryptographically irrelevant here (the adversary model
already grants that Byzantine nodes cannot break the primitives).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:
    import random  # annotation-only: callers inject the rng (usually Sha256Prng)

from repro.crypto.numbers import generate_prime, modular_inverse

__all__ = ["RsaPublicKey", "RsaPrivateKey", "RsaKeyPair", "generate_keypair", "RsaError"]

_PUBLIC_EXPONENT = 65537


class RsaError(Exception):
    """Raised on malformed ciphertexts, bad signatures, or oversized inputs."""


@dataclass(frozen=True)
class RsaPublicKey:
    """RSA public key (n, e)."""

    n: int
    e: int

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def encrypt(self, plaintext: bytes, rng: random.Random) -> bytes:
        """Encrypt with randomized padding (simplified OAEP).

        Layout before the modular exponentiation, for modulus of k bytes:
        ``0x00 || seed(16) || mask(message-with-length)`` where the mask is
        SHA-256-MGF1(seed).  This provides semantic security adequate for the
        simulation while staying self-contained.
        """
        k = self.byte_length
        max_message = k - 1 - 16 - 2  # prefix byte, seed, 2-byte length
        if len(plaintext) > max_message:
            raise RsaError(
                f"message of {len(plaintext)} bytes exceeds the {max_message}-byte "
                f"capacity of a {self.n.bit_length()}-bit key"
            )
        seed = rng.getrandbits(128).to_bytes(16, "big")
        body = len(plaintext).to_bytes(2, "big") + plaintext
        body = body.ljust(k - 1 - 16, b"\x00")
        masked = bytes(b ^ m for b, m in zip(body, _mgf1(seed, len(body))))
        padded = b"\x00" + seed + masked
        value = int.from_bytes(padded, "big")
        cipher_value = pow(value, self.e, self.n)
        return cipher_value.to_bytes(k, "big")

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Verify a hash-and-exponentiate signature produced by ``sign``."""
        if len(signature) != self.byte_length:
            return False
        signature_value = int.from_bytes(signature, "big")
        if signature_value >= self.n:
            return False
        recovered = pow(signature_value, self.e, self.n)
        expected = int.from_bytes(_signature_digest(message, self.byte_length), "big")
        return recovered == expected


@dataclass(frozen=True)
class RsaPrivateKey:
    """RSA private key; retains p and q to allow CRT acceleration."""

    n: int
    e: int
    d: int
    p: int
    q: int

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def public_key(self) -> RsaPublicKey:
        return RsaPublicKey(n=self.n, e=self.e)

    @cached_property
    def _crt(self) -> Tuple[int, int, int]:
        """``(d mod p-1, d mod q-1, q^-1 mod p)``, computed once per key."""
        return self.d % (self.p - 1), self.d % (self.q - 1), modular_inverse(self.q, self.p)

    def _private_op(self, value: int) -> int:
        # CRT: roughly 3-4x faster than a single pow over n.
        d_p, d_q, q_inv = self._crt
        m_p = pow(value % self.p, d_p, self.p)
        m_q = pow(value % self.q, d_q, self.q)
        h = (q_inv * (m_p - m_q)) % self.p
        return m_q + h * self.q

    def decrypt(self, ciphertext: bytes) -> bytes:
        """Invert :meth:`RsaPublicKey.encrypt`."""
        if len(ciphertext) != self.byte_length:
            raise RsaError("ciphertext length does not match the key modulus")
        cipher_value = int.from_bytes(ciphertext, "big")
        if cipher_value >= self.n:
            raise RsaError("ciphertext value out of range")
        padded = self._private_op(cipher_value).to_bytes(self.byte_length, "big")
        if padded[0] != 0:
            raise RsaError("malformed padding prefix")
        seed = padded[1:17]
        masked = padded[17:]
        body = bytes(b ^ m for b, m in zip(masked, _mgf1(seed, len(masked))))
        message_length = int.from_bytes(body[:2], "big")
        if message_length > len(body) - 2:
            raise RsaError("malformed length field")
        return body[2 : 2 + message_length]

    def sign(self, message: bytes) -> bytes:
        """Sign SHA-256(message) with full-domain-style padding."""
        digest = _signature_digest(message, self.byte_length)
        value = int.from_bytes(digest, "big")
        return self._private_op(value).to_bytes(self.byte_length, "big")


@dataclass(frozen=True)
class RsaKeyPair:
    public: RsaPublicKey
    private: RsaPrivateKey


def _mgf1(seed: bytes, length: int) -> bytes:
    """MGF1 mask generation with SHA-256."""
    output = b""
    counter = 0
    while len(output) < length:
        output += hashlib.sha256(seed + counter.to_bytes(4, "big")).digest()
        counter += 1
    return output[:length]


def _signature_digest(message: bytes, key_bytes: int) -> bytes:
    """Expand SHA-256(message) to the key width with a zero top byte."""
    digest = hashlib.sha256(message).digest()
    expanded = _mgf1(b"sig" + digest, key_bytes - 1)
    return b"\x00" + expanded


def generate_keypair(bits: int, rng: random.Random) -> RsaKeyPair:
    """Generate an RSA key pair with an exactly ``bits``-bit modulus.

    Both factors have their top two bits set, so the product has ``bits``
    bits by construction and the bit-length check below is a guard that
    never fires (forcing only the top bit would discard 2 ln 2 - 1 = 39% of
    finished prime pairs there).
    """
    if bits < 128:
        raise ValueError("modulus below 128 bits is not supported")
    while True:
        p = generate_prime(bits // 2, rng)
        q = generate_prime(bits - bits // 2, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        if phi % _PUBLIC_EXPONENT == 0:
            continue
        d = modular_inverse(_PUBLIC_EXPONENT, phi)
        private = RsaPrivateKey(n=n, e=_PUBLIC_EXPONENT, d=d, p=p, q=q)
        return RsaKeyPair(public=private.public_key(), private=private)
