"""From-scratch cryptographic substrate for the RAPTEE reproduction.

Mirrors the paper's crypto stack (Intel SGX OpenSSL port): AES-128 in CTR
mode for symmetric encryption, RSA for asymmetric operations, SHA-256-based
hashing/HMAC/HKDF, plus the min-wise independent hash family used by Brahms
samplers and a deterministic PRNG for reproducible simulation.
"""

from repro.crypto.aes import AES128, BLOCK_SIZE
from repro.crypto.ctr import AesCtr, NONCE_SIZE, keystream_rows
from repro.crypto.hashing import (
    concat_hash,
    constant_time_equal,
    hkdf,
    hmac_sha256,
    int_digest,
    sha256,
)
from repro.crypto.minwise import (
    MERSENNE_PRIME_31,
    MERSENNE_PRIME_61,
    MinWiseFamily,
    MinWiseHash,
)
from repro.crypto.numbers import generate_prime, is_probable_prime, modular_inverse
from repro.crypto.prng import Sha256Prng, derive_seed
from repro.crypto.rsa import (
    RsaError,
    RsaKeyPair,
    RsaPrivateKey,
    RsaPublicKey,
    generate_keypair,
)

__all__ = [
    "AES128",
    "BLOCK_SIZE",
    "AesCtr",
    "NONCE_SIZE",
    "keystream_rows",
    "concat_hash",
    "constant_time_equal",
    "hkdf",
    "hmac_sha256",
    "int_digest",
    "sha256",
    "MERSENNE_PRIME_31",
    "MERSENNE_PRIME_61",
    "MinWiseFamily",
    "MinWiseHash",
    "generate_prime",
    "is_probable_prime",
    "modular_inverse",
    "Sha256Prng",
    "derive_seed",
    "RsaError",
    "RsaKeyPair",
    "RsaPrivateKey",
    "RsaPublicKey",
    "generate_keypair",
]
