"""Number-theoretic primitives backing the RSA implementation.

Everything here is deterministic given the supplied random source, which
keeps key generation reproducible inside the simulator.

Both primality paths aim at the same error target, 2^-80, under the bound
that applies to each:

* :func:`is_probable_prime` answers for a caller-supplied ``n``, which may
  be adversarial, so only the worst-case bound holds: a composite survives
  one random-base Miller-Rabin round with probability at most 1/4, and
  ``MILLER_RABIN_ROUNDS`` = 40 rounds give 4^-40 = 2^-80.
* :func:`generate_prime` draws its own candidates uniformly at random.  For
  that setting Damgård, Landrock and Pomerance ("Average case error
  estimates for the strong probable prime test", Math. Comp. 61, 1993)
  bound the probability p(k, t) that a uniformly drawn odd k-bit integer
  which survives t random-base rounds is composite; the Handbook of Applied
  Cryptography tabulates the smallest t with p(k, t) <= 2^-80 (Table 4.4,
  from Fact 4.48) and ``_AVERAGE_CASE_ROUNDS`` is that table.  Sieving
  first removes only composites from the candidate stream, so the composite
  share of the survivors can only fall.  Fixing the second-highest bit
  halves the candidate set, which at worst doubles the bound.  At the
  simulator's 256-bit primes Fact 4.48(ii) with t = 12 evaluates to
  2^-84.6, so the target holds with that bit to spare, as it does at the
  smallest size of seven of the twelve rows; at exactly 150, 300, 650, 850
  and 1300 bits (sizes nothing here generates) the bound is 2^-80.2 to
  2^-81.0, so a prime of such a size is only promised 2^-79.
"""

from __future__ import annotations

import math
import random  # lint: disable=crypto-stdlib-random -- Miller-Rabin witness fallback is seeded from n, never from global state
from typing import List, Optional, Tuple

__all__ = [
    "is_probable_prime",
    "generate_prime",
    "modular_inverse",
    "MILLER_RABIN_ROUNDS",
]

MILLER_RABIN_ROUNDS = 40

# Small primes used for cheap trial division before Miller-Rabin.
_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]

# HAC Table 4.4: (smallest bit size, random-base rounds for p(k, t) <= 2^-80).
_AVERAGE_CASE_ROUNDS = (
    (1300, 2), (850, 3), (650, 4), (550, 5), (450, 6), (400, 7),
    (350, 8), (300, 9), (250, 12), (200, 15), (150, 18), (100, 27),
)

# generate_prime sieves its candidates by every prime below this.  A pass
# over the chunks costs ~4 us against 120-190 us for one 256-bit modular
# exponentiation, and 13% of odd candidates survive a sieve to 4,000 (24% the
# table above); a sieve to 20,000 costs more in gcds than the exponentiations
# it saves.
_SIEVE_LIMIT = 4000
_SIEVE_CHUNK_BITS = 1024


def _primes_below(limit: int) -> List[int]:
    """Sieve of Eratosthenes."""
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit, i)))
    return [i for i, flag in enumerate(flags) if flag]


def _primorial_chunks(primes: List[int], chunk_bits: int) -> Tuple[int, ...]:
    """Products of consecutive ``primes``, each at most ``chunk_bits`` wide."""
    chunks, product = [], 1
    for p in primes:
        if (product * p).bit_length() > chunk_bits:
            chunks.append(product)
            product = 1
        product *= p
    chunks.append(product)
    return tuple(chunks)


_SIEVE_PRIMES = _primes_below(_SIEVE_LIMIT)
_SIEVE_CHUNKS = _primorial_chunks(_SIEVE_PRIMES, _SIEVE_CHUNK_BITS)


def _has_sieve_factor(n: int) -> bool:
    """True iff a prime below ``_SIEVE_LIMIT`` divides ``n`` (a sieve prime
    divides itself): one gcd per primorial chunk instead of one division
    per prime."""
    for chunk in _SIEVE_CHUNKS:
        if math.gcd(n, chunk) != 1:
            return True
    return False


def _odd_part(n: int) -> Tuple[int, int]:
    """``(d, r)`` with ``n - 1 == d * 2**r`` and d odd."""
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    return d, r


def _miller_rabin_witness(n: int, a: int, d: int, r: int) -> bool:
    """Return True if ``a`` witnesses that ``n`` is composite."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return False
    return True


def _survives_random_bases(n: int, d: int, r: int, rounds: int, rng: random.Random) -> bool:
    """``rounds`` Miller-Rabin rounds with bases drawn from ``rng``."""
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        if _miller_rabin_witness(n, a, d, r):
            return False
    return True


def is_probable_prime(n: int, rng: Optional[random.Random] = None, rounds: int = MILLER_RABIN_ROUNDS) -> bool:
    """Miller-Rabin primality test.

    For n < 3,317,044,064,679,887,385,961,981 the fixed witness set below is
    deterministic and exact; for larger n we add ``rounds`` random witnesses,
    giving an error probability below 4^-rounds (2^-80 at the default) for
    *any* n — the worst-case bound, the only one that holds for an input the
    caller chose.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False

    d, r = _odd_part(n)

    # Deterministic witnesses (Sorenson & Webster) cover n < 3.317e24.
    deterministic_witnesses = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]
    for a in deterministic_witnesses:
        if a >= n:
            continue
        if _miller_rabin_witness(n, a, d, r):
            return False
    if n < 3_317_044_064_679_887_385_961_981:
        return True

    return _survives_random_bases(n, d, r, rounds, rng or random.Random(n))


def generate_prime(bits: int, rng: random.Random) -> int:
    """Generate a random prime with exactly ``bits`` bits, the top two set
    (as OpenSSL does: the product of two such primes of k and k' bits has
    exactly k + k' bits, so an RSA modulus never needs a redraw).

    Candidates are drawn uniformly from ``rng``.  From 100 bits up each is
    sieved by the primes below ``_SIEVE_LIMIT`` and then takes the
    average-case round count of ``_AVERAGE_CASE_ROUNDS`` for its size (see
    the module docstring: 2^-80, as :func:`is_probable_prime`); below 100
    bits the table has no row and a candidate can be a sieve prime itself,
    so those go through :func:`is_probable_prime` whole.
    """
    if bits < 8:
        raise ValueError("refusing to generate primes below 8 bits")
    forced = (0b11 << (bits - 2)) | 1  # top two bits and oddness
    rounds = next((t for k, t in _AVERAGE_CASE_ROUNDS if bits >= k), None)
    while True:
        candidate = rng.getrandbits(bits) | forced
        if rounds is None:
            if is_probable_prime(candidate, rng):
                return candidate
        elif not _has_sieve_factor(candidate) and _survives_random_bases(
            candidate, *_odd_part(candidate), rounds, rng
        ):
            return candidate


def modular_inverse(a: int, m: int) -> int:
    """Return x with (a * x) % m == 1, raising ValueError if none exists."""
    # Extended Euclid.
    old_r, r = a % m, m
    old_s, s = 1, 0
    while r:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_s, s = s, old_s - quotient * s
    if old_r != 1:
        raise ValueError(f"{a} has no inverse modulo {m}")
    return old_s % m
