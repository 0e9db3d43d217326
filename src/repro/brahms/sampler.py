"""Brahms sampling component (§II, Fig. 2).

A :class:`Sampler` holds one hash function drawn from a min-wise independent
family and retains, over the stream of all IDs it has ever observed, the ID
with the smallest hash.  Because the hash is (approximately) min-wise
independent, every distinct element of the stream is equally likely to be
retained — so the sample converges to a uniform draw over everything the
node has ever heard of, which is exactly Brahms' self-healing anchor.

A :class:`SamplerGroup` bundles l2 independent samplers and implements the
liveness validation: a sampler whose retained ID stops responding is reset
so departed nodes do not anchor samples forever.

The group batch-evaluates the linear min-wise family with numpy (the stream
× samplers product dominates simulation time); the semantics are identical
to feeding each ID through each :class:`Sampler` in order, because taking a
running minimum commutes with batching.  :class:`Sampler` is that
per-element reference, kept for the tests that hold the group to it.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, List, Optional

import numpy as np

from repro.crypto.minwise import MERSENNE_PRIME_31, MinWiseFamily, splitmix64_array

__all__ = ["Sampler", "SamplerGroup"]


def _reduce(batch: np.ndarray) -> np.ndarray:
    return (splitmix64_array(batch) % np.uint64(MERSENNE_PRIME_31)).astype(np.int64)


#: ``scramble64(id) mod p`` for ids below 2^14 (past the paper's N = 10,000;
#: 0.3 ms at import, 128 KiB): the id-only half of ``MinWiseHash.__call__``,
#: tabulated as ``repro.shard.state.ShardState.reduced`` is.  An update is a
#: node's round: its α·l1 pushes plus its β·l1 pulled views, 156 ids in the
#: median on the ``pernode-brahms-1k`` ledger workload (l1 = 20).  At that
#: size a numpy op still costs about its ~1 µs call overhead whatever it
#: computes, so one ``take`` replaces the finaliser's dozen.
_REDUCED_TABLE = _reduce(np.arange(1 << 14))


def _reduced_ids(batch: np.ndarray) -> np.ndarray:
    """``scramble64(id) mod p`` of a batch of non-negative ids."""
    # Node ids are never negative (-1 is the group's "empty" sentinel, and
    # ``sample_list`` drops anything below 0); ``take`` would read a negative
    # id from the table's tail where ``MinWiseHash`` masks it to 64 bits.
    try:
        return _REDUCED_TABLE.take(batch)
    except IndexError:  # holds an id past the table
        return _reduce(batch)


class Sampler:
    """One min-wise sampler: ``next`` consumes an ID, ``sample`` reads it."""

    def __init__(self, hash_function: Callable[[int], int]):
        self._hash = hash_function
        self._current_id: Optional[int] = None
        self._current_hash: Optional[int] = None

    def next(self, candidate: int) -> None:
        """Feed one stream element."""
        h = self._hash(candidate)
        if self._current_hash is None or h < self._current_hash:
            self._current_hash = h
            self._current_id = candidate

    def sample(self) -> Optional[int]:
        """The retained ID, or ``None`` if the stream was empty so far."""
        return self._current_id

    def reset(self, hash_function: Callable[[int], int]) -> None:
        """Re-initialize with a fresh hash function (after invalidation)."""
        self._hash = hash_function
        self._current_id = None
        self._current_hash = None


class SamplerGroup:
    """l2 independent samplers plus the validation policy."""

    def __init__(self, size: int, family: MinWiseFamily):
        if size <= 0:
            raise ValueError("sampler group size must be positive")
        self._family = family
        self._size = size
        functions = [family.draw() for _ in range(size)]
        self._a = np.array([f.a for f in functions], dtype=np.int64)
        self._b = np.array([f.b for f in functions], dtype=np.int64)
        self._p = np.int64(MERSENNE_PRIME_31)
        # Sentinel: every real hash is < p, so p means "empty".
        self._current_hash = np.full(size, MERSENNE_PRIME_31, dtype=np.int64)
        self._current_id = np.full(size, -1, dtype=np.int64)

    def __len__(self) -> int:
        return self._size

    # -- streaming -----------------------------------------------------------

    def update(self, ids: Iterable[int]) -> None:
        """Stream a batch of IDs through every sampler."""
        batch = np.fromiter(ids, dtype=np.int64)
        if batch.size == 0:
            return
        # Same pipeline as MinWiseHash.__call__: 64-bit scramble, reduce
        # mod p, then the per-sampler linear map.
        reduced = _reduced_ids(batch)
        # (samplers × batch) hashes in one shot; running-min over the whole
        # history equals min(previous minimum, batch minimum).
        hashes = (self._a[:, None] * reduced[None, :] + self._b[:, None]) % self._p
        best_hash = hashes.min(axis=1)
        improved = best_hash < self._current_hash
        # Most batches of a running stream improve no sampler: then there
        # is no position to look up and nothing to write.
        if not improved.any():
            return
        best_index = hashes.argmin(axis=1)
        self._current_hash[improved] = best_hash[improved]
        self._current_id[improved] = batch[best_index[improved]]

    # -- reading -------------------------------------------------------------

    def sample_list(self) -> List[int]:
        """Current non-empty samples (the sample list S)."""
        return [value for value in self._current_id.tolist() if value >= 0]

    def random_samples(self, count: int, rng: random.Random) -> List[int]:
        """``count`` IDs drawn uniformly from S (with replacement, as the
        history-sample step draws independent entries)."""
        current = self.sample_list()
        if not current:
            return []
        return [rng.choice(current) for _ in range(count)]

    # -- validation / invalidation -----------------------------------------------

    def _reset_index(self, index: int) -> None:
        fresh = self._family.draw()
        self._a[index] = fresh.a
        self._b[index] = fresh.b
        self._current_hash[index] = MERSENNE_PRIME_31
        self._current_id[index] = -1

    def validate(self, is_alive: Callable[[int], bool]) -> int:
        """Reset every sampler whose retained ID fails the liveness probe.

        Returns the number of samplers reset.  In the paper's deployment the
        probe is a ping; in the simulator it is reachability of the node.
        """
        reset_count = 0
        for index in range(self._size):
            current = int(self._current_id[index])
            if current >= 0 and not is_alive(current):
                self._reset_index(index)
                reset_count += 1
        return reset_count
