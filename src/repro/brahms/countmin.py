"""Count-min-sketch stream unbiasing (the paper's stated future work).

Related work (§VIII) points at Anceaume et al., who "employ count-min
sketches to unbias a biased stream of identifiers", and the paper notes
that "adopting a similar technique in RAPTEE could constitute interesting
future work".  This module implements that extension.

Idea: the ID stream a node receives is occurrence-biased — the adversary
advertises its identities far more often than honest nodes advertise
theirs.  Brahms' min-wise samplers are occurrence-*insensitive* by design,
but the dynamic-view renewal is not: the β·l1 slots are drawn from the raw
pulled multiset, so over-advertised IDs win view slots proportionally to
how often they appear.  A count-min sketch estimates each ID's observed
frequency in sub-linear memory; dividing an ID's selection weight by its
estimated frequency flattens the distribution back toward uniform-over-
distinct, removing the adversary's over-advertisement edge without keeping
per-ID exact counters.

:class:`StreamUnbiaser` packages the sketch into the exact operation the
view renewal needs: a frequency-weighted sub-sampling of a batch of IDs.
RAPTEE nodes enable it with ``RapteeConfig(sketch_unbias_enabled=True)``;
``repro figure ablation-countmin --scale bench`` quantifies the effect.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Sequence

import numpy as np

from repro.crypto.minwise import scramble64, splitmix64_array

__all__ = ["CountMinSketch", "StreamUnbiaser"]


def decay_ratio(factor: float):
    """A float factor as the dyadic rational ``(num, shift)``: factor ==
    num / 2**shift exactly.  Shared by both backends so they truncate
    the *same* exact product."""
    num, den = float(factor).as_integer_ratio()
    # For any finite positive float, as_integer_ratio() returns lowest
    # terms with a power-of-two denominator.
    return num, den.bit_length() - 1


def decay_value(value: int, num: int, shift: int) -> int:
    """Exact ⌊value · num / 2**shift⌋ for a non-negative counter."""
    return (value * num) >> shift


def countmin_decay(tables, factor: float) -> None:
    """In-place exact ⌊value · factor⌋ on every counter of a numpy table.

    The factor is decomposed into ``num / 2**shift`` (exact for any float)
    and applied as an integer multiply + right shift.  A float multiply
    would diverge from exact truncation once the counter needs more than
    53 mantissa bits — e.g. ``int((2**55 + 3) * 0.5)`` is 2**54 (the
    counter is rounded before the multiply), one *below* the exact
    ⌊·⌋ = 2**54 + 1.

    The vectorised path runs only while ``value * num`` fits int64 (and the
    shift is a valid int64 shift count); otherwise the loop falls back to
    Python big ints, still exact, still in place.
    """
    num, shift = decay_ratio(factor)
    max_value = int(tables.max())
    if 0 <= shift <= 62 and (max_value == 0 or num <= ((1 << 63) - 1) // max_value):
        tables[:] = (tables * np.int64(num)) >> np.int64(shift)
        return
    flat = tables.reshape(-1)
    for index in range(flat.shape[0]):
        flat[index] = decay_value(int(flat[index]), num, shift)


class CountMinSketch:
    """Classic count-min sketch over integer IDs.

    ``depth`` independent rows of ``width`` counters; each update hashes the
    ID into one counter per row; the estimate is the row-minimum, which
    upper-bounds the true count and overestimates by at most εN with
    probability 1−δ for width = ⌈e/ε⌉, depth = ⌈ln 1/δ⌉.

    ``use_numpy=False`` selects the pure-Python counter tables, the
    reference the differential tests compare against.  Both backends
    compute identical integers — same hashes, same counters, same estimates
    (``tests/test_perf_kernels.py`` proves it property-wise): the numpy one
    batches whole-view updates into exact int64 adds and minima over
    :func:`splitmix64_array` columns.
    """

    def __init__(self, width: int, depth: int, rng: random.Random,
                 use_numpy: bool = True):
        if width <= 0 or depth <= 0:
            raise ValueError("width and depth must be positive")
        self.width = width
        self.depth = depth
        self.use_numpy = use_numpy
        if self.use_numpy:
            # int64: counts are bounded by the stream length.
            self._tables = np.zeros((depth, width), dtype=np.int64)
        else:
            self._tables = [[0] * width for _ in range(depth)]
        # Per-row salts drive independent hash functions (scramble + salt).
        self._salts = [rng.getrandbits(64) for _ in range(depth)]
        self.total = 0

    def _cells(self, item: int):
        for row, salt in enumerate(self._salts):
            yield row, scramble64(item ^ salt) % self.width

    def _columns(self, items: Sequence[int]):
        """:meth:`_cells` for a batch: column indices, shape (depth, items)."""
        salts = np.asarray(self._salts, dtype=np.uint64).reshape(-1, 1)
        hashed = splitmix64_array(np.asarray(items, dtype=np.uint64) ^ salts)
        return (hashed % np.uint64(self.width)).astype(np.int64)

    def update(self, item: int, count: int = 1) -> None:
        """Record ``count`` occurrences of ``item``."""
        if count <= 0:
            raise ValueError("count must be positive")
        if self.use_numpy:
            for row, column in self._cells(item):
                self._tables[row, column] += count
        else:
            for row, column in self._cells(item):
                self._tables[row][column] += count
        self.total += count

    def update_batch(self, items: Iterable[int]) -> None:
        if self.use_numpy:
            batch = list(items)
            if batch:
                columns = self._columns(batch)
                for row in range(self.depth):
                    # bincount aggregates duplicate columns before the add —
                    # repeated ``+= 1`` without add.at's slow path.
                    self._tables[row] += np.bincount(columns[row], minlength=self.width)
                self.total += len(batch)
            return
        for item in items:
            self.update(item)

    def estimate(self, item: int) -> int:
        """Upper-bound estimate of how often ``item`` was recorded."""
        if self.use_numpy:
            return self.estimate_batch([item])[0]
        return min(self._tables[row][column] for row, column in self._cells(item))

    def estimate_batch(self, items: Sequence[int]) -> List[int]:
        """Estimates for a batch of items, in input order."""
        if self.use_numpy and items:
            rows = np.arange(self.depth).reshape(-1, 1)
            return [int(v) for v in self._tables[rows, self._columns(items)].min(axis=0)]
        return [self.estimate(item) for item in items]

    def decay(self, factor: float = 0.5) -> None:
        """Age the sketch (halve counters): keeps the bias estimate focused
        on the recent stream in a long-running node.

        Every counter becomes the *exact* ⌊value · factor⌋ — the factor is
        expanded to its dyadic rational num/2**shift and applied in integer
        arithmetic, so large counters never pick up float64 rounding (both
        backends share the decomposition and agree bit for bit).
        """
        if not 0.0 < factor < 1.0:
            raise ValueError("factor must be in (0, 1)")
        num, shift = decay_ratio(factor)
        if self.use_numpy:
            countmin_decay(self._tables, factor)
        else:
            for table in self._tables:
                for index, value in enumerate(table):
                    table[index] = decay_value(value, num, shift)
        self.total = decay_value(self.total, num, shift)


class StreamUnbiaser:
    """Frequency-weighted sub-sampling of an ID batch.

    Keeps each occurrence of ID *x* with probability ``min_count / ĉ(x)``,
    where ĉ is the sketch estimate and ``min_count`` the smallest estimate
    in the batch — so the least-advertised ID keeps all of its occurrences
    while an ID advertised 10× as often keeps ~1/10 of them.  Applied to
    the pulled-ID pool before the β·l1 view renewal, this neutralizes
    over-advertisement while leaving uniform streams untouched.
    """

    def __init__(self, rng: random.Random, width: int = 256, depth: int = 4,
                 decay_every: int = 50):
        self._sketch = CountMinSketch(width, depth, rng)
        self._rng = rng
        self._decay_every = decay_every
        self._batches_seen = 0

    @property
    def sketch(self) -> CountMinSketch:
        return self._sketch

    def observe(self, ids: Iterable[int]) -> None:
        """Feed a batch of observed IDs into the frequency estimate."""
        self._sketch.update_batch(ids)
        self._batches_seen += 1
        if self._decay_every and self._batches_seen % self._decay_every == 0:
            self._sketch.decay()

    def unbias(self, ids: Sequence[int]) -> List[int]:
        """Return a frequency-flattened sub-sample of ``ids``."""
        if not ids:
            return []
        distinct = sorted(set(ids))
        estimates = {
            item: max(1, estimate)
            for item, estimate in zip(distinct, self._sketch.estimate_batch(distinct))
        }
        floor = min(estimates.values())
        kept = [
            item for item in ids
            if self._rng.random() < floor / estimates[item]
        ]
        # Never return an empty pool from a non-empty one: keep the single
        # least-advertised occurrence as a fallback.
        if not kept:
            kept = [min(ids, key=lambda item: estimates[item])]
        return kept
