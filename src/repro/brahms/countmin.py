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
the ablation bench ``benchmarks/test_ablation_countmin.py`` quantifies the
effect.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Sequence

from repro.crypto.minwise import scramble64
from repro.perf import kernels as _kernels

__all__ = ["CountMinSketch", "StreamUnbiaser"]


class CountMinSketch:
    """Classic count-min sketch over integer IDs.

    ``depth`` independent rows of ``width`` counters; each update hashes the
    ID into one counter per row; the estimate is the row-minimum, which
    upper-bounds the true count and overestimates by at most εN with
    probability 1−δ for width = ⌈e/ε⌉, depth = ⌈ln 1/δ⌉.

    ``use_numpy=False`` selects the pure-Python counter tables, the
    reference the differential tests compare against.  Both backends
    compute identical integers — same hashes, same counters, same estimates
    (``tests/test_perf_kernels.py`` proves it property-wise); the numpy one
    batches whole-view updates into vector adds.
    """

    def __init__(self, width: int, depth: int, rng: random.Random,
                 use_numpy: bool = True):
        if width <= 0 or depth <= 0:
            raise ValueError("width and depth must be positive")
        self.width = width
        self.depth = depth
        self.use_numpy = use_numpy
        if self.use_numpy:
            self._tables = _kernels.countmin_new_tables(depth, width)
        else:
            self._tables = [[0] * width for _ in range(depth)]
        # Per-row salts drive independent hash functions (scramble + salt).
        self._salts = [rng.getrandbits(64) for _ in range(depth)]
        self.total = 0

    def _cells(self, item: int):
        for row, salt in enumerate(self._salts):
            yield row, scramble64(item ^ salt) % self.width

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
                _kernels.countmin_update_batch(self._tables, self._salts, batch)
                self.total += len(batch)
            return
        for item in items:
            self.update(item)

    def estimate(self, item: int) -> int:
        """Upper-bound estimate of how often ``item`` was recorded."""
        if self.use_numpy:
            return _kernels.countmin_estimate(self._tables, self._salts, item)
        return min(self._tables[row][column] for row, column in self._cells(item))

    def estimate_batch(self, items: Sequence[int]) -> List[int]:
        """Estimates for a batch of items, in input order."""
        if self.use_numpy and items:
            return _kernels.countmin_estimate_batch(
                self._tables, self._salts, list(items)
            )
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
        num, shift = _kernels.decay_ratio(factor)
        if self.use_numpy:
            _kernels.countmin_decay(self._tables, factor)
        else:
            for table in self._tables:
                for index, value in enumerate(table):
                    table[index] = _kernels.decay_value(value, num, shift)
        self.total = _kernels.decay_value(self.total, num, shift)


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
