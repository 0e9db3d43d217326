"""numpy kernels for the sketch/hash hot paths.

Every kernel here is an *exact* integer-for-integer replacement for a pure
Python loop elsewhere in the tree — not a floating-point approximation.
The equivalence arguments, which the Hypothesis suite
(``tests/test_perf_kernels.py``) checks on random inputs:

* ``splitmix64_array`` is the SplitMix64 finalizer — xor-shifts and odd
  multiplies, all mod 2^64; numpy ``uint64`` arithmetic wraps modulo 2^64
  by definition, so elementwise uint64 ops *are* the scalar reference
  (``repro.crypto.minwise.scramble64``, which ``repro.shard.rand`` calls
  ``mix64``) with no masking.
* Count-min updates/estimates are integer adds and minima over int64
  counters; ``decay`` truncates the *exact* rational product: a float64
  factor is the dyadic rational num/2^shift, so ``(value * num) >> shift``
  is ⌊value · factor⌋ with no rounding — unlike a float multiply, which
  drifts from exact truncation once ``value * factor`` needs more than 53
  mantissa bits (well below int64 range).

The pure-Python loops stay beside their callers as the references those
tests compare against (``CountMinSketch(use_numpy=False)``, scalar
``scramble64``).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.crypto.minwise import SPLITMIX64_M1, SPLITMIX64_M2

__all__ = [
    "splitmix64_array",
    "countmin_rows",
    "countmin_new_tables",
    "countmin_update_batch",
    "countmin_estimate",
    "countmin_estimate_batch",
    "countmin_decay",
    "decay_ratio",
    "decay_value",
]


def splitmix64_array(values):
    """Vectorised :func:`repro.crypto.minwise.scramble64`, the SplitMix64
    finalizer, over a uint64 array (exact mod 2^64).

    uint64 arithmetic wraps modulo 2^64, so the xor-shift/multiply pipeline
    below computes the identical integers as the masked scalar.
    """
    x = np.asarray(values, dtype=np.uint64)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(SPLITMIX64_M1)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(SPLITMIX64_M2)
    return x ^ (x >> np.uint64(31))


def countmin_rows(items: Sequence[int], salts: Sequence[int], width: int):
    """Column indices per (row, item): shape ``(depth, len(items))`` int64.

    Matches ``scramble64(item ^ salt) % width`` of the scalar `_cells`.
    """
    arr = np.asarray(items, dtype=np.uint64)
    salts_col = np.asarray(salts, dtype=np.uint64).reshape(-1, 1)
    return (splitmix64_array(arr ^ salts_col) % np.uint64(width)).astype(np.int64)


def countmin_new_tables(depth: int, width: int):
    """Zeroed counter matrix (int64 — counts are bounded by stream length)."""
    return np.zeros((depth, width), dtype=np.int64)


def countmin_update_batch(tables, salts: Sequence[int], items: Sequence[int]) -> None:
    """Add 1 per occurrence of each item, all rows at once (exact adds)."""
    columns = countmin_rows(items, salts, tables.shape[1])
    for row in range(tables.shape[0]):
        # bincount aggregates duplicate columns before the add — the numpy
        # equivalent of repeated `+= 1`, without add.at's slow path.
        tables[row] += np.bincount(columns[row], minlength=tables.shape[1])


def countmin_estimate(tables, salts: Sequence[int], item: int) -> int:
    """Row-minimum estimate for a single item."""
    columns = countmin_rows([item], salts, tables.shape[1])[:, 0]
    return int(tables[np.arange(tables.shape[0]), columns].min())


def countmin_estimate_batch(
    tables, salts: Sequence[int], items: Sequence[int]
) -> List[int]:
    """Row-minimum estimates for a batch of items, in input order."""
    columns = countmin_rows(items, salts, tables.shape[1])
    rows = np.arange(tables.shape[0]).reshape(-1, 1)
    return [int(v) for v in tables[rows, columns].min(axis=0)]


def decay_ratio(factor: float):
    """A float factor as the dyadic rational ``(num, shift)``: factor ==
    num / 2**shift exactly.  Shared by both decay backends so they truncate
    the *same* exact product."""
    num, den = float(factor).as_integer_ratio()
    # For any finite positive float, as_integer_ratio() returns lowest
    # terms with a power-of-two denominator.
    return num, den.bit_length() - 1


def decay_value(value: int, num: int, shift: int) -> int:
    """Exact ⌊value · num / 2**shift⌋ for a non-negative counter."""
    return (value * num) >> shift


def countmin_decay(tables, factor: float) -> None:
    """In-place exact ⌊value · factor⌋ on every counter.

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
