"""How fast the host is right now, measured beside the workload.

The sandbox this ledger runs in shares its cores and caches: the same run
takes up to twice as long ten minutes later, with nothing changed, and the
slow spells last longer than a run.  A wall-clock second is therefore not
a steady unit.  :class:`HostSpeed` times a fixed kernel, which shares no
code with the program under test, in short slices between the rounds of a
workload.  Wall times divided by :meth:`factor` are *reference-host
seconds*: what the run would have taken with the kernel at its nominal
speed.  Raw wall times are reported beside them.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

#: Seconds one slice takes on the reference host (the 2-core sandbox this
#: ledger was sized on, in a quiet spell).  Only fixes the unit.
NOMINAL_SLICE_S = 0.0100


class HostSpeed:
    """A fixed pure-Python + numpy kernel, timed slice by slice.

    The kernel mixes what the engines mix: tight integer arithmetic,
    pointer-chasing over Python objects that do not fit the inner caches,
    dict updates, and numpy sort / gather / mask over arrays of a few MiB.
    """

    def __init__(self) -> None:
        self.slices: List[float] = []
        self._ints = [(i * 2654435761) & 0xFFFFFFF for i in range(200_000)]
        self._dict = {value: index for index, value in enumerate(self._ints[:50_000])}
        self._index = (np.arange(1 << 18, dtype=np.int64) * 2654435761) % (1 << 18)
        self._values = np.arange(1 << 18, dtype=np.int64)

    def slice(self) -> None:
        start = time.perf_counter()
        ints, table, n = self._ints, self._dict, len(self._ints)
        acc = 1
        for i in range(6000):
            acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
            value = ints[acc % n]
            acc ^= table.get(value, i) + ints[value % n]
            table[ints[i]] = acc
        gathered = self._values[self._index]
        order = np.argsort(gathered[: 1 << 16], kind="stable")
        acc += int((gathered[order] & 1).sum())
        self.slices.append(time.perf_counter() - start)

    def spend(self, seconds: float) -> None:
        """Run slices for about ``seconds`` (at least one)."""
        deadline = time.perf_counter() + seconds
        self.slice()
        while time.perf_counter() < deadline:
            self.slice()

    def factor(self) -> float:
        """Mean slice time over the nominal: 2.0 on a host half as fast."""
        return sum(self.slices) / len(self.slices) / NOMINAL_SLICE_S
