"""Performance layer: equivalence-proven fast paths.

Two pieces:

* :mod:`repro.perf.config` — the process-wide fast-path flag (on by
  default) and the ``use_numpy`` resolution rule;
* :mod:`repro.perf.kernels` — optional numpy kernels for the sketch and
  min-wise hot paths, exact integer replacements for the Python loops.

The contract that lets the fast paths default to *on*: for every seed,
fast-path-on and fast-path-off runs are byte-identical — same trace JSONL,
same final views, same figure metrics (``tests/test_perf_differential.py``).
What the paths cost is measured from outside the package, by the perf
ledger (``BENCHMARK.json`` + ``benchmarks/ledger/``).
"""

from repro.perf.config import (
    fastpaths,
    fastpaths_enabled,
    resolve_use_numpy,
    set_fastpaths,
)
from repro.perf.kernels import HAVE_NUMPY

__all__ = [
    "fastpaths",
    "fastpaths_enabled",
    "set_fastpaths",
    "resolve_use_numpy",
    "HAVE_NUMPY",
]
