"""Performance layer: exact numpy kernels for the sketch and hash hot paths.

:mod:`repro.perf.kernels` holds integer-for-integer replacements for the
pure-Python loops elsewhere in the tree; the loops stay as the references
the Hypothesis suite (``tests/test_perf_kernels.py``) compares against.
What the kernels cost is measured from outside the package, by the perf
ledger (``BENCHMARK.json`` + ``benchmarks/ledger/``).
"""

from repro.perf import kernels

__all__ = ["kernels"]
