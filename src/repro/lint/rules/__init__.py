"""The rule battery: importing this package registers every rule.

Per-file families, one module each:

* :mod:`repro.lint.rules.determinism` — seeded runs must be bit-for-bit
  reproducible (``det-*``);
* :mod:`repro.lint.rules.enclave_boundary` — untrusted code enters the
  enclave only through ECALLs (``enclave-*``);
* :mod:`repro.lint.rules.crypto_hygiene` — constant-time comparisons, no
  stdlib random near keys, no weak hashes (``crypto-*``);
* :mod:`repro.lint.rules.sim_purity` — no I/O in protocol hot paths
  (``purity-*``).

Whole-program families (built on :mod:`repro.lint.analysis`):

* :mod:`repro.lint.rules.seed_provenance` — ``flow-unseeded-entropy``:
  ambient entropy laundered through helpers into protocol state;
* :mod:`repro.lint.rules.secret_flow` — ``flow-secret-leak``: enclave key
  material reaching logs, telemetry, payloads or snapshots;
* :mod:`repro.lint.rules.pool_safety` — ``flow-unpicklable-task``:
  lambdas/closures/handle-holders reaching process-pool submission;
* :mod:`repro.lint.rules.snapshot_completeness` — ``snapshot-missing-attr``:
  ``__getstate__``/``__setstate__`` dropping ``__init__`` state.
"""

from repro.lint.rules.crypto_hygiene import (
    DigestCompareRule,
    StdlibRandomImportRule,
    WeakHashRule,
)
from repro.lint.rules.determinism import (
    GlobalRandomRule,
    OsEntropyRule,
    SetIterationRule,
    WallClockRule,
)
from repro.lint.rules.enclave_boundary import (
    EnclaveBoundaryBypassRule,
    EnclaveInternalImportRule,
    EnclavePrivateAccessRule,
)
from repro.lint.rules.pool_safety import UnpicklableTaskFlowRule
from repro.lint.rules.secret_flow import SecretLeakFlowRule
from repro.lint.rules.seed_provenance import UnseededEntropyFlowRule
from repro.lint.rules.sim_purity import IoRule, PrintRule
from repro.lint.rules.snapshot_completeness import SnapshotMissingAttrRule

__all__ = [
    "DigestCompareRule",
    "StdlibRandomImportRule",
    "WeakHashRule",
    "GlobalRandomRule",
    "OsEntropyRule",
    "SetIterationRule",
    "WallClockRule",
    "EnclaveBoundaryBypassRule",
    "EnclaveInternalImportRule",
    "EnclavePrivateAccessRule",
    "IoRule",
    "PrintRule",
    "UnseededEntropyFlowRule",
    "SecretLeakFlowRule",
    "UnpicklableTaskFlowRule",
    "SnapshotMissingAttrRule",
]
