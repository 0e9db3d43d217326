"""The rule battery: importing this package registers every rule.

Four families, one module each; every rule checks one file at a time:

* :mod:`repro.lint.rules.determinism` — seeded runs must be bit-for-bit
  reproducible (``det-*``);
* :mod:`repro.lint.rules.enclave_boundary` — untrusted code enters the
  enclave only through ECALLs (``enclave-*``);
* :mod:`repro.lint.rules.crypto_hygiene` — constant-time comparisons, no
  stdlib random near keys, no weak hashes (``crypto-*``);
* :mod:`repro.lint.rules.sim_purity` — no I/O in protocol hot paths
  (``purity-*``).
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
from repro.lint.rules.sim_purity import IoRule, PrintRule

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
]
