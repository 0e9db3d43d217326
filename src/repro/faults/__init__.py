"""Deterministic fault injection for the RAPTEE simulator.

The paper evaluates RAPTEE under an adversary but assumes the *benign*
infrastructure — network links, node processes, SGX machinery — works
perfectly.  This package drops that assumption: declarative
:class:`~repro.faults.plan.FaultPlan`\\ s describe link loss, partitions,
eclipse cuts, crash-restarts, omission nodes, attestation outages,
provisioning flakiness, enclave crashes, sealed-blob corruption and device
revocation; the :class:`~repro.faults.injector.FaultInjector` applies them
to a running simulation through seeded hooks, paired with the recovery
machinery in :mod:`repro.core.recovery` and audited every round by the
:class:`~repro.faults.invariants.InvariantChecker`.

Everything is deterministic: the same seed and the same plan reproduce the
same run, faults included.  The canned drills are catalog scenarios
(``drill-*`` in :mod:`repro.scenario.catalog`), run with the checker by
``repro trace --scenario drill-enclave-outage``.
"""

from repro.faults.harness import wire_faults
from repro.faults.injector import FaultInjector, InjectionStats
from repro.faults.invariants import InvariantChecker, Violation
from repro.faults.plan import (
    AttestationOutageFault,
    CrashRestartFault,
    DeviceRevocationFault,
    EclipseFault,
    EnclaveCrashFault,
    Fault,
    FaultPlan,
    LinkFault,
    LossBurstFault,
    OmissionFault,
    PartitionFault,
    ProvisioningFlakinessFault,
    RoundWindow,
    SealedBlobCorruptionFault,
)

__all__ = [
    "wire_faults",
    "FaultInjector",
    "InjectionStats",
    "InvariantChecker",
    "Violation",
    "AttestationOutageFault",
    "CrashRestartFault",
    "DeviceRevocationFault",
    "EclipseFault",
    "EnclaveCrashFault",
    "Fault",
    "FaultPlan",
    "LinkFault",
    "LossBurstFault",
    "OmissionFault",
    "PartitionFault",
    "ProvisioningFlakinessFault",
    "RoundWindow",
    "SealedBlobCorruptionFault",
]
