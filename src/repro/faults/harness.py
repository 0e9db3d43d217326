"""Wiring: connect a fault plan to a built simulation bundle.

:func:`wire_faults` takes a
:class:`~repro.experiments.scenarios.SimulationBundle` plus a plan and the
experiment seed, and

1. derives injector and recovery RNG streams from the seed under
   dedicated labels (so fault randomness never perturbs protocol streams),
2. builds an :class:`~repro.core.recovery.EnclaveRecoveryManager` over the
   bundle's trusted infrastructure and seals every provisioned trusted
   node's K_T into its store (the pre-crash backups recovery restores
   from),
3. attaches a :class:`~repro.faults.injector.FaultInjector` to the
   simulation and records it as ``bundle.faults``, and
4. returns the bundle, whose ``run`` now fires the plan every round.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.node import RapteeNode
from repro.core.recovery import EnclaveRecoveryManager
from repro.crypto.prng import derive_seed
from repro.experiments.scenarios import SimulationBundle
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan

__all__ = ["wire_faults"]


def wire_faults(bundle: SimulationBundle, plan: FaultPlan, seed: int) -> SimulationBundle:
    """Attach a fault plan (and recovery) to a built simulation bundle;
    returns the bundle.

    Picks up whatever hub :func:`repro.telemetry.harness.wire_telemetry`
    already installed on the bundle (wire telemetry first when using both),
    so every applied fault and recovery transition also lands in the trace
    and the registry.
    """
    telemetry = bundle.simulation.telemetry
    injector_rng = random.Random(derive_seed(seed, "faults", "injector"))
    recovery: Optional[EnclaveRecoveryManager] = None
    if bundle.infrastructure is not None:
        recovery_rng = random.Random(derive_seed(seed, "faults", "recovery"))
        recovery = EnclaveRecoveryManager(bundle.infrastructure, recovery_rng)
        for node_id in sorted(bundle.simulation.nodes):
            node = bundle.simulation.nodes[node_id]
            if (
                isinstance(node, RapteeNode)
                and node.trusted_role
                and node.enclave is not None
                and node.enclave.is_provisioned()
            ):
                recovery.adopt(node)
    injector = FaultInjector(plan, injector_rng)
    injector.attach(
        bundle.simulation, bundle.infrastructure, recovery,
        membership=bundle.membership,
    )
    if telemetry is not None:
        injector.set_telemetry(telemetry)
    bundle.faults = injector
    return bundle
