"""Deterministic checkpoint/resume for paper-scale simulation runs.

The snapshot layer serializes the *entire* state of a running per-node
simulation — protocol state, every PRNG, network stats, SGX enclave and
infrastructure state, fault-plan progress, the telemetry clock and
collected trace — into a versioned, checksummed envelope, and restores it
in a fresh process such that the resumed run is **byte-identical** to a
straight-through run under the same seed (enforced by
``tests/test_snapshot_differential.py``).

A per-node run is one object, the
:class:`~repro.experiments.scenarios.SimulationBundle`: it holds its
telemetry hub, its fault injector (``faults``), its clock (``engine``) and
the scenario it was compiled from (``spec``, whose ``rounds`` is the round
target).  A checkpoint is that bundle, so saving it saves the whole
wiring.  Only round-loop bundles resume: an event-engine run is
single-shot.

Typical use::

    from repro import snapshot

    bundle = snapshot.run_with_checkpoints(
        bundle, rounds=200, checkpoint_every=20,
        checkpoint_path="run.snapshot",
    )
    # ... later, possibly on another machine / after a crash:
    bundle = snapshot.restore("run.snapshot")
    snapshot.run_with_checkpoints(bundle)  # finishes the stored target

CLI (:mod:`repro.cli`): ``repro run --checkpoint-every N [--checkpoint-out
P]`` saves, ``repro run --resume P`` continues, and ``repro snapshot info
P`` prints a checkpoint's header.
"""

from repro.snapshot.capture import describe, restore, save
from repro.snapshot.format import (
    SNAPSHOT_FORMAT_VERSION,
    SnapshotError,
    SnapshotVersionError,
)
from repro.snapshot.resume import run_with_checkpoints
from repro.snapshot.seedstore import SeedResultStore

__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "SnapshotError",
    "SnapshotVersionError",
    "SeedResultStore",
    "save",
    "restore",
    "describe",
    "run_with_checkpoints",
]
