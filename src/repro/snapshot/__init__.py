"""Deterministic checkpoint/resume for paper-scale simulation runs.

The snapshot layer serializes the *entire* state of a running simulation —
protocol state, every PRNG, network key caches and stats, SGX enclave and
infrastructure state, fault-plan progress, the telemetry clock and
collected trace — into a versioned, checksummed envelope, and restores it
in a fresh process such that the resumed run is **byte-identical** to a
straight-through run under the same seed (enforced by
``tests/test_snapshot_differential.py``).

A per-node run is one object: the
:class:`~repro.experiments.scenarios.SimulationBundle`, which holds its
telemetry hub, its fault injector (``faults``) and its clock (``engine``),
so saving the bundle saves the whole wiring.  Only round-loop bundles
resume: an event-engine run is single-shot.

Typical use::

    from repro import snapshot

    state = snapshot.run_with_checkpoints(
        bundle, rounds=200, checkpoint_every=20,
        checkpoint_path="run.snapshot",
    )
    # ... later, possibly on another machine / after a crash:
    state = snapshot.restore("run.snapshot")
    snapshot.run_with_checkpoints(state)  # finishes the stored target

CLI (:mod:`repro.cli`): ``repro run --checkpoint-every N [--checkpoint-out
P]`` and ``repro run --resume P``; ``repro snapshot info|resume`` for
inspection and headless resumption.
"""

from repro.snapshot.capture import RunState, Snapshotable, describe, restore, save
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
    "RunState",
    "Snapshotable",
    "SeedResultStore",
    "save",
    "restore",
    "describe",
    "run_with_checkpoints",
]
