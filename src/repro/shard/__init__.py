"""Sharded, vectorized simulation core (the batch counterpart of
:mod:`repro.sim`).

The per-node engines keep one Python object per node and one callback per
message — the right shape for protocol fidelity, the wrong one for
N = 10,000.  This package stores the whole population as struct-of-arrays
(:mod:`repro.shard.state`), batches each round's push/pull traffic per
partition (:mod:`repro.shard.engine`), and runs partitions on threads over
that one shared state (:mod:`repro.shard.pool`) — the process pool of the
experiment sweeps is not involved.  A deterministic cross-shard ordering
barrier — a stable ``(round, src, dst, seq)`` sort over the merged message
stream — makes every run byte-identical regardless of shard count, worker
count or numeric backend; ``tests/test_shard_differential.py`` pins that.

A ``kind='shard'`` :class:`~repro.scenario.spec.ScenarioSpec` runs through
:func:`repro.scenario.run.run_scenario` like a spec for any other engine
and comes back as the same :class:`~repro.scenario.run.ScenarioArtifacts`
(trace JSONL, metrics CSV, final views, network totals, the paper's three
metrics); this package has no runner or artifact type of its own.
"""

from __future__ import annotations

from repro.shard.engine import ShardSimulation
from repro.shard.state import ShardConfig, ShardState, build_state, partition_bounds

__all__ = [
    "ShardConfig",
    "ShardState",
    "ShardSimulation",
    "build_state",
    "partition_bounds",
]
