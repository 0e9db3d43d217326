"""Partition dispatch for the sharded engine.

Partitions are the tasks, :func:`~repro.shard.engine.plan_partition` /
:func:`~repro.shard.engine.apply_partition` the function.  The engine cuts
``min(shards, workers)`` partitions — ``shards`` is a cap, and a partition
exists only to be handed to a worker — so ``workers = 1`` (the default)
is one inline task a phase, and more workers run one partition each on
threads over the one in-process :class:`~repro.shard.state.ShardState` —
nothing is pickled, nothing copied, and no worker outlives the call.

That rests on a read-only contract: a partition function reads the frozen
start-of-round state and the barrier and *returns* its plan or delta; it
never writes to either (``tests/test_shard_engine.py`` runs both phases
against write-protected arrays).  The driver integrates the deltas after
every partition finished.

Threads overlap only where the interpreter lock is released, i.e. inside
numpy's kernels: the numpy backend gains with population size (N = 1,000
partitions are still mostly lock-bound, N >= 4,000 ones are not); the pure
backend gains nothing from ``workers > 1``.  Inline, more partitions would
only repeat each phase's fixed numpy-call cost.  Either way the barrier
makes the output byte-identical.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Sequence, Tuple

__all__ = ["map_partitions"]


def map_partitions(fn: Callable, tasks: Sequence[Tuple], workers: int) -> List:
    """Run ``fn(*task)`` per partition task, results in partition order.

    Partition order in == partition order out, whatever the completion
    order — the engine's barrier depends on it — and a failure surfaces as
    the earliest failing partition's exception.
    """
    if workers <= 1 or len(tasks) <= 1:
        return [fn(*task) for task in tasks]
    with ThreadPoolExecutor(max_workers=workers) as executor:
        futures = [executor.submit(fn, *task) for task in tasks]
        return [future.result() for future in futures]
