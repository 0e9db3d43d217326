"""Partition dispatch for the sharded engine.

Reuses the process-pool seam the experiment sweeps already own
(:func:`repro.experiments.runner.map_ordered`): partitions are the items,
:func:`~repro.shard.engine.plan_partition` /
:func:`~repro.shard.engine.apply_partition` the task.  ``workers <= 1``
runs partitions inline in partition order — zero pickling, and the default.
Pool mode pickles the state and the barrier to a worker once per partition
per phase; on the numpy backend, whose per-partition work is a handful of
array passes, that transfer costs more than the parallelism returns: the
ledger measures ``shard-raptee-1k-pool`` (``workers=2``) 3.4x slower than
the same rounds inline (``run_s`` 1.91 s vs 0.56 s; 2.2x before the
segment kernel, when there was more per-partition work to overlap).
Either way the barrier makes the output byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from repro.experiments.runner import map_ordered

__all__ = ["map_partitions"]


@dataclass(frozen=True)
class _Spread:
    """Picklable adapter: one task tuple → positional arguments."""

    fn: Callable

    def __call__(self, task: Tuple):
        return self.fn(*task)


def map_partitions(fn: Callable, tasks: Sequence[Tuple], workers: int) -> List:
    """Run ``fn(*task)`` per partition task, results in partition order.

    ``fn`` must be a module-level function (picklable) when ``workers > 1``;
    partition order in == partition order out, whatever the completion
    order — the engine's barrier depends on it.
    """
    return map_ordered(_Spread(fn), tasks, workers=workers if len(tasks) > 1 else 1)
