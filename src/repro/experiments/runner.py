"""Experiment execution: run bundles, extract metrics, repeat over seeds."""

from __future__ import annotations

from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional

from repro.analysis.metrics import (
    resilience_from_trace,
    stability_round,
)
from repro.analysis.stats import Summary, summarize
from repro.experiments.scenarios import SimulationBundle
from repro.snapshot.seedstore import SeedResultStore

__all__ = [
    "RunMetrics",
    "RepeatedMetrics",
    "SeedTaskError",
    "run_bundle",
    "bundle_metrics",
    "map_ordered",
    "repeat",
]


def map_ordered(fn, items, workers=None, on_result=None):
    """Apply ``fn`` to every item, returning results in *item* order.

    The process-pool seam of :func:`repeat` (one task per seed; the sharded
    engine dispatches its partitions to threads in :mod:`repro.shard.pool`
    and does not come through here).  ``workers`` ``None``/``<= 1`` — or a
    single item — runs inline with no pool overhead; otherwise ``fn`` and
    the items must be picklable.

    ``on_result(index, result)`` is invoked in item order for every item
    that completed — even when another item failed, so callers that
    checkpoint (``repeat``) keep finished work.  On failure, outstanding
    futures are cancelled and the failure of the *earliest* item is
    raised, whatever the completion order.
    """
    if workers is not None and workers < 1:
        raise ValueError("workers must be a positive integer")
    items = list(items)
    if workers is None or workers <= 1 or len(items) <= 1:
        results = []
        for index, item in enumerate(items):
            result = fn(item)
            if on_result is not None:
                on_result(index, result)
            results.append(result)
        return results
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(fn, item): index for index, item in enumerate(items)}
        done, not_done = wait(futures, return_when=FIRST_EXCEPTION)
        for future in not_done:
            future.cancel()
        failures: List[BaseException] = []
        results_by_index: Dict[int, object] = {}
        for future in sorted(done, key=futures.__getitem__):
            error = future.exception()
            if error is None:
                index = futures[future]
                results_by_index[index] = future.result()
                if on_result is not None:
                    on_result(index, results_by_index[index])
            else:
                failures.append(error)
        if failures:
            raise failures[0]  # earliest-item failure, deterministically
        return [results_by_index[index] for index in range(len(items))]


@dataclass(frozen=True)
class RunMetrics:
    """Outcome of one simulation run."""

    resilience: float          # mean Byzantine fraction in correct views (tail)
    discovery_round: int       # -1 if 75 % discovery never reached
    stability_round: int       # -1 if stability never reached
    rounds: int

    @property
    def resilience_percent(self) -> float:
        return 100.0 * self.resilience


@dataclass(frozen=True)
class RepeatedMetrics:
    """Aggregates over seed repetitions."""

    resilience: Summary
    discovery_round: Optional[Summary]
    stability_round: Optional[Summary]
    runs: List[RunMetrics]


class SeedTaskError(RuntimeError):
    """One seed of a repeated experiment failed; the message names it."""

    def __init__(self, seed: int, message: str):
        super().__init__(message)
        self.seed = seed

    def __reduce__(self):
        # Default RuntimeError reduction would call SeedTaskError(message)
        # with one argument; spell the two-argument constructor out so the
        # exception survives the pickle hop back from a pool worker.
        return (SeedTaskError, (self.seed, self.args[0]))


@dataclass(frozen=True)
class _SeedTaggedRun:
    """Picklable wrapper: failures of ``build_and_run`` name their seed.

    ``ProcessPoolExecutor`` re-raises worker exceptions bare, which loses
    the one piece of context needed to reproduce the failure — the seed.
    """

    build_and_run: Callable[[int], RunMetrics]

    def __call__(self, seed: int) -> RunMetrics:
        try:
            return self.build_and_run(seed)
        except Exception as exc:
            raise SeedTaskError(
                seed, f"seed {seed} failed: {type(exc).__name__}: {exc}"
            ) from exc


def run_bundle(bundle: SimulationBundle, rounds: int, tail: int = 10) -> RunMetrics:
    """Run a built simulation and compute the paper's three metrics."""
    bundle.run(rounds)
    return bundle_metrics(bundle, rounds, tail=tail)


def bundle_metrics(bundle, rounds: int, tail: int = 10) -> RunMetrics:
    """The paper's three metrics from an already-executed run — a
    :class:`SimulationBundle` or a ``ShardSimulation``, which share the
    three members read here (``view_size`` is the l1 the views really
    have: it sizes the stability band).

    Split out of :func:`run_bundle` so checkpointed executions (see
    :mod:`repro.snapshot`) can run the rounds in resumable chunks and still
    produce the identical metrics object at the end.
    """
    records = bundle.view_records
    return RunMetrics(
        resilience=resilience_from_trace(records, tail=tail),
        discovery_round=bundle.discovery_round,
        stability_round=stability_round(
            records, view_size=bundle.view_size, sustained=3
        ),
        rounds=rounds,
    )


def repeat(
    build_and_run: Callable[[int], RunMetrics],
    seeds: List[int],
    workers: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
) -> RepeatedMetrics:
    """Run one experiment under several seeds and aggregate.

    Discovery/stability summaries only include runs that actually reached
    the milestone (the paper's runs always converge; scaled-down runs that
    miss a milestone are excluded rather than polluting the mean with -1;
    the "never reached" sentinel is -1, so a round-0 milestone counts).

    ``workers`` > 1 runs seeds in parallel via a process pool; results are
    aggregated in seed order whatever the completion order, so the
    aggregates are identical whatever the worker count.  ``build_and_run``
    must then be picklable (a module-level function).  A failing seed
    raises :class:`SeedTaskError` naming that seed.

    ``checkpoint_path`` makes the sweep resumable: every completed seed's
    metrics are appended to a versioned JSON store at that path, and a
    rerun with the same path skips seeds already recorded — so a sweep
    interrupted (or killed by one bad seed) resumes where it stopped.
    """
    if workers is not None and workers < 1:
        raise ValueError("workers must be a positive integer")
    completed: Dict[int, RunMetrics] = {}
    store: Optional[SeedResultStore] = None
    if checkpoint_path is not None:
        store = SeedResultStore(checkpoint_path)
        completed = {
            seed: RunMetrics(**payload)
            for seed, payload in store.results().items()
            if seed in set(seeds)
        }
    pending = sorted(set(seeds) - set(completed))
    task = _SeedTaggedRun(build_and_run)

    def _record(index: int, metrics: RunMetrics) -> None:
        # Record every seed that did finish — even when another seed
        # failed — so a checkpointed sweep keeps the completed work.
        completed[pending[index]] = metrics
        if store is not None:
            store.record(pending[index], asdict(metrics))

    map_ordered(task, pending, workers=workers, on_result=_record)

    runs = [completed[seed] for seed in seeds]
    return RepeatedMetrics(
        resilience=summarize([run.resilience for run in runs]),
        discovery_round=summarize(
            [run.discovery_round for run in runs if run.discovery_round >= 0]
        ),
        stability_round=summarize(
            [run.stability_round for run in runs if run.stability_round >= 0]
        ),
        runs=runs,
    )
