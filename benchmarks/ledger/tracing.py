"""Per-layer measurement from outside the program.

Three tools, all confined to the benchmark's own files:

* :class:`SpanRecorder` — in-memory spans (name, start, end, parent) and
  the self-time rule: a span's self time is its duration minus the part
  its child spans cover.
* :func:`shard_spans` — wraps the three seams a shard round crosses
  (``repro.shard.pool.map_partitions``, ``repro.shard.engine.merge_plans``,
  ``repro.shard.engine.build_state``) so each records a span, and restores
  them afterwards.
* :func:`fold_profile` — folds a ``cProfile`` session by defining package
  for the engines whose phases are not reachable from outside.
"""

from __future__ import annotations

import pickle
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

#: Layer names are the package names under ``src/repro/``; code defined
#: anywhere else (stdlib, numpy, the harness) folds into ``other``.
LAYERS = (
    "crypto", "brahms", "core", "gossip", "sgx", "sim", "events", "shard",
    "adversary", "telemetry", "scenario", "experiments", "perf",
)


class SpanRecorder:
    """Spans kept in memory; each names the span that caused it."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index]`` (parent ``-1`` for roots).
        self.spans: List[list] = []
        self._stack: List[int] = []

    def open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent])

    def close(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def self_times(self) -> List[float]:
        """Per span: duration minus the durations of its direct children."""
        selfs = [end - start for _name, start, end, _parent in self.spans]
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                selfs[parent] -= end - start
        return selfs

    def self_by_name(self) -> Dict[str, float]:
        """Self time summed over spans sharing a name (``engine.round[3]``
        folds into ``engine.round``)."""
        totals: Dict[str, float] = {}
        for (name, *_rest), self_s in zip(self.spans, self.self_times()):
            key = name.split("[", 1)[0]
            totals[key] = totals.get(key, 0.0) + self_s
        return totals

    def as_dicts(self) -> List[Dict[str, object]]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]


class _TimedCall:
    """Picklable wrapper returning ``(result, seconds inside fn)`` so the
    time a partition task computes is known even when it ran in a pool
    worker."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, *args):
        start = time.perf_counter()
        result = self.fn(*args)
        return result, time.perf_counter() - start


class PoolCounters:
    """What crossing ``map_partitions`` cost, summed over a run."""

    def __init__(self) -> None:
        self.task_bytes = 0
        #: map_partitions span time minus the time spent inside the mapped
        #: function: dispatch, process start, pickling both ways and idle
        #: waiting, net of whatever the workers overlapped.
        self.overhead_s = 0.0


@contextmanager
def shard_spans(recorder: SpanRecorder) -> Iterator[PoolCounters]:
    """Record ``shard.plan`` / ``shard.apply`` / ``shard.barrier`` /
    ``shard.build_state`` spans while the block runs; yields what the
    pool crossings cost."""
    import repro.shard.engine as engine
    import repro.shard.pool as pool

    counters = PoolCounters()
    real_map, real_merge, real_build = (
        pool.map_partitions, engine.merge_plans, engine.build_state,
    )
    span_of = {engine.plan_partition: "shard.plan",
               engine.apply_partition: "shard.apply"}

    def map_partitions(fn, tasks, workers):
        if workers > 1:
            # The harness's own work, in a span of its own so that it is
            # not charged to the round: what serialising the task tuples
            # costs, and how many bytes a round ships to the workers.
            with recorder.span("shard.pool.pickle"):
                counters.task_bytes += sum(len(pickle.dumps(task)) for task in tasks)
        with recorder.span(span_of[fn]):
            start = time.perf_counter()
            timed = real_map(_TimedCall(fn), tasks, workers)
            elapsed = time.perf_counter() - start
        counters.overhead_s += elapsed - sum(inside for _result, inside in timed)
        return [result for result, _inside in timed]

    def merge_plans(*args, **kwargs):
        with recorder.span("shard.barrier"):
            return real_merge(*args, **kwargs)

    def build_state(*args, **kwargs):
        with recorder.span("shard.build_state"):
            return real_build(*args, **kwargs)

    pool.map_partitions = map_partitions
    engine.merge_plans = merge_plans
    engine.build_state = build_state
    try:
        yield counters
    finally:
        pool.map_partitions = real_map
        engine.merge_plans = real_merge
        engine.build_state = real_build


def layer_of(filename: str) -> str:
    """The ``src/repro/`` package a code object's file belongs to."""
    marker = "/repro/"
    at = filename.rfind(marker)
    if at < 0:
        return "other"
    package = filename[at + len(marker):].split("/", 1)[0]
    return package if package in LAYERS else "other"


def fold_profile(stats) -> Tuple[Dict[str, float], Dict[Tuple[str, str], int]]:
    """Fold ``cProfile.Profile.getstats()`` into self seconds per layer
    and call counts per ``(file suffix after /repro/, function name)``.

    A function defined under ``src/repro/`` charges its own time to its
    package.  Time inside a built-in or C function is charged to the
    function that called it.  A Python function defined elsewhere (stdlib,
    numpy) is charged to its callers' packages, in proportion to the time
    it spent under each caller, so ``json`` under the trace exporter counts
    as ``telemetry`` and ``random.sample`` under a view merge as ``brahms``;
    only code with no ``repro`` caller at all lands in ``other``.
    """
    own: Dict[object, float] = {}
    callers: Dict[object, List[Tuple[object, float]]] = {}
    calls: Dict[Tuple[str, str], int] = {}
    for entry in stats:
        code = entry.code
        if isinstance(code, str):
            continue
        own[code] = entry.inlinetime
        for sub in entry.calls or ():
            if isinstance(sub.code, str):
                own[code] += sub.inlinetime
            elif layer_of(sub.code.co_filename) == "other":
                callers.setdefault(sub.code, []).append((code, sub.inlinetime))
        at = code.co_filename.rfind("/repro/")
        if at >= 0:
            key = (code.co_filename[at + len("/repro/"):], code.co_name)
            calls[key] = calls.get(key, 0) + entry.callcount

    shares: Dict[object, Dict[str, float]] = {}

    def share_of(code) -> Dict[str, float]:
        """Which layers a function's time belongs to, as fractions."""
        if code in shares:
            return shares[code]
        layer = layer_of(code.co_filename)
        weights = [(caller, w) for caller, w in callers.get(code, ()) if w > 0.0]
        if layer != "other" or not weights:
            shares[code] = {layer: 1.0}
            return shares[code]
        shares[code] = {"other": 1.0}  # what a recursive cycle resolves to
        total = sum(w for _caller, w in weights)
        mix: Dict[str, float] = {}
        for caller, weight in weights:
            for name, fraction in share_of(caller).items():
                mix[name] = mix.get(name, 0.0) + fraction * weight / total
        shares[code] = mix
        return mix

    self_s = {layer: 0.0 for layer in LAYERS + ("other",)}
    for code, seconds in own.items():
        for layer, fraction in share_of(code).items():
            self_s[layer] += seconds * fraction
    return self_s, calls
