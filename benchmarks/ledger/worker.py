"""One workload, measured in this (fresh) process.

``run.py`` starts one of these per workload so that peak RSS, GC state and
import state never leak between workloads.  Two modes:

* ``timed`` — tracing and profiling off: set-up timed several times, the
  workload's fixed rounds stepped one at a time, invariants checked from
  public state after every round (outside the timed intervals);
* ``traced`` — a third of the rounds, run twice from the same spec: once
  plain, once under spans (shard engine) or ``cProfile`` (per-node and
  events engines).  The two runs must agree on the result digest and on
  every exact count; their per-round medians give the tracing overhead.

Prints one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import copy
import cProfile
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import tracing  # noqa: E402  (path set up above)
from hostspeed import HostSpeed  # noqa: E402

MIB = float(1 << 20)


# ---------------------------------------------------------------------------
# Workload specs
# ---------------------------------------------------------------------------

def load_workloads() -> dict:
    return json.loads((HERE / "workloads.json").read_text())


def workload_spec_dict(entry: dict, seed: int, scale: float, smoke: bool,
                       rounds_divisor: int = 1) -> dict:
    """The plain spec dict a workload entry describes for this run.

    ``seed`` is added to the spec seed; ``scale`` (``--seconds`` over the
    nominal run length) multiplies every workload's rounds by one common
    factor; ``smoke`` swaps in the small population and round count.
    """
    spec = copy.deepcopy(entry["spec"])
    spec["seed"] += seed
    if smoke:
        spec["topology"]["n_nodes"] = entry["smoke"]["n_nodes"]
        spec["rounds"] = entry["smoke"]["rounds"]
    else:
        spec["rounds"] = max(3, round(spec["rounds"] * scale))
    spec["rounds"] = max(2, spec["rounds"] // rounds_divisor)
    return spec


# ---------------------------------------------------------------------------
# Engines: build a runnable simulation, step it round by round
# ---------------------------------------------------------------------------

#: Share of each round's duration spent timing the host-speed kernel
#: after it, so the kernel samples the host over the whole run.
HOST_SPEED_SHARE = 0.05


class RoundClock:
    """Times each of ``rounds`` rounds.  Between rounds, outside the timed
    intervals, it runs ``check`` and samples ``host_speed``; with a
    ``recorder`` it records each round as a span, so spans opened inside a
    round become its children."""

    def __init__(self, rounds: int, check: Optional[Callable[[], None]] = None,
                 host_speed: Optional[HostSpeed] = None,
                 recorder: Optional[tracing.SpanRecorder] = None):
        self.rounds = rounds
        self.durations: List[float] = []
        self.failed_rounds = 0
        self._check = check
        self._host_speed = host_speed
        self._recorder = recorder
        self._mark = 0.0

    def start(self) -> None:
        if self._recorder is not None:
            self._recorder.open(f"engine.round[{len(self.durations)}]")
        self._mark = time.perf_counter()

    def lap(self) -> None:
        self.durations.append(time.perf_counter() - self._mark)
        if self._recorder is not None:
            self._recorder.close()
        if self._check is not None:
            try:
                self._check()
            except InvariantError as error:
                self.failed_rounds += 1
                print(f"round {len(self.durations)}: {error}", file=sys.stderr)
        if self._host_speed is not None:
            self._host_speed.spend(HOST_SPEED_SHARE * self.durations[-1])
        if len(self.durations) < self.rounds:
            self.start()

    # Observer protocol of the per-node engines.
    def on_round_end(self, _simulation) -> None:
        self.lap()


class InvariantError(Exception):
    """A round left public state in a shape the protocol forbids."""


class PerNodeRun:
    """``repro.sim`` rounds engine or ``repro.events`` continuous clock."""

    def __init__(self, spec, _workers: int):
        from repro.scenario.compile import compile_spec, event_options_from_spec

        self.spec = spec
        self.bundle = compile_spec(spec)
        self.simulation = self.bundle.simulation
        self.telemetry = None
        self.events = None
        self.export_s = 0.0
        self.trace_bytes = 0
        options = event_options_from_spec(spec)
        if options is not None:
            # Wired the way repro.scenario.run_scenario wires a spec:
            # telemetry with message and ECALL tracing first, events last.
            from repro.events.harness import wire_events
            from repro.telemetry import TelemetryConfig, wire_telemetry

            self.telemetry = wire_telemetry(
                self.bundle,
                TelemetryConfig(tracing=True, trace_messages=True, trace_ecalls=True),
            ).telemetry
            self.events = wire_events(self.bundle, options)

    def run(self, clock: RoundClock) -> None:
        clock.start()
        if self.events is not None:
            self.events.run(clock.rounds, extra_observers=[clock])
            self._export()
            return
        observers = self.bundle.observer_stack()
        for _ in range(clock.rounds):
            self.simulation.run(1, observers=observers)
            clock.lap()

    def _export(self) -> None:
        from repro.telemetry import metrics_to_csv, trace_to_jsonl

        start = time.perf_counter()
        jsonl = trace_to_jsonl(self.telemetry.trace.events)
        csv = metrics_to_csv(self.telemetry.registry)
        self.export_s = time.perf_counter() - start
        self.trace_bytes = len(jsonl) + len(csv)

    def check(self) -> None:
        n = self.spec.topology.n_nodes
        limit = self.spec.topology.brahms_config().view_size
        nodes = self.simulation.nodes
        if len(nodes) != n or sum(1 for node in nodes.values() if node.alive) != n:
            raise InvariantError(f"expected {n} alive nodes")
        for node_id, node in nodes.items():
            if node.kind.is_byzantine:
                continue
            view = node.view_ids()
            # A trusted swap keeps what it received and drops what it
            # sent, so trusted views legitimately drift off l1 mid-cycle.
            if len(view) > limit and not node.kind.runs_trusted_code:
                raise InvariantError(f"node {node_id}: view longer than {limit}")
            for peer in view:
                if peer == node_id or not 0 <= peer < n:
                    raise InvariantError(f"node {node_id}: bad view entry {peer}")

    def counts(self) -> Dict[str, float]:
        stats = self.simulation.network.stats
        counts = {
            "sim.pushes_sent": stats.pushes_sent,
            "sim.requests_sent": stats.requests_sent,
            "sim.replies_delivered": stats.replies_delivered,
            "sim.messages_lost": stats.messages_lost,
            "crypto.bytes_encrypted": stats.bytes_encrypted,
        }
        if self.events is not None:
            engine = self.events.engine
            counts["events.scheduled"] = engine.queue.scheduled_total
            counts["events.late_fraction"] = engine.late_fraction
            counts["telemetry.trace_events"] = len(self.telemetry.trace.events)
        return counts

    def result(self) -> Dict[str, float]:
        views = self.simulation.final_views()
        byzantine = self.simulation.byzantine_ids
        entries = sum(len(view) for view in views.values())
        polluted = sum(1 for view in views.values() for peer in view
                       if peer in byzantine)
        stats = self.simulation.network.stats
        digest = hashlib.sha256()
        digest.update(repr(sorted(views.items())).encode())
        for record in self.bundle.trace.records:
            digest.update(repr(sorted(record.byzantine_fraction.items())).encode())
        digest.update(repr((
            stats.pushes_sent, stats.pushes_delivered, stats.requests_sent,
            stats.replies_delivered, stats.messages_lost, stats.bytes_encrypted,
        )).encode())
        return _result(polluted, entries, digest)


class ShardRun:
    """``repro.shard`` struct-of-arrays engine."""

    export_s = 0.0  # exports nothing

    def __init__(self, spec, workers: int):
        from repro.scenario.compile import shard_simulation_from_spec

        self.spec = spec
        self.simulation = shard_simulation_from_spec(spec, workers=workers)

    def run(self, clock: RoundClock) -> None:
        clock.start()
        for _ in range(clock.rounds):
            self.simulation.run_round()
            clock.lap()

    def check(self) -> None:
        import numpy as np

        config, state = self.simulation.config, self.simulation.state
        n, limit = config.n_nodes, config.view_size
        if int(state.alive.sum()) != n:
            raise InvariantError(f"expected {n} alive nodes")
        lens = state.view_len[config.n_byzantine:]
        rows = state.view[config.n_byzantine:]
        if int(lens.max()) > limit:
            raise InvariantError(f"a view is longer than {limit}")
        filled = np.arange(rows.shape[1])[None, :] < lens[:, None]
        own = np.arange(config.n_byzantine, n)[:, None]
        if bool((filled & ((rows < 0) | (rows >= n) | (rows == own))).any()):
            raise InvariantError("a view holds its owner or an id out of range")

    def counts(self) -> Dict[str, float]:
        stats, state = self.simulation.stats, self.simulation.state
        return {
            "shard.pushes_sent": stats.pushes_sent,
            "shard.requests_sent": stats.requests_sent,
            "shard.messages_lost": stats.messages_lost,
            "crypto.bytes_encrypted": stats.bytes_encrypted,
            "shard.renewals": state.renewals,
            "shard.blocked_rounds": state.blocked_rounds,
            "shard.sampler_resets": state.sampler_resets,
            "shard.evicted_ids": state.evicted_ids,
            "shard.trusted_exchanges": state.trusted_exchanges,
        }

    def result(self) -> Dict[str, float]:
        simulation = self.simulation
        stats = simulation.stats
        last = simulation.trace_records[-1]
        digest = hashlib.sha256()
        digest.update(repr(sorted(simulation.final_views().items())).encode())
        digest.update(json.dumps(simulation.trace_records, sort_keys=True).encode())
        digest.update(repr((
            stats.pushes_sent, stats.pushes_delivered, stats.requests_sent,
            stats.replies_delivered, stats.messages_lost, stats.bytes_encrypted,
        )).encode())
        return _result(last["byz_entries"], last["view_entries"], digest)


def _result(polluted: int, entries: int, digest) -> Dict[str, float]:
    return {
        "result.byz_view_share_final": polluted / entries if entries else 0.0,
        # 48 bits of the sha256: exact in a JSON number.
        "result.digest": int(digest.hexdigest()[:12], 16),
    }


def build(spec_dict: dict, workers: int):
    """Spec dict → runnable simulation (what ``setup_s`` times)."""
    from repro.scenario import spec_from_dict

    spec = spec_from_dict(spec_dict)
    run_class = ShardRun if spec.engine.kind == "shard" else PerNodeRun
    return run_class(spec, workers)


# ---------------------------------------------------------------------------
# Timed mode
# ---------------------------------------------------------------------------

#: Set-up is repeated at least this often, and then until this many
#: seconds went into it (or the cap), so short set-ups get more samples.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 9
SETUP_BUDGET_S = 2.0


def _exact(run) -> Dict[str, float]:
    """Everything a run reports that must repeat exactly."""
    return dict(run.counts(), **run.result())


def timed(entry: dict, spec_dict: dict) -> dict:
    workers = entry["workers"]
    host_speed = HostSpeed()
    start = time.perf_counter()
    run = build(spec_dict, workers)
    setups = [time.perf_counter() - start]

    clock = RoundClock(spec_dict["rounds"], check=run.check, host_speed=host_speed)
    gc.collect()
    host_speed.slice()
    run.run(clock)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run_s = sum(clock.durations) + run.export_s
    exact = _exact(run)

    del run
    while len(setups) < SETUP_MIN_REPEATS or (
        len(setups) < SETUP_MAX_REPEATS and sum(setups) < SETUP_BUDGET_S
    ):
        # A fresh seed each time: key generation time depends on the seed,
        # and the median should not hinge on one lucky prime search.
        again = dict(spec_dict, seed=spec_dict["seed"] + len(setups))
        gc.collect()
        start = time.perf_counter()
        build(again, workers)
        setups.append(time.perf_counter() - start)
        host_speed.spend(HOST_SPEED_SHARE * setups[-1])

    raw = {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "round_p50_ms": 1000.0 * statistics.median(clock.durations),
    }
    # Reference-host seconds: wall seconds over how slow the host ran
    # while they were measured (see hostspeed.py).
    factor = host_speed.factor()
    metrics = {name: value / factor for name, value in raw.items()}
    metrics["node_rounds_per_s"] = (
        spec_dict["topology"]["n_nodes"] * clock.rounds / metrics["run_s"]
    )
    metrics["peak_rss_mib"] = peak_rss_mib
    return {
        "attempted": clock.rounds,
        "failed": clock.failed_rounds,
        "metrics": metrics,
        "raw_wall": dict(raw, host_factor=factor),
        "series": {"round_s": clock.durations, "setup_s": setups},
        "exact": exact,
        "samples": {"rounds": clock.rounds, "setups": len(setups),
                    "host_speed_slices": len(host_speed.slices)},
    }


# ---------------------------------------------------------------------------
# Traced mode
# ---------------------------------------------------------------------------

def _traced_shard(entry: dict, spec_dict: dict, recorder: tracing.SpanRecorder):
    with tracing.shard_spans(recorder) as pool:
        with recorder.span("workload.setup"):
            run = build(spec_dict, entry["workers"])
        clock = RoundClock(spec_dict["rounds"], recorder=recorder)
        gc.collect()
        with recorder.span("workload.run"):
            run.run(clock)
    selfs = recorder.self_by_name()
    layers = {
        "shard.build_state_s": selfs["shard.build_state"],
        "shard.plan_s": selfs["shard.plan"],
        "shard.barrier_s": selfs["shard.barrier"],
        "shard.apply_s": selfs["shard.apply"],
        "shard.close_s": selfs["engine.round"],
        "shard.pool.task_mib_per_round": pool.task_bytes / MIB / clock.rounds,
        "shard.pool.pickle_s": selfs.get("shard.pool.pickle", 0.0),
        "shard.pool.overhead_s": pool.overhead_s,
    }
    attributed = sum(layers[name] for name in (
        "shard.plan_s", "shard.barrier_s", "shard.apply_s", "shard.close_s",
        "shard.pool.pickle_s"))
    return run, clock, layers, attributed


def _traced_profile(entry: dict, spec_dict: dict, recorder: tracing.SpanRecorder):
    profile = cProfile.Profile()
    with recorder.span("workload.setup"):
        profile.enable()
        run = build(spec_dict, entry["workers"])
        profile.disable()
    setup_self, _calls = tracing.fold_profile(profile.getstats())

    # No invariant checks in this run: they would be profiled as the
    # workload's own work.  The plain run of the same spec checks every
    # round, and the two runs must agree on the digest.
    clock = RoundClock(spec_dict["rounds"], recorder=recorder)
    gc.collect()
    profile = cProfile.Profile()
    with recorder.span("workload.run"):
        profile.enable()
        run.run(clock)
        profile.disable()
    self_s, calls = tracing.fold_profile(profile.getstats())
    kib = run.counts()["crypto.bytes_encrypted"] / 1024.0
    layers = {f"{layer}.self_s": seconds for layer, seconds in self_s.items()
              if layer != "shard"}
    layers.update({
        "crypto.setup_self_s": setup_self["crypto"],
        "sgx.setup_self_s": setup_self["sgx"],
        "crypto.encrypt_calls": calls.get(("crypto/ctr.py", "keystream"), 0),
        "brahms.sampler_updates": calls.get(("brahms/sampler.py", "update"), 0),
        "core.trusted_exchanges":
            calls.get(("core/trusted_exchange.py", "apply_swap"), 0),
        "sgx.ecalls": calls.get(("sgx/enclave.py", "_ecall_proxy"), 0),
        "crypto.us_per_kib": 1e6 * self_s["crypto"] / kib if kib else 0.0,
        "brahms.us_per_node_round":
            1e6 * self_s["brahms"] / (run.spec.topology.n_nodes * clock.rounds),
        "telemetry.export_s": run.export_s,
        "telemetry.trace_mib": run.trace_bytes / MIB,
    })
    return run, clock, layers, sum(self_s.values())


def traced(entry: dict, spec_dict: dict) -> dict:
    host_speed = HostSpeed()
    plain = build(spec_dict, entry["workers"])
    plain_clock = RoundClock(spec_dict["rounds"], check=plain.check,
                             host_speed=host_speed)
    gc.collect()
    plain.run(plain_clock)
    plain_exact = _exact(plain)
    is_shard = isinstance(plain, ShardRun)
    del plain

    recorder = tracing.SpanRecorder()
    tracer = _traced_shard if is_shard else _traced_profile
    run, clock, layers, attributed = tracer(entry, spec_dict, recorder)
    exact = _exact(run)
    mismatches = sorted(name for name in exact if exact[name] != plain_exact[name])
    for name in mismatches:
        print(f"traced run disagrees on {name}: {exact[name]} != "
              f"{plain_exact[name]}", file=sys.stderr)

    spans = recorder.as_dicts()
    traced_run_s = sum(clock.durations) + run.export_s
    metrics = dict(layers, **exact)
    if is_shard:
        renewals, blocked = exact["shard.renewals"], exact["shard.blocked_rounds"]
        metrics["shard.renewal_ratio"] = renewals / (renewals + blocked)
    metrics.update({
        "scenario.compile_s": spans[0]["end"] - spans[0]["start"],
        "engine.first_round_s": plain_clock.durations[0],
        "engine.round_samples": clock.rounds,
        "engine.trace_overhead_ratio": (
            statistics.median(clock.durations)
            / statistics.median(plain_clock.durations)
        ),
        # Per-layer seconds are raw wall seconds; this says how slow the
        # host ran beside them (see hostspeed.py).
        "engine.host_factor": host_speed.factor(),
        "engine.traced_run_s": traced_run_s,
        "engine.attributed_share": attributed / traced_run_s,
    })
    return {
        "attempted": clock.rounds,
        # A traced run that computes something else than the plain run
        # fails every round; otherwise the plain run's checks decide.
        "failed": clock.rounds if mismatches else plain_clock.failed_rounds,
        "metrics": metrics,
        "exact": exact,
        "mismatches": mismatches,
        "samples": {"rounds": clock.rounds},
        "spans": spans,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--mode", choices=("timed", "traced"), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--shards", type=int, default=None,
                        help="override engine.shards (the smoke cross-check)")
    args = parser.parse_args(argv)

    from repro.shard.state import HAVE_NUMPY

    if not HAVE_NUMPY:
        print("numpy is missing: refusing to benchmark the pure-Python "
              "fallback", file=sys.stderr)
        return 3
    entry = load_workloads()["workloads"][args.workload]
    spec_dict = workload_spec_dict(
        entry, args.seed, args.scale, args.smoke,
        rounds_divisor=3 if args.mode == "traced" else 1,
    )
    if args.shards is not None:
        spec_dict["engine"]["shards"] = args.shards
    report = (timed if args.mode == "timed" else traced)(entry, spec_dict)
    report.update(workload=args.workload, mode=args.mode, seed=args.seed,
                  n_nodes=spec_dict["topology"]["n_nodes"],
                  rounds=spec_dict["rounds"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
