"""The layered perf ledger: one command for every workload and metric.

    python benchmarks/ledger/run.py [--workload NAME] [--trace 0|1]
        [--seed N] [--seconds S] [--smoke] [--repeat K] [--out FILE]
    python benchmarks/ledger/run.py compare A.json B.json

Without ``--workload`` every workload runs; without ``--trace`` both the
timed run (end-to-end metrics, tracing off) and the traced run (per-layer
metrics) run.  Each run is one fresh ``worker.py`` process.  Names, units,
directions and bounds come from ``BENCHMARK.json`` at the repo root; a
metric the worker prints and that file does not declare is an error.

The last line of stdout is one JSON object.  For one workload and one
``--trace`` value it is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_workloads() -> dict:
    return json.loads((HERE / "workloads.json").read_text())


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def run_worker(workload: str, mode: str, seed: int, scale: float, smoke: bool,
               shards: Optional[int] = None) -> dict:
    """One workload in one fresh child process; its JSON report."""
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--mode", mode, "--seed", str(seed), "--scale", repr(scale)]
    if smoke:
        command.append("--smoke")
    if shards is not None:
        command += ["--shards", str(shards)]
    # A fixed hash seed keeps set/dict iteration, and so memory layout and
    # timing, the same from run to run.
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload} ({mode}) failed with exit code "
                         f"{done.returncode}; no numbers reported")
    return json.loads(done.stdout.strip().splitlines()[-1])


def host_record(seed: int) -> dict:
    import numpy

    from repro.shard.state import HAVE_NUMPY

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "HAVE_NUMPY": HAVE_NUMPY,
        "git_commit": git.stdout.strip() if git.returncode == 0 else "unknown",
        "seed": seed,
    }


def declared_metrics(contract: dict, mode: str) -> Dict[str, str]:
    key = "end_to_end" if mode == "timed" else "per_layer"
    return {metric["name"]: metric["unit"] for metric in contract[key]}


def with_units(report: dict, units: Dict[str, str]) -> Dict[str, dict]:
    """The report's metrics as ``{name: {value, unit}}`` over exactly the
    declared names.  A per-layer metric a workload's path never crosses
    (``shard.plan_s`` on the per-node engine) reads 0."""
    metrics = report["metrics"]
    undeclared = sorted(set(metrics) - set(units))
    if undeclared:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {undeclared}")
    if report["mode"] == "timed":
        missing = sorted(set(units) - set(metrics))
        if missing:
            raise SystemExit(f"end-to-end metrics not measured: {missing}")
    return {name: {"value": metrics.get(name, 0), "unit": unit}
            for name, unit in units.items()}


def print_report(report: dict, metrics: Dict[str, dict]) -> None:
    print(f"== {report['workload']} [{report['mode']}] N={report['n_nodes']} "
          f"rounds={report['rounds']} seed={report['seed']} "
          f"samples={report['samples']} "
          f"ops_failed_share={report['failed']}/{report['attempted']}")
    for name, metric in metrics.items():
        if name not in report["metrics"]:
            continue  # not on this workload's path; 0 in the JSON line
        value = metric["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<32} {shown:>16} {metric['unit']}")
    if "raw_wall" in report:
        print("  raw wall: " + ", ".join(
            f"{name}={value:.6g}" for name, value in report["raw_wall"].items()))


def smoke_shard_crosscheck(report: dict) -> bool:
    """shards=1 must compute what the workload's shards=4 run computed."""
    single = run_worker(report["workload"], "timed", report["seed"], 1.0, True,
                        shards=1)["exact"]["result.digest"]
    sharded = report["exact"]["result.digest"]
    agree = single == sharded
    print(f"== shard-count cross-check: shards=1 digest {single}, "
          f"shards=4 digest {sharded}: {'equal' if agree else 'DIFFERENT'}")
    return agree


def run_suite(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print("src/repro is not in this checkout: nothing to benchmark",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy  # noqa: F401
    except ImportError:
        print("numpy is missing: refusing to benchmark the pure-Python "
              "fallback", file=sys.stderr)
        return 3
    contract = load_contract()
    config = load_workloads()
    names = [args.workload] if args.workload else list(config["workloads"])
    modes = {None: ("timed", "traced"), 0: ("timed",), 1: ("traced",)}[args.trace]
    scale = args.seconds / config["nominal_seconds"]

    runs: Dict[str, dict] = {}
    correct, attempted, failed = True, 0, 0
    last_metrics: Dict[str, dict] = {}
    for name in names:
        runs[name] = {}
        for mode in modes:
            repeats = args.repeat if mode == "timed" else 1
            reports = [run_worker(name, mode, args.seed, scale, args.smoke)
                       for _ in range(repeats)]
            units = declared_metrics(contract, mode)
            for report in reports:
                last_metrics = with_units(report, units)
                print_report(report, last_metrics)
                attempted += report["attempted"]
                failed += report["failed"]
            runs[name][mode] = reports
    if args.smoke and "timed" in runs.get("shard-raptee-1k", ()):
        correct = smoke_shard_crosscheck(runs["shard-raptee-1k"]["timed"][0])
    correct = correct and failed == 0

    if args.out:
        Path(args.out).write_text(json.dumps({
            "host": host_record(args.seed),
            "smoke": args.smoke,
            "seconds": args.seconds,
            "runs": runs,
        }, indent=1, sort_keys=True))
    summary = {"correct": correct, "attempted": attempted, "failed": failed}
    if len(names) == 1 and len(modes) == 1:
        summary["metrics"] = last_metrics
    else:
        summary["metrics"] = {}
        print("(suite run: per-workload metrics are printed above"
              + (f" and written to {args.out})" if args.out else ")"))
    print(json.dumps(summary))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# Comparing two ledgers
# ---------------------------------------------------------------------------

def _spread(values: List[float]) -> float:
    """Inter-quartile range as a share of the median (0 below 4 samples)."""
    if len(values) < 4:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(before: List[float], after: List[float], better: str,
            bound: float) -> str:
    """better / worse / unchanged / unresolved for one metric on one
    workload, by the rule in the choosing-metrics guide."""
    sign = 1.0 if better == "higher" else -1.0
    base = statistics.median(before)
    gain = sign * (statistics.median(after) - base) / base
    pairs = [sign * (b - a) for a in before for b in after]
    separated = all(p > 0 for p in pairs) or all(p < 0 for p in pairs)
    if max(_spread(before), _spread(after)) > bound and not separated:
        return "unresolved"
    if gain < -bound:
        return "worse"
    # With too few runs to know the parent's own spread, the bound is the
    # noise estimate.
    noise = _spread(before) if len(before) >= 4 else bound
    return "better" if gain > noise else "unchanged"


def compare(path_a: str, path_b: str) -> int:
    contract = load_contract()
    ledger_a = json.loads(Path(path_a).read_text())
    ledger_b = json.loads(Path(path_b).read_text())
    any_worse = False
    for name in ledger_a["runs"]:
        if name not in ledger_b["runs"]:
            print(f"{name}: only in {path_a}")
            continue
        runs_a, runs_b = ledger_a["runs"][name], ledger_b["runs"][name]
        for metric in contract["end_to_end"]:
            key = metric["name"]
            before = [r["metrics"][key] for r in runs_a.get("timed", ())]
            after = [r["metrics"][key] for r in runs_b.get("timed", ())]
            if not before or not after:
                continue
            outcome = verdict(before, after, metric["better"], metric["bound"])
            any_worse |= outcome == "worse"
            print(f"{name:<24} {key:<20} {statistics.median(before):>12.5g} -> "
                  f"{statistics.median(after):>12.5g} {metric['unit']:<6} "
                  f"(n={len(before)}/{len(after)}, bound {metric['bound']:.0%}) "
                  f"{outcome}")
        for mode in ("timed", "traced"):
            reports_a, reports_b = runs_a.get(mode), runs_b.get(mode)
            if not reports_a or not reports_b:
                continue
            share_a = sum(r["failed"] for r in reports_a) / sum(
                r["attempted"] for r in reports_a)
            share_b = sum(r["failed"] for r in reports_b) / sum(
                r["attempted"] for r in reports_b)
            if share_b > share_a:
                any_worse = True
                print(f"{name:<24} ops_failed_share [{mode}] {share_a:.4g} -> "
                      f"{share_b:.4g} worse")
            exact_a, exact_b = reports_a[0]["exact"], reports_b[0]["exact"]
            for key in sorted(set(exact_a) | set(exact_b)):
                if exact_a.get(key) != exact_b.get(key):
                    print(f"{name:<24} {key} [{mode}] differs: "
                          f"{exact_a.get(key)} != {exact_b.get(key)}")
    return 1 if any_worse else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a")
        parser.add_argument("b")
        args = parser.parse_args(argv[1:])
        return compare(args.a, args.b)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=list(load_workloads()["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=load_workloads()["nominal_seconds"],
                        help="nominal measured seconds per run; every "
                             "workload's rounds scale with it")
    parser.add_argument("--smoke", action="store_true",
                        help="same shapes, N <= 200, <= 6 rounds")
    parser.add_argument("--repeat", type=int, default=1,
                        help="timed runs per workload (gives compare a spread)")
    parser.add_argument("--out", help="write the full ledger as JSON here")
    return run_suite(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
