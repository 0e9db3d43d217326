"""Self-checks of the perf ledger (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/ledger -q

One smoke run of the whole suite (N <= 200, <= 6 rounds) feeds most of
the checks.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run as ledger  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
CONTRACT = ledger.load_contract()
WORKLOADS = ledger.load_workloads()


def _run(*args):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, cwd=ROOT)


@pytest.fixture(scope="session")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    done = _run("--smoke", "--out", str(out))
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    return summary, json.loads(out.read_text()), out


@pytest.mark.parametrize("name", list(WORKLOADS["workloads"]))
@pytest.mark.parametrize("smoke_mode", [False, True])
def test_specs_load_through_spec_from_dict(name, smoke_mode):
    from repro.scenario import spec_from_dict

    entry = WORKLOADS["workloads"][name]
    spec = spec_from_dict(worker.workload_spec_dict(entry, 1, 1.0, smoke_mode))
    assert spec.topology.byzantine_fraction == 0.10
    if smoke_mode:
        assert spec.topology.n_nodes <= 200 and spec.rounds <= 6


def test_contract_names_and_workloads():
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    names += [w["name"] for w in CONTRACT["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS["workloads"])
    assert CONTRACT["run_seconds"] == WORKLOADS["nominal_seconds"]
    assert "setup_s" in {m["name"] for m in CONTRACT["end_to_end"]}
    assert all(m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    pool, inline = (WORKLOADS["workloads"][name]["spec"] for name in
                    ("shard-raptee-1k-pool", "shard-raptee-1k"))
    assert {**pool, "name": ""} == {**inline, "name": ""}


def test_every_declared_metric_is_measured_and_vice_versa(smoke):
    _summary, ledger_json, _path = smoke
    for mode, key in (("timed", "end_to_end"), ("traced", "per_layer")):
        declared = {m["name"] for m in CONTRACT[key]}
        measured = set()
        for runs in ledger_json["runs"].values():
            for report in runs[mode]:
                assert set(report["metrics"]) <= declared
                measured |= set(report["metrics"])
        assert measured == declared


def test_smoke_run_is_correct_and_traced_agrees_with_plain(smoke):
    summary, ledger_json, _path = smoke
    assert summary["correct"] is True and summary["failed"] == 0
    for name, runs in ledger_json["runs"].items():
        traced = runs["traced"][0]
        assert traced["mismatches"] == [], name
        assert traced["metrics"]["result.digest"] == traced["exact"]["result.digest"]
        assert 0.98 <= traced["metrics"]["engine.attributed_share"] <= 1.02, name
    events = ledger_json["runs"]["events-raptee-traced"]["traced"][0]["metrics"]
    assert events["telemetry.trace_events"] > 0
    brahms = ledger_json["runs"]["pernode-brahms-1k"]["traced"][0]["metrics"]
    assert brahms["crypto.bytes_encrypted"] == 0
    assert ledger_json["host"]["HAVE_NUMPY"] is True


def test_pool_and_inline_compute_the_same_thing(smoke):
    _summary, ledger_json, _path = smoke
    inline = ledger_json["runs"]["shard-raptee-1k"]["timed"][0]["exact"]
    pool = ledger_json["runs"]["shard-raptee-1k-pool"]["timed"][0]["exact"]
    assert inline == pool


def test_span_self_times_sum_to_their_parent(smoke):
    _summary, ledger_json, _path = smoke
    for name, runs in ledger_json["runs"].items():
        spans = runs["traced"][0]["spans"]
        assert [s["name"] for s in spans if s["parent"] == -1] == [
            "workload.setup", "workload.run"], name
        recorder = tracing.SpanRecorder()
        recorder.spans = [[s["name"], s["start"], s["end"], s["parent"]]
                          for s in spans]
        selfs = recorder.self_times()
        for index, span in enumerate(spans):
            below = sum(selfs[i] for i in _subtree(spans, index))
            assert below == pytest.approx(span["end"] - span["start"]), name
            assert selfs[index] >= 0.0
            if span["parent"] >= 0:
                parent = spans[span["parent"]]
                assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]


def _subtree(spans, root):
    members = {root}
    for index, span in enumerate(spans):  # parents precede children
        if span["parent"] in members:
            members.add(index)
    return members


def test_span_recorder_self_time_rule():
    recorder = tracing.SpanRecorder()
    recorder.spans = [["root", 0.0, 10.0, -1], ["a[0]", 1.0, 4.0, 0],
                      ["a[1]", 5.0, 6.0, 0], ["b", 2.0, 3.0, 1]]
    assert recorder.self_times() == [6.0, 2.0, 1.0, 1.0]
    assert recorder.self_by_name() == {"root": 6.0, "a": 3.0, "b": 1.0}


def test_driver_interface_prints_exactly_the_declared_metrics():
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        done = _run("--workload", "shard-brahms-4k", "--seed", "7",
                    "--seconds", "10", "--trace", trace, "--smoke")
        assert done.returncode == 0, done.stderr
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["attempted"] >= 1
        assert list(last["metrics"]) == [m["name"] for m in CONTRACT[key]]
        for metric in CONTRACT[key]:
            assert last["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_verdicts():
    tight = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert ledger.verdict(tight, [v * 1.3 for v in tight], "lower", 0.1) == "worse"
    assert ledger.verdict(tight, [v * 0.8 for v in tight], "lower", 0.1) == "better"
    assert ledger.verdict(tight, [v * 1.3 for v in tight], "higher", 0.1) == "better"
    assert ledger.verdict(tight, [v * 1.02 for v in tight], "lower", 0.1) == "unchanged"
    noisy = [10.0, 14.0, 8.0, 12.0, 9.0]
    assert ledger.verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.1) == "unresolved"
    assert ledger.verdict([10.0], [10.5], "lower", 0.1) == "unchanged"
    assert ledger.verdict([10.0], [12.0], "lower", 0.1) == "worse"


def test_compare_exit_codes(smoke, tmp_path):
    _summary, ledger_json, path = smoke
    assert _run("compare", str(path), str(path)).returncode == 0
    slower = json.loads(json.dumps(ledger_json))
    report = slower["runs"]["pernode-brahms-1k"]["timed"][0]
    report["metrics"]["run_s"] *= 2.0
    report["exact"]["result.digest"] += 1
    other = tmp_path / "slower.json"
    other.write_text(json.dumps(slower))
    done = _run("compare", str(path), str(other))
    assert done.returncode == 1
    assert "run_s" in done.stdout and "worse" in done.stdout
    assert "result.digest [timed] differs" in done.stdout
