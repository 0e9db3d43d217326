"""The self-testing conformance suite: replay every committed vector.

Collection is data-driven: each ``vectors/*.vec`` file becomes one test
case that re-runs its embedded spec on the current code and requires the
byte-exact sections the vector records.  A code change that alters any
deterministic surface — protocol logic, RNG consumption order, telemetry
layout, metrics accounting — fails here with the drifted section named,
before it can silently rewrite history.

The negative tests prove the suite can actually fail: a perturbed
section is detected as drift, and a corrupted file is detected as an
integrity error naming the section.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.scenario import (
    CATALOG,
    VectorIntegrityError,
    generate_vector,
    read_vector,
    spec_from_dict,
    verify_vector,
    write_vector,
)
from repro.scenario.run import run_scenario
from repro.telemetry import TelemetryConfig

VECTOR_DIR = Path(__file__).resolve().parents[1] / "vectors"
VECTOR_PATHS = sorted(VECTOR_DIR.glob("*.vec"))


def test_commitment_floor():
    """The acceptance bar: at least 25 committed vectors, whole catalog."""
    assert len(VECTOR_PATHS) >= 25
    committed = {path.stem for path in VECTOR_PATHS}
    catalog = {entry["name"] for entry in CATALOG}
    assert catalog <= committed, f"missing vectors: {sorted(catalog - committed)}"


def test_coverage_axes():
    """Committed vectors span all three engines, faults, churn, membership
    and several adversary mixes — the acceptance criteria's axes."""
    specs = [read_vector(str(path))[1]["spec"] for path in VECTOR_PATHS]
    assert any(spec["engine"]["kind"] == "rounds" for spec in specs)
    assert any(spec["engine"]["kind"] == "events" for spec in specs)
    assert any(spec["engine"]["kind"] == "shard" for spec in specs)
    assert any(spec["faults"] for spec in specs)
    assert any(spec["churn"]["kind"] != "none" for spec in specs)
    assert any(spec["membership"] is not None for spec in specs)
    assert len({spec["adversary_strategy"] for spec in specs}) >= 2
    assert len({spec["topology"]["byzantine_fraction"] for spec in specs}) >= 4


@pytest.mark.parametrize(
    "path", VECTOR_PATHS, ids=[path.stem for path in VECTOR_PATHS]
)
def test_vector_replays_identically(path):
    result = verify_vector(str(path))
    assert result.ok, (
        f"{result.name} drifted in section(s) {sorted(result.drifted)}; "
        f"details: {json.dumps(result.details, sort_keys=True)[:2000]}"
    )


# -- a vector pins bytes; this pins that the mechanism under test ran ---------
#
# Each check reads one count off a finished run.  Mechanisms the per-node
# engines do not count yet (evicted ids, trusted swaps, probe pulls,
# poisoned injections, sketch-unbias drops, cycle charges — ROADMAP's
# run-report item) have no entry, so their catalog rows only get the
# "the protocol ran" floor.  The shard engine counts evictions and swaps
# (`shard.*`), so its RAPTEE rows are held to them; its two fault kinds are
# part of the round itself, not of an injector with recovery counters.


def _registry(run):
    return run.bundle.telemetry.registry


def _total(*names):
    return lambda run: sum(_registry(run).total(name) for name in names)


def _drops(cause):
    return lambda run: _registry(run).by_label("faults.drops", "cause").get(cause, 0)


def _not_ok(name):
    return lambda run: (
        _registry(run).total(name) - _registry(run).value(name, outcome="ok")
    )


_RECOVERED = _total("recovery.restores_from_seal", "recovery.reprovisions")

_FAULT_FIRED = {
    "loss-burst": [_drops("loss-burst")],
    "partition": [_drops("partition")],
    "eclipse": [_drops("eclipse")],
    "link": [_drops("link-loss")],
    "crash-restart": [_total("faults.crashes"), _RECOVERED],
    "enclave-crash": [_total("faults.enclave_crashes"), _RECOVERED],
    "sealed-blob-corruption": [_total("faults.blob_corruptions")],
    "attestation-outage": [_not_ok("attestation.verifications")],
    "provisioning-flakiness": [_not_ok("provisioning.attempts")],
    "epoch-rotation": [_total("membership.rotations")],
    "revocation-storm": [_total("membership.revocations")],
    "device-revocation": [_total("membership.revocations")],
    "provisioner-replica-crash": [_total("membership.replica_crashes")],
}


_SHARD_FAULT_FIRED = {
    # Catalog shard rows keep the base loss_rate at 0: a loss is the burst's.
    "loss-burst": [_total("network.messages_lost")],
    "crash-restart": [_total("faults.crashes")],
}


def _mechanism_checks(entry):
    """``[(what, count(run))]`` the entry's own spec says must be non-zero."""
    checks = [("rounds ran", _total("sim.rounds")),
              ("pushes delivered", _total("network.pushes_delivered"))]
    engine = entry.get("engine", {})
    on_shard = engine.get("kind") == "shard"
    fault_fired = _SHARD_FAULT_FIRED if on_shard else _FAULT_FIRED
    for fault in entry.get("faults", ()):
        checks.extend((fault["kind"], fired) for fired in fault_fired[fault["kind"]])
    if on_shard and entry["protocol"] == "raptee":
        checks.append(("trusted swaps", _total("shard.trusted_exchanges")))
        checks.append(("ids evicted", _total("shard.evicted_ids")))
    membership = entry.get("membership", {})
    if membership.get("join_rate") or membership.get("leave_rate"):
        checks.append(("trusted-set churn",
                       _total("membership.joins", "membership.leaves")))
    if "churn" in entry:
        population = entry["topology"]["n_nodes"]
        checks.append(("churn moved the population",
                       lambda run: _registry(run).value("sim.alive_nodes") != population))
    if entry["topology"].get("transport_encryption"):
        checks.append(("bytes encrypted",
                       lambda run: run.bundle.stats.bytes_encrypted))
    if "latency" in engine:
        checks.append(("round trips timed", _total("events.rtt_ms")))
    if "load" in engine:
        checks.append(("application requests", _total("load.requests")))
    return checks


@pytest.mark.parametrize("entry", CATALOG, ids=[entry["name"] for entry in CATALOG])
def test_named_mechanism_fired(entry):
    run = run_scenario(spec_from_dict(entry), telemetry=TelemetryConfig(tracing=False))
    silent = [what for what, count in _mechanism_checks(entry) if not count(run)]
    assert not silent, f"{entry['name']}: never fired inside the vector: {silent}"


class TestRunnerDetectsPerturbation:
    """Negative controls: the suite must be able to fail."""

    _SPEC = {
        "name": "perturb-probe",
        "protocol": "brahms",
        "seed": 5,
        "rounds": 3,
        "topology": {"n_nodes": 30, "byzantine_fraction": 0.1,
                     "view_ratio": 0.2},
    }

    def test_perturbed_section_reported_as_drift(self, tmp_path):
        vector_file = tmp_path / "probe.vec"
        sections = generate_vector(spec_from_dict(self._SPEC), str(vector_file))
        # An implementation whose pollution stats differ by one count must
        # fail verification on exactly that section.
        sections["pollution"]["network"]["pushes_sent"] += 1
        write_vector(str(vector_file), sections)
        result = verify_vector(str(vector_file))
        assert not result.ok
        assert set(result.drifted) == {"pollution"}
        detail = result.details["pollution"]
        recorded = detail["recorded"]["network"]["pushes_sent"]
        actual = detail["actual"]["network"]["pushes_sent"]
        assert recorded == actual + 1

    def test_perturbed_trace_digest_reported_as_drift(self, tmp_path):
        vector_file = tmp_path / "probe.vec"
        sections = generate_vector(spec_from_dict(self._SPEC), str(vector_file))
        sections["trace_digest"]["sha256"] = "0" * 64
        write_vector(str(vector_file), sections)
        result = verify_vector(str(vector_file))
        assert not result.ok
        assert set(result.drifted) == {"trace_digest"}

    def test_corrupted_section_bytes_fail_integrity(self, tmp_path):
        """Stale per-section digests (tampered payload) are an integrity
        failure naming the section, distinct from drift."""
        import pickle
        import zlib

        from repro.snapshot.format import write_envelope
        from repro.scenario.vectors import VECTOR_KIND

        vector_file = tmp_path / "probe.vec"
        generate_vector(spec_from_dict(self._SPEC), str(vector_file))
        header_meta, _sections = read_vector(str(vector_file))
        # Re-write the envelope with one section's bytes flipped but the
        # original digest table — a valid envelope whose section content
        # no longer matches its recorded checksum.
        raw = vector_file.read_bytes()
        newline = raw.index(b"\n", raw.index(b"\n") + 1) + 1
        payload = pickle.loads(zlib.decompress(raw[newline:]))
        text = payload["sections"]["final_views"]
        payload["sections"]["final_views"] = text.replace("[", "[ ", 1)
        write_envelope(
            str(vector_file), VECTOR_KIND,
            {
                "vector_version": header_meta["vector_version"],
                "scenario": header_meta["scenario"],
                "spec_version": header_meta["spec_version"],
                "section_sha256": header_meta["section_sha256"],
            },
            payload,
        )
        with pytest.raises(VectorIntegrityError) as excinfo:
            read_vector(str(vector_file))
        assert excinfo.value.section == "final_views"
        assert "final_views" in str(excinfo.value)
