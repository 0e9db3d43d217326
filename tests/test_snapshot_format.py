"""Unit tests for the snapshot envelope, capture layer and seed store."""

from __future__ import annotations

import copy
import hashlib
import json
import pickle
import random
import zlib

import pytest

from repro.cli import main
from repro.crypto.prng import Sha256Prng
from repro.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    SeedResultStore,
    SnapshotError,
    SnapshotVersionError,
    describe,
    restore,
    run_with_checkpoints,
    save,
)
from repro.snapshot.format import (
    SNAPSHOT_MAGIC,
    read_envelope,
    read_header,
    write_envelope,
)
from repro.telemetry import Telemetry, TraceEvent


def _small_bundle(seed=3, rounds=0):
    from repro.experiments.scenarios import TopologySpec
    from repro.scenario import ScenarioSpec, compile_spec

    topology = TopologySpec(n_nodes=12, byzantine_fraction=0.0, view_ratio=0.3)
    return compile_spec(ScenarioSpec(
        name="snapshot-unit", protocol="brahms", seed=seed, rounds=rounds,
        topology=topology,
    ))


def _write_sample(path, state=None, kind="unit-test", meta=None):
    write_envelope(str(path), kind, meta or {"label": "x"}, state or {"a": 1})


def _rewrite_header(path, mutate):
    """Parse the header line, apply ``mutate``, and write the file back."""
    blob = path.read_bytes()
    body = blob[len(SNAPSHOT_MAGIC):]
    header_line, payload = body.split(b"\n", 1)
    header = json.loads(header_line)
    mutate(header)
    path.write_bytes(
        SNAPSHOT_MAGIC + json.dumps(header, sort_keys=True).encode() + b"\n" + payload
    )


class TestEnvelope:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "state.snapshot"
        _write_sample(path, state={"rounds": [1, 2, 3]}, meta={"label": "demo"})
        header, state = read_envelope(str(path), expected_kind="unit-test")
        assert state == {"rounds": [1, 2, 3]}
        assert header["format_version"] == SNAPSHOT_FORMAT_VERSION
        assert header["meta"] == {"label": "demo"}

    def test_header_readable_without_unpickling(self, tmp_path):
        path = tmp_path / "state.snapshot"
        _write_sample(path)
        # Corrupt the payload: the header must still parse fine.
        path.write_bytes(path.read_bytes()[:-4] + b"\xff\xff\xff\xff")
        header = read_header(str(path))
        assert header["kind"] == "unit-test"

    def test_version_mismatch_rejected_with_clear_error(self, tmp_path):
        path = tmp_path / "state.snapshot"
        _write_sample(path)
        _rewrite_header(path, lambda h: h.update(format_version=99))
        with pytest.raises(SnapshotVersionError, match="version 99"):
            read_header(str(path))
        with pytest.raises(SnapshotVersionError, match=str(SNAPSHOT_FORMAT_VERSION)):
            read_envelope(str(path))

    def test_missing_version_rejected(self, tmp_path):
        path = tmp_path / "state.snapshot"
        _write_sample(path)
        _rewrite_header(path, lambda h: h.pop("format_version"))
        with pytest.raises(SnapshotVersionError):
            read_header(str(path))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "state.snapshot"
        path.write_bytes(b"definitely not a snapshot")
        with pytest.raises(SnapshotError, match="bad magic"):
            read_header(str(path))

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "state.snapshot"
        _write_sample(path, kind="other-kind")
        with pytest.raises(SnapshotError, match="expected 'unit-test'"):
            read_envelope(str(path), expected_kind="unit-test")

    def test_corrupt_payload_fails_checksum(self, tmp_path):
        path = tmp_path / "state.snapshot"
        _write_sample(path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="checksum"):
            read_envelope(str(path))

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "state.snapshot"
        _write_sample(path)
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(SnapshotError, match="truncated"):
            read_envelope(str(path))

    def test_unpicklable_state_raises_snapshot_error(self, tmp_path):
        path = tmp_path / "state.snapshot"
        with pytest.raises(SnapshotError, match="closure or lambda"):
            write_envelope(str(path), "unit-test", {}, lambda: None)
        # The atomic write never left a partial file behind.
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []


class TestPrngPickleFidelity:
    """PRNG streams must continue, not restart, across the pickle seam."""

    def test_sha256_prng_resumes_mid_stream(self):
        prng = Sha256Prng(0xC0FFEE)
        for _ in range(13):
            prng.random()
        clone = pickle.loads(pickle.dumps(prng))
        assert [clone.random() for _ in range(50)] == [
            prng.random() for _ in range(50)
        ]

    def test_mersenne_twister_resumes_mid_stream(self):
        rng = random.Random(42)
        rng.random()
        clone = pickle.loads(pickle.dumps(rng))
        assert [clone.random() for _ in range(50)] == [
            rng.random() for _ in range(50)
        ]


class TestTraceLayout:
    def test_old_layout_trace_refuses_to_resume(self, tmp_path):
        # The layout checkpoints held before traces were stored as lines:
        # a list of event objects and a sequence counter.  Every checkpoint
        # of that age is a "run-state" file, refused by kind before its
        # payload is unpickled into a trace collector that cannot use it.
        path = tmp_path / "old-trace.snapshot"
        telemetry = Telemetry()
        telemetry.trace.__dict__.clear()
        telemetry.trace.__dict__.update(
            events=[TraceEvent(0, "event", "round.begin", 1)], _seq=1
        )
        write_envelope(str(path), "run-state", {}, telemetry)
        with pytest.raises(SnapshotError, match="'run-state'.*expected 'checkpoint-5'"):
            restore(str(path))


class TestRunStateLayout:
    """A checkpoint is the bundle under the kind ``"checkpoint-5"``; a file
    of a kind checkpoints had before — ``"run-state"`` when a wrapper held
    the bundle, ``"checkpoint"`` before round records were columns,
    ``"checkpoint-2"`` before spec_version 2, ``"checkpoint-3"`` while the
    telemetry hub held a profiler, ``"checkpoint-4"`` while the RAPTEE
    settings were two classes — is refused by kind, before anything is
    unpickled."""

    def test_old_layout_run_state_refuses_to_resume(self, tmp_path):
        path = tmp_path / "old-run-state.snapshot"
        _write_sample(path, kind="run-state")
        # A payload that would not unpickle: the kind check comes first.
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="'run-state'.*expected 'checkpoint-5'"):
            restore(str(path))

    def test_spec_version_1_checkpoint_refuses_to_resume(self, tmp_path, capsys):
        # A bundle of the kind written while the spec's engine section still
        # had `load` and `straggler`: refused by kind (exit 1), not resumed
        # under a spec this version cannot rebuild.
        path = tmp_path / "spec-v1.snapshot"
        write_envelope(str(path), "checkpoint-2", {}, _small_bundle())
        with pytest.raises(SnapshotError, match="'checkpoint-2'.*expected 'checkpoint-5'"):
            restore(str(path))
        assert main(["run", "--resume", str(path)]) == 1
        captured = capsys.readouterr()
        assert "'checkpoint-2'" in captured.err
        assert captured.out == ""

    def test_profiler_era_checkpoint_refuses_to_resume(self, tmp_path, capsys):
        # A hub-wired bundle of the kind written while the hub held a
        # wall-clock profiler pickles a class of `repro.telemetry.profiling`,
        # which no longer exists.  The payload here is such a reference
        # alone: unpickling it fails, so the kind check must come first.
        path = tmp_path / "profiler-era.snapshot"
        write_envelope(str(path), "checkpoint-3", {}, {})
        payload = zlib.compress(
            b"\x80\x04crepro.telemetry.profiling\nProfiler\n)\x81."
        )
        _rewrite_header(path, lambda header: header.update(
            payload_sha256=hashlib.sha256(payload).hexdigest(),
            payload_bytes=len(payload)))
        blob = path.read_bytes()
        path.write_bytes(blob[:blob.index(b"\n", len(SNAPSHOT_MAGIC)) + 1] + payload)
        with pytest.raises(SnapshotError, match="repro.telemetry.profiling"):
            read_envelope(str(path))
        with pytest.raises(SnapshotError, match="'checkpoint-3'.*expected 'checkpoint-5'"):
            restore(str(path))
        assert main(["run", "--resume", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "'checkpoint-3'" in captured.err
        assert "profiling" not in captured.err
        assert captured.out == ""

    def test_pre_columnar_checkpoint_refuses_to_resume(self, tmp_path, capsys):
        # A bundle of the kind written before round records were columns:
        # its recorder, network stats and churn model have another shape.
        path = tmp_path / "old-checkpoint.snapshot"
        write_envelope(str(path), "checkpoint", {}, _small_bundle())
        # A payload that would not unpickle: the kind check comes first.
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="'checkpoint'.*expected 'checkpoint-5'"):
            restore(str(path))
        assert main(["run", "--resume", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "'checkpoint'" in captured.err
        assert captured.out == ""

    def test_two_settings_classes_checkpoint_refuses_to_resume(self, tmp_path, capsys):
        # A bundle of the kind written while the RAPTEE settings were two
        # classes: its spec names `repro.scenario.spec.RapteeOptions`, which
        # no longer exists.  The payload here is that reference alone:
        # unpickling it fails, so the kind check must come first.
        path = tmp_path / "two-settings.snapshot"
        write_envelope(str(path), "checkpoint-4", {}, {})
        payload = zlib.compress(
            b"\x80\x04crepro.scenario.spec\nRapteeOptions\n)\x81."
        )
        _rewrite_header(path, lambda header: header.update(
            payload_sha256=hashlib.sha256(payload).hexdigest(),
            payload_bytes=len(payload)))
        blob = path.read_bytes()
        path.write_bytes(blob[:blob.index(b"\n", len(SNAPSHOT_MAGIC)) + 1] + payload)
        with pytest.raises(SnapshotError, match="RapteeOptions"):
            read_envelope(str(path))
        with pytest.raises(SnapshotError, match="'checkpoint-4'.*expected 'checkpoint-5'"):
            restore(str(path))
        assert main(["run", "--resume", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "'checkpoint-4'" in captured.err
        assert "RapteeOptions" not in captured.err
        assert captured.out == ""

    def test_old_layout_bundle_refuses_to_resume(self, tmp_path, capsys):
        # A bundle from when the event clock lived beside it, in the file
        # kind of its day: `run --resume` refuses it rather than resuming
        # with the clock silently dropped.
        path = tmp_path / "old-bundle.snapshot"
        bundle = _small_bundle()
        del bundle.__dict__["engine"]
        bundle.__dict__["events"] = None
        write_envelope(str(path), "run-state", {}, bundle)
        assert main(["run", "--resume", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "'run-state'" in captured.err
        assert captured.out == ""

    def test_current_layout_bundle_resumes_on_its_own_clock(self, tmp_path):
        path = tmp_path / "bundle.snapshot"
        save(_small_bundle(), str(path))
        resumed = restore(str(path))
        assert resumed.engine is resumed.simulation
        assert resumed.faults is None


class TestReplyCacheLayout:
    def test_checkpoint_without_the_reply_cache_resumes_identically(self, tmp_path):
        # Ten Byzantine identities answering views of ten: windows repeat,
        # so by round 3 every identity holds cached pull replies.  A
        # checkpoint written before the cache (and the coordinator's pool
        # generation) existed has neither attribute; the class-level
        # defaults must resume it exactly as the straight run goes on.
        from repro.experiments.scenarios import TopologySpec
        from repro.scenario import ScenarioSpec, compile_spec

        spec = ScenarioSpec(
            name="reply-cache", protocol="brahms", seed=8, rounds=6,
            topology=TopologySpec(n_nodes=100, byzantine_fraction=0.1,
                                  view_ratio=0.1),
        )
        straight = compile_spec(spec)
        straight.run(6)

        bundle = compile_spec(spec)
        bundle.run(3)
        byzantine = [node for node in bundle.simulation.nodes.values()
                     if node.kind.is_byzantine]
        assert all(node.__dict__.pop("_replies")[1] for node in byzantine)
        bundle.coordinator.__dict__.pop("_fake_generation", None)
        path = tmp_path / "before-cache.snapshot"
        save(bundle, str(path))
        resumed = restore(str(path))
        resumed.run(3)
        assert resumed.all_views() == straight.all_views()
        assert resumed.view_records == straight.view_records
        assert resumed.stats == straight.stats


class TestCaptureRestore:
    def test_save_restore_bundle(self, tmp_path):
        bundle = _small_bundle(seed=3)
        bundle.run(2)
        path = tmp_path / "run.snapshot"
        save(bundle, str(path))

        resumed = restore(str(path))
        assert resumed.simulation.round_number == 2
        resumed.run(3)
        straight = _small_bundle(seed=3)
        straight.run(5)
        assert resumed.all_views() == straight.all_views()

    def test_describe_exposes_meta_without_state(self, tmp_path):
        bundle = _small_bundle(seed=3, rounds=9)
        bundle.run(2)
        path = tmp_path / "run.snapshot"
        save(bundle, str(path))
        header = describe(str(path))
        assert header["kind"] == "checkpoint-5"
        assert header["meta"] == {"scenario": "snapshot-unit", "rounds_completed": 2,
                                  "rounds_total": 9, "nodes": 12}

    def test_save_rejects_foreign_objects(self, tmp_path):
        with pytest.raises(TypeError, match="cannot snapshot a dict"):
            save({"not": "a simulation"}, str(tmp_path / "x.snapshot"))
        with pytest.raises(TypeError, match="cannot snapshot a Simulation"):
            save(_small_bundle().simulation, str(tmp_path / "x.snapshot"))

    def test_restore_rejects_other_kinds(self, tmp_path):
        path = tmp_path / "other.snapshot"
        _write_sample(path, kind="repeat-checkpoint")
        with pytest.raises(SnapshotError, match="checkpoint"):
            restore(str(path))


class TestRunWithCheckpoints:
    def test_checkpoints_written_every_chunk(self, tmp_path):
        path = tmp_path / "run.snapshot"
        bundle = run_with_checkpoints(
            _small_bundle(seed=5), rounds=5, checkpoint_every=2,
            checkpoint_path=str(path),
        )
        assert bundle.simulation.round_number == 5
        assert bundle.spec.rounds == 5
        # The final chunk is checkpointed too, so the stored bundle is the
        # finished run and can seed an extension.
        final = restore(str(path))
        assert final.simulation.round_number == 5
        extended = run_with_checkpoints(
            final, rounds=8, checkpoint_every=2, checkpoint_path=str(path)
        )
        assert extended.simulation.round_number == 8
        assert describe(str(path))["meta"]["rounds_total"] == 8

    def test_resume_honours_stored_target(self, tmp_path):
        path = tmp_path / "run.snapshot"
        bundle = _small_bundle(seed=5, rounds=6)
        bundle.run(2)
        save(bundle, str(path))
        resumed = run_with_checkpoints(restore(str(path)))
        assert resumed.simulation.round_number == 6

    def test_validation_errors(self, tmp_path):
        bundle = _small_bundle(seed=5)
        with pytest.raises(ValueError, match="positive round target"):
            run_with_checkpoints(bundle)
        with pytest.raises(ValueError, match="non-negative"):
            run_with_checkpoints(bundle, rounds=3, checkpoint_every=-1)
        with pytest.raises(ValueError, match="checkpoint_path"):
            run_with_checkpoints(bundle, rounds=3, checkpoint_every=2)

    def test_rounds_target_already_met_is_noop(self, tmp_path):
        bundle = _small_bundle(seed=5)
        bundle.run(4)
        before = copy.deepcopy(bundle.all_views())
        assert run_with_checkpoints(bundle, rounds=4) is bundle
        assert bundle.simulation.round_number == 4
        assert bundle.all_views() == before


class TestSnapshotCli:
    def test_info_prints_header(self, tmp_path, capsys):
        path = tmp_path / "run.snapshot"
        bundle = _small_bundle(seed=3, rounds=4)
        bundle.run(1)
        save(bundle, str(path))
        assert main(["snapshot", "info", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"format version:     {SNAPSHOT_FORMAT_VERSION}" in out
        assert "kind:               checkpoint-5\n" in out
        assert "scenario:           snapshot-unit" in out
        assert "rounds_total:       4" in out

    def test_version_mismatch_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "old.snapshot"
        _write_sample(path, kind="checkpoint")
        _rewrite_header(path, lambda h: h.update(format_version=99))
        assert main(["snapshot", "info", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "version 99" in err

    def test_resume_of_garbage_file_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "garbage"
        path.write_bytes(b"not a snapshot at all")
        assert main(["run", "--resume", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "bad magic" in err


class TestSeedResultStore:
    def test_record_and_reload(self, tmp_path):
        path = tmp_path / "repeat.json"
        store = SeedResultStore(str(path))
        assert store.results() == {}
        store.record(7, {"seed": 7, "pollution": 0.25})
        store.record(1, {"seed": 1, "pollution": 0.50})

        reloaded = SeedResultStore(str(path))
        assert reloaded.results() == {
            1: {"seed": 1, "pollution": 0.50},
            7: {"seed": 7, "pollution": 0.25},
        }

    def test_results_returns_a_copy(self, tmp_path):
        store = SeedResultStore(str(tmp_path / "repeat.json"))
        store.record(1, {"seed": 1})
        store.results().clear()
        assert store.results() == {1: {"seed": 1}}

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "repeat.json"
        path.write_text(json.dumps(
            {"format_version": 99, "kind": "repeat-checkpoint", "results": {}}
        ))
        with pytest.raises(SnapshotVersionError, match="99"):
            SeedResultStore(str(path))

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "repeat.json"
        path.write_text(json.dumps(
            {"format_version": SNAPSHOT_FORMAT_VERSION, "kind": "checkpoint",
             "results": {}}
        ))
        with pytest.raises(SnapshotError, match="repeat-checkpoint"):
            SeedResultStore(str(path))

    def test_corrupt_json_rejected(self, tmp_path):
        path = tmp_path / "repeat.json"
        path.write_text("{not json")
        with pytest.raises(SnapshotError, match="corrupt"):
            SeedResultStore(str(path))
