"""Differential equivalence: checkpoint-at-round-k-then-resume vs straight run.

The contract behind :mod:`repro.snapshot`: for the same seed, saving the
complete simulation state at round k and restoring it **in a fresh
process** must produce exactly what the uninterrupted run produces — the
same exported trace JSONL and the same metrics CSV, byte for byte (plus
the same final views, checked in-process).

Pinned scenarios cover the state families the snapshot must carry:
the Brahms baseline under message loss, RAPTEE with encrypted transport
(its byte count), RAPTEE under an active fault plan
with an in-flight crash (injector revive schedule, enclave recovery,
telemetry mid-window), churn with arrivals (node factory and the
engine's ID allocator), and RAPTEE with dynamic trusted-set membership
checkpointed *mid-rotation* (epoch chain, membership log, per-node view
lag, degraded-awaiting-re-attestation recovery state).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.brahms.node import BrahmsNode
from repro.faults.harness import wire_faults
from repro.sim.node import KnownIds
from repro.snapshot import RunState, restore, save
from repro.telemetry import (
    TelemetryConfig,
    metrics_to_csv,
    trace_to_jsonl,
    wire_telemetry,
)

from tests._pinned import PINNED_DICTS, compiled

ROUNDS = 6
CHECKPOINT_AT = 3

_REPO_ROOT = Path(__file__).resolve().parents[1]

#: name → spec dict; the first two are the pinned families of the other
#: differential suites, the rest carry state only a checkpoint has to.
_SCENARIOS = {
    "brahms-baseline": PINNED_DICTS["brahms-baseline"],
    "raptee-encrypted": PINNED_DICTS["raptee-fixed-eviction"],
    "raptee-faults": dict(
        PINNED_DICTS["raptee-faults"],
        faults=[
            {"kind": "loss-burst", "window": {"start": 2, "end": 4},
             "loss_rate": 0.30},
            # Node 5 is trusted; the crash spans the checkpoint round, so
            # the injector's pending revive schedule and the recovery
            # manager's retry state must both survive the save/restore seam.
            {"kind": "crash-restart", "node_id": 5, "at_round": 2,
             "down_rounds": 2},
        ],
    ),
    "brahms-churn": {
        "name": "brahms-churn",
        "protocol": "brahms",
        "seed": 47,
        "rounds": ROUNDS,
        "topology": {"n_nodes": 50, "byzantine_fraction": 0.10,
                     "view_ratio": 0.08},
        # Arrivals come from the production ArrivalFactory, so it and the
        # engine's ID allocator both cross the resume seam.
        "churn": {"kind": "uniform", "leave_rate": 0.02, "join_rate": 0.04},
    },
    "raptee-membership": {
        "name": "raptee-membership",
        "protocol": "raptee",
        "seed": 53,
        "rounds": ROUNDS,
        "topology": {"n_nodes": 40, "byzantine_fraction": 0.10,
                     "trusted_fraction": 0.15, "view_ratio": 0.10,
                     "transport_encryption": True},
        "raptee": {"eviction": {"kind": "adaptive"}},
        # Gossip throttled to one service contact and one anti-entropy peer
        # per round, so the membership log is still propagating when the
        # state crosses the save/restore seam.
        "membership": {"service_contacts": 1, "gossip_fanout": 1,
                       "join_rate": 0.10, "leave_rate": 0.05,
                       "rotate_on_leave": False},
        # The rotation lands one round before the checkpoint, inside an
        # attestation outage: every trusted enclave is degraded on a stale
        # epoch and mid-backoff at the checkpoint round, so the pending
        # epoch and the recovery ladder both have to survive the seam.  The
        # revocation fires after the resume and must propagate through the
        # restored log.
        "faults": [
            {"kind": "epoch-rotation", "at_round": 2},
            {"kind": "attestation-outage", "window": {"start": 2, "end": 4}},
            {"kind": "device-revocation", "node_id": 4, "at_round": 4},
        ],
    },
}


def _state(name):
    """The scenario compiled and wired by hand — telemetry, then faults —
    as a resumable :class:`RunState`."""
    bundle, seed, plan = compiled(_SCENARIOS[name])
    wire_telemetry(bundle, TelemetryConfig(
        tracing=True, trace_messages=True, trace_ecalls=True
    ))
    if plan is not None:
        wire_faults(bundle, plan, seed=seed)
    return RunState(simulation=bundle.simulation, bundle=bundle,
                    rounds_total=ROUNDS, label=name)


def _artifacts(state):
    telemetry = state.simulation.telemetry
    return {
        "trace_jsonl": trace_to_jsonl(telemetry.trace.events),
        "metrics_csv": metrics_to_csv(telemetry.registry),
        "final_views": {
            node_id: tuple(node.view_ids())
            for node_id, node in sorted(state.simulation.nodes.items())
        },
        "view_trace": state.bundle.trace.records,
        "round_number": state.simulation.round_number,
    }


def _straight_run(name):
    state = _state(name)
    state.run_chunk(ROUNDS)
    return _artifacts(state)


def _resume_env():
    env = dict(os.environ)
    src = str(_REPO_ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, str(_REPO_ROOT)] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    return env


@pytest.mark.parametrize("name", sorted(_SCENARIOS))
def test_checkpoint_resume_fresh_process_byte_identical(name, tmp_path):
    reference = _straight_run(name)

    state = _state(name)
    state.run_chunk(CHECKPOINT_AT)
    snapshot_path = tmp_path / f"{name}.snapshot"
    save(state, str(snapshot_path))

    trace_out = tmp_path / "resumed-trace.jsonl"
    metrics_out = tmp_path / "resumed-metrics.csv"
    result = subprocess.run(
        [
            sys.executable, "-m", "repro", "snapshot", "resume",
            str(snapshot_path),
            "--trace-out", str(trace_out),
            "--metrics-out", str(metrics_out),
        ],
        env=_resume_env(),
        capture_output=True,
        text=True,
        cwd=str(_REPO_ROOT),
    )
    assert result.returncode == 0, result.stderr

    assert trace_out.read_text(encoding="utf-8") == reference["trace_jsonl"]
    assert metrics_out.read_text(encoding="utf-8") == reference["metrics_csv"]


@pytest.mark.parametrize("name", sorted(_SCENARIOS))
def test_checkpoint_resume_in_process_full_state(name, tmp_path):
    """Same-process leg: also compares final views and the view trace."""
    reference = _straight_run(name)

    state = _state(name)
    state.run_chunk(CHECKPOINT_AT)
    snapshot_path = tmp_path / f"{name}.snapshot"
    save(state, str(snapshot_path))

    resumed = restore(str(snapshot_path))
    assert resumed.rounds_completed == CHECKPOINT_AT
    assert resumed.rounds_remaining == ROUNDS - CHECKPOINT_AT
    resumed.run_chunk(resumed.rounds_remaining)

    assert _artifacts(resumed) == reference


def test_checkpoint_carrying_transport_keys_resumes_identically(tmp_path):
    """A checkpoint whose network carries the per-pair transport key state
    an executed cipher kept (keys, epoch salt, nonce counter, secret)
    restores with those fields as dead attributes, and the resumed run is
    byte-identical to a straight run — the encrypted-byte count included."""
    straight = _state("raptee-encrypted")
    straight.run_chunk(ROUNDS)

    state = _state("raptee-encrypted")
    state.run_chunk(CHECKPOINT_AT)
    vars(state.simulation.network).update(
        _pair_keys={(1, 2): bytes(range(16))}, _pair_ciphers={},
        _pair_salt=b"epoch" + bytes(8), _nonce_counter=4321,
        _transport_secret=bytes(16),
    )
    snapshot_path = tmp_path / "keyed-network.snapshot"
    save(state, str(snapshot_path))

    resumed = restore(str(snapshot_path))
    assert resumed.simulation.network._nonce_counter == 4321  # crossed the seam
    resumed.run_chunk(resumed.rounds_remaining)
    assert _artifacts(resumed) == _artifacts(straight)
    stats = resumed.simulation.network.stats
    assert stats == straight.simulation.network.stats
    assert stats.bytes_encrypted > 0


@pytest.mark.parametrize("name", ["brahms-churn", "raptee-encrypted"])
def test_checkpoint_with_set_known_ids_resumes_identically(name, tmp_path):
    """A checkpoint written while ``BrahmsNode.known`` was a ``set`` (the
    layout before the ``KnownIds`` bytemap, under the same format version)
    restores with each set rebuilt as a map, and the resumed run is
    byte-identical to a straight run, discovery rounds included."""
    straight = _state(name)
    straight.run_chunk(ROUNDS)

    state = _state(name)
    state.run_chunk(CHECKPOINT_AT)
    nodes = [node for node in state.simulation.nodes.values()
             if isinstance(node, BrahmsNode)]
    assert nodes
    for node in nodes:
        node.known = set(node.known)
    snapshot_path = tmp_path / "set-known.snapshot"
    save(state, str(snapshot_path))

    resumed = restore(str(snapshot_path))
    assert all(isinstance(node.known, KnownIds)
               for node in resumed.simulation.nodes.values()
               if isinstance(node, BrahmsNode))
    resumed.run_chunk(resumed.rounds_remaining)
    assert _artifacts(resumed) == _artifacts(straight)
    assert (resumed.bundle.discovery.discovery_round
            == straight.bundle.discovery.discovery_round)


def test_churn_scenario_actually_churns():
    """Guard against the churn differential passing vacuously."""
    state = _state("brahms-churn")
    state.run_chunk(ROUNDS)
    simulation = state.simulation
    assert simulation._next_node_id > 50  # arrivals happened
    assert len(simulation.ever_registered) > len(simulation.nodes)  # departures


def test_fault_scenario_crash_spans_checkpoint():
    """Guard: the pinned crash really is in flight at the checkpoint round."""
    state = _state("raptee-faults")
    state.run_chunk(CHECKPOINT_AT)
    assert state.bundle.faults._revive_at, \
        "expected a pending revive at the checkpoint round"
    assert not state.simulation.nodes[5].alive


def test_membership_checkpoint_mid_rotation_restores_pending_epoch(tmp_path):
    """A checkpoint taken mid-rotation restores the pending epoch exactly.

    At the checkpoint round the rotation has happened at the service but
    the trusted set has not absorbed it: enclaves are degraded awaiting
    re-attestation (the outage spans the seam) and the membership log is
    still gossiping.  Restoring must reproduce the epoch chain, the log,
    and every node's view position bit for bit — and the rotation must
    then complete on the resumed state.
    """
    state = _state("raptee-membership")
    state.run_chunk(CHECKPOINT_AT)
    director = state.bundle.membership
    service = director.service
    current = service.chain.current
    assert current.number >= 1, "rotation should precede the checkpoint"
    degraded = [
        node_id for node_id in sorted(director.views)
        if state.simulation.nodes[node_id].degraded
    ]
    assert degraded, "the rotation should still be pending at the checkpoint"

    snapshot_path = tmp_path / "membership-mid-rotation.snapshot"
    save(state, str(snapshot_path))
    resumed = restore(str(snapshot_path))
    rservice = resumed.bundle.membership.service

    assert rservice.chain.current.number == current.number
    assert rservice.chain.current.key == current.key
    assert rservice.chain.revoked_epochs() == service.chain.revoked_epochs()
    assert rservice.log.latest_seq == service.log.latest_seq
    assert [record.digest for record in rservice.log.records] == \
        [record.digest for record in service.log.records]
    assert {
        node_id: (view.applied_seq, view.current_epoch)
        for node_id, view in resumed.bundle.membership.views.items()
    } == {
        node_id: (view.applied_seq, view.current_epoch)
        for node_id, view in director.views.items()
    }

    # The pending rotation completes on the restored state: once the
    # outage lifts, every surviving trusted node re-attests into the
    # current epoch (node 4's device is revoked mid-resume and stays out).
    resumed.run_chunk(resumed.rounds_remaining)
    rdirector = resumed.bundle.membership
    final = rdirector.service.chain.current.number
    recovered = [
        node_id for node_id in sorted(rdirector.views)
        if node_id in resumed.simulation.nodes
        and resumed.simulation.nodes[node_id].alive
        and not resumed.simulation.nodes[node_id].degraded
        and resumed.simulation.nodes[node_id].enclave_epoch == final
    ]
    assert recovered, "some trusted node should finish re-attestation"
