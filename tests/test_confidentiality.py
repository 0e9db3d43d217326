"""§IV-A, observed: K_T never leaves an attested enclave.

The paper's trust argument rests on the group key K_T (and what protects
it at rest: the device sealing keys, the plaintext of a sealed blob)
existing only inside enclaves.  Nothing static can see the object graph a
run builds, so this watches the run instead: spy on the four places key
material is created or recovered, run scenarios that re-key, seal, crash
and restore, then scan every export surface — and every payload put on
the simulated wire — for those bytes in the encodings a careless
``repr`` / ``hex`` / ``base64`` / ``list(key)`` would produce.
"""

import base64
import inspect
import json
import pickle

import pytest

import repro.core.enclave as core_enclave
from repro.scenario.catalog import get_spec
from repro.scenario.run import run_scenario
from repro.sgx.enclave import SgxDevice
from repro.sgx.provisioning import GroupKeyProvisioner
from repro.sim.network import Network
from repro.sim.node import NodeKind
from repro.telemetry import render_summary


def _encodings(secret: bytes):
    """The byte strings a leak of ``secret`` into text or a pickle would hold."""
    escaped = repr(secret)[2:-1]
    decimal = [str(byte) for byte in secret]
    texts = [
        escaped,
        json.dumps(escaped)[1:-1],  # the repr again, as JSON would quote it
        secret.hex(),
        secret.hex().upper(),
        base64.b64encode(secret).decode("ascii"),
        ", ".join(decimal),
        ",".join(decimal),
    ]
    return [secret] + [text.encode("utf-8") for text in texts]


def _leaks(secrets, surfaces):
    """``[(secret label, surface label)]`` for every secret found anywhere."""
    return [
        (label, where)
        for label, secret in sorted(secrets)
        for needle in _encodings(secret)
        for where, haystack in surfaces
        if needle in haystack
    ]


@pytest.fixture
def held_secrets(monkeypatch):
    """``{(label, bytes)}`` of all key material the code under test touches."""
    held = set()

    def spy(owner, name, label, pick):
        original = getattr(owner, name)
        signature = inspect.signature(original)

        def recording(*args, **kwargs):
            result = original(*args, **kwargs)
            bound = signature.bind(*args, **kwargs).arguments
            held.add((label, bytes(pick(bound, result))))
            return result

        monkeypatch.setattr(owner, name, recording)

    spy(GroupKeyProvisioner, "__init__", "bootstrap group key",
        lambda bound, _: bound["group_key"])
    spy(GroupKeyProvisioner, "rekey", "rotated group key",
        lambda bound, _: bound["group_key"])
    spy(SgxDevice, "_sealing_key", "device sealing key",
        lambda _, result: result)
    spy(core_enclave, "seal", "sealed blob plaintext",
        lambda bound, _: bound["data"])
    spy(core_enclave, "unseal", "unsealed blob plaintext",
        lambda _, result: result)
    return held


@pytest.fixture
def wire(monkeypatch):
    """``[(addressee, pickled payload)]`` of every request and reply.

    (``Network.send_push`` carries two node ids and no payload.)
    """
    sent = []
    original = Network.request

    def recording(self, src, dst, message):
        sent.append((dst, pickle.dumps(message)))
        reply = original(self, src, dst, message)
        if reply is not None:
            sent.append((src, pickle.dumps(reply)))
        return reply

    monkeypatch.setattr(Network, "request", recording)
    return sent


def test_scanner_finds_a_planted_key_in_every_encoding():
    """Self-check: an encoding change cannot turn the scan vacuous."""
    key = bytes(range(0xF0, 0x100))  # no printable byte: repr is all escapes
    plants = [
        ("jsonl", json.dumps({"key": repr(key)})),
        ("csv", f"group.key,gauge,,{key!r},,"),
        ("hex", key.hex()),
        ("HEX", key.hex().upper()),
        ("base64", base64.b64encode(key).decode("ascii")),
        ("list", str(list(key))),
        ("json-list", json.dumps(list(key), separators=(",", ":"))),
    ]
    plants.append(("pickle", pickle.dumps({"field": key})))
    for where, planted in plants:
        haystack = planted if isinstance(planted, bytes) else planted.encode("utf-8")
        found = _leaks({("planted", key)}, [(where, b"prefix " + haystack + b" suffix")])
        assert set(found) == {("planted", where)}, where
    assert _leaks({("planted", key)}, [("clean", b"nothing to see")]) == []


@pytest.mark.parametrize(
    "name",
    ["raptee-encrypted-aes", "raptee-membership-rotation", "raptee-fault-enclave"],
)
def test_no_key_material_on_any_export_surface(name, held_secrets, wire):
    artifacts = run_scenario(get_spec(name))  # full message + ECALL tracing
    nodes = artifacts.bundle.simulation.nodes

    assert ("bootstrap group key", artifacts.bundle.infrastructure.group_key) in held_secrets
    labels = {label for label, _ in held_secrets}
    if name == "raptee-membership-rotation":
        assert "rotated group key" in labels
    if name == "raptee-fault-enclave":
        assert {"device sealing key", "unsealed blob plaintext"} <= labels

    surfaces = [
        ("trace_jsonl", artifacts.trace_jsonl.encode("utf-8")),
        ("metrics_csv", artifacts.metrics_csv.encode("utf-8")),
    ]
    surfaces.extend(
        (f"message to {nodes[addressee].kind.value} node {addressee}", payload)
        for addressee, payload in wire
        if nodes[addressee].kind is not NodeKind.TRUSTED
    )
    assert len(surfaces) > 2, "no message to an untrusted node was captured"
    assert _leaks(held_secrets, surfaces) == []


def test_no_key_material_in_a_drill_report(held_secrets):
    artifacts = run_scenario(get_spec("drill-enclave-outage"), check_invariants=True)
    telemetry = artifacts.bundle.telemetry
    registry = telemetry.registry
    assert (registry.value("faults.enclave_crashes")
            and registry.value("recovery.restores_from_seal"))
    assert {"bootstrap group key", "device sealing key",
            "unsealed blob plaintext"} <= {label for label, _ in held_secrets}
    surfaces = [
        ("report", render_summary(telemetry).encode("utf-8")),
        ("trace_jsonl", artifacts.trace_jsonl.encode("utf-8")),
        ("metrics_csv", artifacts.metrics_csv.encode("utf-8")),
    ]
    assert _leaks(held_secrets, surfaces) == []
