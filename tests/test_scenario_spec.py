"""Spec-layer contracts: round-trips, typed validation errors, vector
envelope integrity, and the ``repro vectors`` exit-code surface.

The loader's promise (satellites 2-3 of the conformance-suite issue):

* dict → spec → dict is the identity on canonical dicts, and
  spec → dict → spec is the identity on specs (Hypothesis-checked over a
  generated grid of valid scenarios);
* every invalid spec fails with :class:`ScenarioSpecError` carrying the
  offending field path — never a bare ``KeyError``/``TypeError``;
* vector files are tamper-evident (section-naming checksum errors) and
  version-gated (:class:`SnapshotVersionError` on a format bump);
* the CLI's exit codes are pinned: 0 clean, 1 drift, 2 usage error.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import json
import math
from typing import Optional, get_origin, get_type_hints

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.brahms.config import BrahmsConfig
from repro.cli import main
from repro.core.eviction import AdaptiveEviction, FixedEviction
from repro.experiments.scenarios import TopologySpec
from repro.faults.plan import RoundWindow
from repro.membership import MembershipConfig
from repro.scenario import (
    ScenarioSpec,
    ScenarioSpecError,
    spec_from_dict,
    spec_to_dict,
)
from repro.scenario.spec import FAULT_KINDS, ChurnSpec, EngineSpec, RapteeOptions
from repro.scenario.vectors import generate_vector, read_vector, write_vector
from repro.snapshot.format import SnapshotVersionError

# ---------------------------------------------------------------------------
# Generated valid specs
# ---------------------------------------------------------------------------

_rates = st.sampled_from([0.0, 0.02, 0.05, 0.1])


@st.composite
def valid_spec_dicts(draw):
    protocol = draw(st.sampled_from(["brahms", "raptee"]))
    rounds = draw(st.integers(min_value=1, max_value=12))
    n_nodes = draw(st.integers(min_value=10, max_value=80))
    spec = {
        "name": draw(
            st.from_regex(r"[a-z][a-z0-9]{0,8}([._-][a-z0-9]{1,4}){0,2}",
                          fullmatch=True)
        ),
        "protocol": protocol,
        "seed": draw(st.integers(min_value=0, max_value=2**31)),
        "rounds": rounds,
        "topology": {
            "n_nodes": n_nodes,
            "byzantine_fraction": draw(st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.3])),
            "view_ratio": draw(st.sampled_from([0.1, 0.15, 0.2])),
        },
        "adversary_strategy": draw(
            st.sampled_from(["adaptive_balanced", "balanced"])
        ),
    }
    if draw(st.booleans()):
        spec["topology"]["loss_rate"] = draw(_rates)
    if protocol == "raptee":
        spec["topology"]["trusted_fraction"] = draw(st.sampled_from([0.1, 0.2]))
        if draw(st.booleans()):
            spec["raptee"] = {
                "eviction": draw(
                    st.sampled_from(
                        [
                            {"kind": "fixed", "value": 0.6},
                            {"kind": "adaptive", "low_rate": 0.1},
                        ]
                    )
                ),
                "auth_mode": draw(st.sampled_from(["hmac", "aes-ctr"])),
                "probe_pulls": draw(st.integers(min_value=0, max_value=3)),
            }
        if draw(st.booleans()):
            spec["membership"] = {
                "replica_count": draw(st.integers(min_value=1, max_value=5)),
                "join_rate": draw(_rates),
            }
    churn_kind = draw(st.sampled_from(["none", "uniform", "catastrophic"]))
    if churn_kind == "uniform":
        spec["churn"] = {
            "kind": "uniform",
            "leave_rate": draw(_rates),
            "join_rate": draw(_rates),
        }
    elif churn_kind == "catastrophic":
        spec["churn"] = {
            "kind": "catastrophic",
            "at_round": draw(st.integers(min_value=1, max_value=rounds)),
            "fraction": draw(st.sampled_from([0.1, 0.25, 0.5])),
        }
    engine_kind = draw(st.sampled_from(["rounds", "events-barrier", "events"]))
    if engine_kind == "events-barrier":
        spec["engine"] = {"kind": "events", "mode": "barrier"}
    elif engine_kind == "events":
        spec["engine"] = {
            "kind": "events",
            "mode": "continuous",
            "latency": draw(
                st.sampled_from(
                    [None, "constant:20", "lognormal:40:0.6"]
                )
            ),
        }
    if draw(st.booleans()):
        faults = [
            {
                "kind": "loss-burst",
                "window": {"start": 1, "end": max(1, rounds - 1)},
                "loss_rate": 0.3,
            },
            {
                "kind": "link",
                "src": 0,
                "dst": 1,
                "window": {"start": 1, "end": rounds},
            },
        ]
        if protocol == "raptee":
            faults.append({"kind": "attestation-outage",
                           "window": {"start": 1, "end": rounds}})
        spec["faults"] = faults
    return spec


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(valid_spec_dicts())
def test_round_trip_is_identity(data):
    spec = spec_from_dict(data)
    canonical = spec_to_dict(spec)
    # spec -> dict -> spec is the identity on specs...
    assert spec_from_dict(canonical) == spec
    # ...and dict -> spec -> dict is a fixpoint on canonical dicts.
    assert spec_to_dict(spec_from_dict(canonical)) == canonical
    # Canonical JSON is stable (the digest surface for vectors).
    assert json.dumps(canonical, sort_keys=True) == json.dumps(
        spec_to_dict(spec_from_dict(canonical)), sort_keys=True
    )


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(valid_spec_dicts(), st.sampled_from(
    ["bogus", "n_node", "topo", "latency_model", "evictions"]
))
def test_unknown_keys_always_fail_typed(data, junk_key):
    data = dict(data)
    data[junk_key] = 1
    with pytest.raises(ScenarioSpecError) as excinfo:
        spec_from_dict(data)
    assert excinfo.value.path is not None


# ---------------------------------------------------------------------------
# Invalid specs: typed error + field path, never a bare KeyError
# ---------------------------------------------------------------------------

def _base(**over):
    spec = {
        "name": "probe",
        "protocol": "brahms",
        "seed": 1,
        "rounds": 5,
        "topology": {"n_nodes": 40, "byzantine_fraction": 0.1,
                     "view_ratio": 0.15},
    }
    spec.update(over)
    return spec


_INVALID_CASES = {
    "negative-n": (
        _base(topology={"n_nodes": -5}), "topology.n_nodes"),
    "tiny-n": (
        _base(topology={"n_nodes": 3}), "topology.n_nodes"),
    "adversary-fraction-over-1": (
        _base(topology={"n_nodes": 40, "byzantine_fraction": 1.5}),
        "topology.byzantine_fraction"),
    "unknown-fault-kind": (
        _base(faults=[{"kind": "gamma-ray"}]), "faults[0].kind"),
    "fault-missing-required": (
        _base(faults=[{"kind": "loss-burst",
                       "window": {"start": 1, "end": 2}}]),
        "faults[0].loss_rate"),
    "fault-bad-window": (
        _base(faults=[{"kind": "loss-burst", "loss_rate": 0.2,
                       "window": {"start": 2}}]),
        "faults[0].window.end"),
    "churn-round-out-of-range": (
        _base(churn={"kind": "catastrophic", "at_round": 99,
                     "fraction": 0.2}),
        "churn.at_round"),
    "churn-unknown-kind": (
        _base(churn={"kind": "exodus"}), "churn.kind"),
    "missing-required-top-level": (
        {"name": "probe", "protocol": "brahms", "seed": 1, "rounds": 5},
        "spec.topology"),
    "unknown-top-level-key": (
        _base(nodes=40), "spec.nodes"),
    "bool-masquerading-as-int": (
        _base(seed=True), "spec.seed"),
    "string-rounds": (
        _base(rounds="ten"), "spec.rounds"),
    "zero-rounds": (
        _base(rounds=0), "rounds"),
    "unknown-protocol": (
        _base(protocol="gossipsub"), "protocol"),
    "raptee-options-on-brahms": (
        _base(raptee={"auth_mode": "hmac"}), "raptee"),
    "membership-on-brahms": (
        _base(membership={"replica_count": 3}), "membership"),
    "unknown-auth-mode": (
        _base(protocol="raptee",
              topology={"n_nodes": 40, "trusted_fraction": 0.1},
              raptee={"auth_mode": "rot13"}),
        "raptee.auth_mode"),
    "oversized-view-override": (
        _base(brahms={"view_size": 60, "sample_size": 30}),
        "brahms.view_size"),
    "events-knob-on-rounds-engine": (
        _base(engine={"kind": "rounds", "latency": "constant:20"}),
        "engine.latency"),
    "barrier-mode-on-rounds-engine": (
        _base(engine={"kind": "rounds", "mode": "barrier"}), "engine.mode"),
    "tick-interval-on-shard-engine": (
        _base(engine={"kind": "shard", "shards": 2, "tick_interval": 5.0}),
        "engine.tick_interval"),
    "barrier-with-latency": (
        _base(engine={"kind": "events", "mode": "barrier",
                      "latency": "constant:20"}),
        "engine.latency"),
    "barrier-with-tick-interval": (
        _base(engine={"kind": "events", "mode": "barrier",
                      "tick_interval": 2.5}),
        "engine.tick_interval"),
    "nan-tick-interval": (
        _base(engine={"kind": "events", "tick_interval": math.nan}),
        "engine.tick_interval"),
    "inf-tick-interval": (
        _base(engine={"kind": "events", "tick_interval": math.inf}),
        "engine.tick_interval"),
    "nan-constant-latency": (
        _base(engine={"kind": "events", "latency": "constant:nan"}),
        "engine.latency"),
    "nan-lognormal-median": (
        _base(engine={"kind": "events", "latency": "lognormal:nan:0.5"}),
        "engine.latency"),
    "nan-uniform-high": (
        _base(engine={"kind": "events", "latency": "uniform:10:nan"}),
        "engine.latency"),
    # The uniform model, client load and stragglers left the schema at
    # spec_version 2: their grammar and keys are refused whatever they hold.
    "uniform-latency": (
        _base(engine={"kind": "events", "latency": "uniform:10:50"}),
        "engine.latency"),
    "load-key": (
        _base(engine={"kind": "events", "load": "10:30"}), "engine.load"),
    "straggler-key": (
        _base(engine={"kind": "events", "straggler": "0.1:8"}),
        "engine.straggler"),
    # A version-1 dict (its canonical engine section still carries the two
    # keys) is refused as another version, not as an unknown field.
    "spec-version-1": (
        _base(spec_version=1, engine={"kind": "events", "mode": "continuous",
                                      "tick_interval": 1.0, "latency": None,
                                      "load": None, "straggler": None,
                                      "shards": 1}),
        "spec_version"),
    "nan-straggler-slowdown": (
        _base(engine={"kind": "events", "straggler": "0.1:nan"}),
        "engine.straggler"),
    "inf-straggler-slowdown": (
        _base(engine={"kind": "events", "straggler": "0.1:inf"}),
        "engine.straggler"),
    "nan-load-rate": (
        _base(engine={"kind": "events", "load": "10:nan"}), "engine.load"),
    "inf-load-rate": (
        _base(engine={"kind": "events", "load": "10:inf"}), "engine.load"),
    "nan-churn-join-rate": (
        _base(churn={"kind": "uniform", "join_rate": math.nan}),
        "churn.join_rate"),
    "inf-churn-join-rate": (
        _base(churn={"kind": "uniform", "join_rate": math.inf}),
        "churn.join_rate"),
    "malformed-latency-grammar": (
        _base(engine={"kind": "events", "mode": "continuous",
                      "latency": "warp:9"}),
        "engine.latency"),
    "membership-fault-without-membership": (
        _base(protocol="raptee",
              topology={"n_nodes": 40, "trusted_fraction": 0.1},
              faults=[{"kind": "epoch-rotation", "at_round": 2}]),
        "faults[0]"),
    "sgx-fault-on-brahms": (
        _base(faults=[{"kind": "attestation-outage",
                       "window": {"start": 1, "end": 2}}]),
        "faults[0]"),
}


@pytest.mark.parametrize("case", sorted(_INVALID_CASES))
def test_invalid_specs_fail_with_field_path(case):
    data, expected_path = _INVALID_CASES[case]
    with pytest.raises(ScenarioSpecError) as excinfo:
        spec_from_dict(data)
    assert excinfo.value.path == expected_path
    assert expected_path in str(excinfo.value)


# ---------------------------------------------------------------------------
# The dataclasses are the schema: per-field checks derived from their fields
# ---------------------------------------------------------------------------

def _sample(hint, counter):
    """A valid dict-form value for a required fault field annotated ``hint``."""
    if hint is RoundWindow:
        return {"start": 1, "end": 2}
    if get_origin(hint) in (tuple, frozenset):
        return [next(counter), next(counter)]
    return {bool: True, int: next(counter), float: 0.5, str: "x"}[hint]


def _full_spec_dict(eviction):
    """Canonical dict of a spec with every optional section present and one
    fault of every kind, its field values generated from the annotations."""
    counter = itertools.count(1)
    faults = []
    for kind, cls in FAULT_KINDS.items():
        hints = get_type_hints(cls)
        faults.append(dict(
            {field.name: _sample(hints[field.name], counter)
             for field in dataclasses.fields(cls)},
            kind=kind,
        ))
    return spec_to_dict(spec_from_dict({
        "name": "every-field", "protocol": "raptee", "seed": 1, "rounds": 100,
        "topology": {"n_nodes": 80, "trusted_fraction": 0.2},
        "brahms": {}, "raptee": {"eviction": eviction}, "membership": {},
        "faults": faults,
    }))


_EVICTIONS = {"fixed": FixedEviction, "adaptive": AdaptiveEviction}


def _sites(spec_dict):
    """``(path, dict, dataclass, is a {"kind": ...} union)`` for every
    dataclass-shaped dict inside a canonical spec dict."""
    yield "spec", spec_dict, ScenarioSpec, False
    for name, cls in (
        ("topology", TopologySpec), ("brahms", BrahmsConfig),
        ("raptee", RapteeOptions), ("membership", MembershipConfig),
        ("churn", ChurnSpec), ("engine", EngineSpec),
    ):
        yield name, spec_dict[name], cls, False
    eviction = spec_dict["raptee"]["eviction"]
    yield "raptee.eviction", eviction, _EVICTIONS[eviction["kind"]], True
    for index, fault in enumerate(spec_dict["faults"]):
        yield f"faults[{index}]", fault, FAULT_KINDS[fault["kind"]], True
        if "window" in fault:
            yield f"faults[{index}].window", fault["window"], RoundWindow, False


@pytest.mark.parametrize("eviction", [{"kind": "fixed", "value": 0.5},
                                      {"kind": "adaptive"}], ids=sorted(_EVICTIONS))
def test_every_dataclass_field_is_dumped_and_type_checked(eviction):
    full = _full_spec_dict(eviction)
    assert {fault["kind"] for fault in full["faults"]} == set(FAULT_KINDS)
    for index, (path, section, cls, union) in enumerate(_sites(full)):
        hints = get_type_hints(cls)
        names = {field.name for field in dataclasses.fields(cls)}
        # The dump emits exactly the dataclass's fields (+ the union tag).
        assert set(section) == names | ({"kind"} if union else set()), path
        for name in names:
            scalar = hints[name] in (int, float, bool, str, Optional[int], Optional[str])
            textual = hints[name] in (str, Optional[str])
            broken = copy.deepcopy(full)
            list(_sites(broken))[index][1][name] = 7 if textual else "wrong"
            with pytest.raises(ScenarioSpecError) as excinfo:
                spec_from_dict(broken)
            # Top-level keys keep the "spec." prefix; what they hold does not.
            expected = name if path == "spec" and not scalar else f"{path}.{name}"
            assert excinfo.value.path == expected, (path, name)


def test_scenario_spec_error_is_never_a_bare_keyerror():
    assert not issubclass(ScenarioSpecError, KeyError)
    assert issubclass(ScenarioSpecError, ValueError)


def test_spec_version_gate():
    data = _base(spec_version=99)
    with pytest.raises(ScenarioSpecError) as excinfo:
        spec_from_dict(data)
    assert excinfo.value.path == "spec_version"


def test_shard_spec_is_not_described_or_compiled_as_the_events_engine():
    from repro.scenario.compile import event_options_from_spec

    spec = spec_from_dict(_base(adversary_strategy="balanced",
                                engine={"kind": "shard", "shards": 3}))
    assert "engine=shard/3" in spec.describe()
    assert "events" not in spec.describe()
    assert event_options_from_spec(spec) is None
    barrier = spec_from_dict(_base(engine={"kind": "events", "mode": "barrier"}))
    assert "engine=events/barrier" in barrier.describe()
    # A barrier spec is the round loop: it compiles to no event engine.
    assert event_options_from_spec(barrier) is None
    continuous = spec_from_dict(_base(engine={"kind": "events"}))
    assert event_options_from_spec(continuous) is not None


def test_membership_section_brings_the_fault_layer_that_ticks_the_director():
    """A membership spec with no faults listed still churns, rotates and
    gossips: at the parent of this test the director was never ticked."""
    from repro.scenario import get_spec, run_scenario, spec_to_dict

    spec = spec_from_dict(dict(spec_to_dict(get_spec("raptee-membership-churn")),
                               rounds=40))
    assert not spec.faults
    stats = run_scenario(spec).bundle.membership.stats
    assert stats.joins + stats.leaves > 0
    assert stats.gossip_syncs > 0


@pytest.mark.parametrize("engine", [
    {"kind": "rounds"},
    {"kind": "events", "mode": "barrier"},
    {"kind": "shard", "shards": 2},
], ids=lambda engine: engine["kind"])
def test_stability_band_is_sized_by_the_views_the_nodes_have(engine, monkeypatch):
    """A ``brahms`` section sets l1 = 30 where the topology derives 8; at
    the parent of this test the metric took its z·σ band from the 8."""
    from repro.analysis import metrics
    from repro.scenario import run_scenario

    spec = spec_from_dict(_base(
        adversary_strategy="balanced", engine=engine,
        topology={"n_nodes": 60, "byzantine_fraction": 0.1, "view_ratio": 0.1},
        brahms={"view_size": 30, "sample_size": 15},
    ))
    assert spec.topology.brahms_config().view_size == 8
    assert spec.brahms_config.view_size == 30
    real, asked = metrics.stability_tolerance_for, []

    def spy(view_size, mean_fraction):
        asked.append(view_size)
        return real(view_size, mean_fraction)

    monkeypatch.setattr(metrics, "stability_tolerance_for", spy)
    artifacts = run_scenario(spec, telemetry=None)
    found = artifacts.metrics.stability_round
    assert max(len(view) for view in artifacts.final_views.values()) > 8
    assert set(asked) == {30}
    assert found == metrics.stability_round(
        artifacts.bundle.view_records, view_size=30, sustained=3
    )


def test_unknown_strategy_is_refused_at_its_field_before_anything_is_built():
    """A strategy the coordinator does not have — ``targeted`` included,
    which floods a victim list no spec can carry and is gone — fails at
    load, naming ``adversary_strategy``, not in round 1 of a run."""
    for strategy in ("targeted", "bogus"):
        with pytest.raises(ScenarioSpecError) as excinfo:
            spec_from_dict(_base(adversary_strategy=strategy))
        assert excinfo.value.path == "adversary_strategy"
        assert repr(strategy) in str(excinfo.value)


def test_in_memory_spec_requires_rounds_to_run():
    from repro.experiments.scenarios import TopologySpec
    from repro.scenario import run_scenario

    spec = ScenarioSpec(
        name="no-rounds", protocol="brahms", seed=1,
        topology=TopologySpec(n_nodes=40, byzantine_fraction=0.1),
    )
    with pytest.raises(ValueError, match="round count"):
        run_scenario(spec)


# ---------------------------------------------------------------------------
# Vector envelope integrity + CLI exit codes
# ---------------------------------------------------------------------------

_PROBE_SPEC = {
    "name": "probe",
    "protocol": "brahms",
    "seed": 5,
    "rounds": 3,
    "topology": {"n_nodes": 30, "byzantine_fraction": 0.1, "view_ratio": 0.2},
}


def _generate_probe(directory):
    path = directory / "probe.vec"
    sections = generate_vector(spec_from_dict(_PROBE_SPEC), str(path))
    return path, sections


class TestVectorEnvelope:
    def test_bumped_format_version_fails_with_version_error(self, tmp_path):
        path, _ = _generate_probe(tmp_path)
        raw = path.read_bytes()
        magic_end = raw.index(b"\n") + 1
        header_end = raw.index(b"\n", magic_end) + 1
        header = json.loads(raw[magic_end:header_end])
        header["format_version"] = 99
        path.write_bytes(
            raw[:magic_end]
            + json.dumps(header, sort_keys=True).encode("utf-8")
            + b"\n"
            + raw[header_end:]
        )
        with pytest.raises(SnapshotVersionError):
            read_vector(str(path))

    def test_vector_requires_spec_section(self, tmp_path):
        from repro.scenario import VectorError

        with pytest.raises(VectorError, match="spec"):
            write_vector(str(tmp_path / "x.vec"), {"pollution": {}})

    def test_read_back_matches_written_sections(self, tmp_path):
        path, sections = _generate_probe(tmp_path)
        meta, loaded = read_vector(str(path))
        assert loaded == sections
        assert meta["scenario"] == "probe"
        assert sorted(meta["section_sha256"]) == sorted(sections)


class TestCliExitCodes:
    def test_verify_clean_directory_exits_0(self, tmp_path, capsys):
        _generate_probe(tmp_path)
        assert main(["vectors", "verify", "--dir", str(tmp_path)]) == 0
        assert "1/1 vector(s) match" in capsys.readouterr().out

    def test_verify_drifted_vector_exits_1(self, tmp_path, capsys):
        path, sections = _generate_probe(tmp_path)
        sections["pollution"]["network"]["pushes_sent"] += 1
        write_vector(str(path), sections)
        report = tmp_path / "drift.json"
        assert main(
            ["vectors", "verify", "--dir", str(tmp_path), "--report", str(report)]
        ) == 1
        out = capsys.readouterr().out
        assert "DRIFT probe" in out
        payload = json.loads(report.read_text())
        assert payload["drifted"] == 1
        assert payload["vectors"][0]["drifted_sections"].keys() == {"pollution"}

    def test_verify_corrupt_vector_exits_1(self, tmp_path, capsys):
        path, _ = _generate_probe(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert main(["vectors", "verify", "--dir", str(tmp_path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_verify_missing_directory_exits_2(self, tmp_path):
        assert main(["vectors", "verify", "--dir", str(tmp_path / "nope")]) == 2

    def test_verify_empty_directory_exits_2(self, tmp_path):
        assert main(["vectors", "verify", "--dir", str(tmp_path)]) == 2

    def test_generate_unknown_scenario_exits_2(self, tmp_path):
        assert main(
            ["vectors", "generate", "--dir", str(tmp_path), "--only", "no-such-scenario"]
        ) == 2

    def test_generate_only_writes_and_verifies(self, tmp_path, capsys):
        assert main(
            ["vectors", "generate", "--dir", str(tmp_path), "--only", "brahms-f05"]
        ) == 0
        assert (tmp_path / "brahms-f05.vec").exists()
        assert main(["vectors", "verify", "--dir", str(tmp_path)]) == 0

    def test_list_marks_committed_vectors(self, tmp_path, capsys):
        assert main(
            ["vectors", "generate", "--dir", str(tmp_path), "--only", "brahms-f05"]
        ) == 0
        capsys.readouterr()
        assert main(["vectors", "list", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "* brahms-f05" in out
