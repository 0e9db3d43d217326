"""Differential equivalence: every way of writing a scenario is one program.

A simulation is built from a :class:`ScenarioSpec` and nothing else; what
differs between front-ends is only who writes the spec.  This suite is the
proof obligation for that claim:

* for every pinned scenario family, the bundle :func:`compile_spec`
  builds, wired by hand (telemetry, then faults, the way tests and
  examples drive a bundle), and the same spec run by :func:`run_scenario`
  produce byte-identical runs — same trace JSONL, same metrics CSV, same
  final views, same traffic totals;
* the same flags through ``repro run`` and ``repro trace`` report what the
  equivalent dict reports, and ``repro run --shards`` what
  :func:`shard_simulation_from_spec` computes;
* a ``kind="shard"`` spec goes through the same :func:`run_scenario` and
  comes back as the same artifacts, byte-identical whatever the shard and
  worker counts, with metrics that are :mod:`repro.analysis.metrics`' own;
* under ``src/repro`` only :mod:`repro.scenario.run` wires the
  instrumentation stack, only :mod:`repro.scenario.compile` builds a shard
  engine or calls the per-node assembly functions, and nothing that reads
  a finished run asks which engine ran; no file of the repository names a
  second, keyword spelling of a run.

The three families every differential suite shares come from
``tests/_pinned.py``; the two below exist only here.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.brahms.config import BrahmsConfig
from repro.cli import main
from repro.experiments.scenarios import TopologySpec
from repro.analysis.metrics import (
    DISCOVERY_THRESHOLD,
    resilience_from_trace,
    stability_round,
)
from repro.experiments.runner import RunMetrics
from repro.scenario import (
    ScenarioSpec,
    artifact_sections,
    compile_spec,
    get_spec,
    run_scenario,
    spec_from_dict,
)
from repro.scenario.compile import shard_simulation_from_spec
from repro.shard.compile import ShardUnsupportedError
from repro.telemetry import TelemetryConfig

from tests._pinned import PINNED_DICTS, ROUNDS, compiled, known_ids, run_built

#: name → spec dict: the pinned families plus two that exist only here.
_CASES = dict(PINNED_DICTS)
_CASES["raptee-membership"] = {
    "name": "raptee-membership",
    "protocol": "raptee",
    "seed": 53,
    "rounds": ROUNDS,
    "topology": {
        "n_nodes": 40,
        "byzantine_fraction": 0.10,
        "trusted_fraction": 0.15,
        "view_ratio": 0.10,
        "transport_encryption": True,
    },
    "raptee": {"eviction": {"kind": "adaptive"}},
    "membership": {"join_rate": 0.05, "leave_rate": 0.03},
}
_CASES["raptee-poisoned-cycles"] = {
    "name": "raptee-poisoned-cycles",
    "protocol": "raptee",
    "seed": 29,
    "rounds": ROUNDS,
    "topology": {
        "n_nodes": 40,
        "byzantine_fraction": 0.10,
        "trusted_fraction": 0.10,
        "poisoned_fraction": 0.05,
        "view_ratio": 0.10,
    },
    "raptee": {
        "eviction": {"kind": "adaptive"},
        "probe_pulls": 2,
        "auth_mode": "aes-ctr",
        "with_cycle_accounting": True,
    },
}


def _assert_paths_agree(name):
    """Hand-wired :func:`compile_spec` bundle vs ``run_scenario``: the
    wiring order (telemetry, then faults) is the one thing they share."""
    reference = run_built(*compiled(_CASES[name]))
    artifacts = run_scenario(spec_from_dict(_CASES[name]))
    loaded = {
        "trace_jsonl": artifacts.trace_jsonl,
        "metrics_csv": artifacts.metrics_csv,
        "final_views": artifacts.final_views,
        "view_trace": artifacts.bundle.trace.records,
        "totals": artifacts.network_totals,
    }
    for key, value in loaded.items():
        assert value == reference[key], f"{name}: {key} diverged"


class TestBrahmsPaths:
    @pytest.mark.parametrize("name", ["brahms-baseline"])
    def test_legacy_shim_and_loaded_specs_agree(self, name):
        _assert_paths_agree(name)


class TestRapteePaths:
    @pytest.mark.parametrize("name", [
        "raptee-fixed-eviction", "raptee-membership", "raptee-poisoned-cycles",
    ])
    def test_legacy_shim_and_loaded_specs_agree(self, name):
        _assert_paths_agree(name)


class TestRapteeFaultsPath:
    def test_fault_scenario_agrees_across_paths(self):
        _assert_paths_agree("raptee-faults")


# Under this seed discovery (round 5) and stability (round 3) are both
# reached inside ROUNDS, so the report prints numbers, not "not reached".
_SEED = 31

_FLAGS = ["--nodes", "40", "--f", "0.1", "--t", "0.1", "--view-ratio", "0.1",
          "--seed", str(_SEED), "--eviction", "0.6", "--rounds", str(ROUNDS)]

_FLAGS_DICT = {
    "name": "flags",
    "protocol": "raptee",
    "seed": _SEED,
    "rounds": ROUNDS,
    "topology": {"n_nodes": 40, "byzantine_fraction": 0.1,
                 "trusted_fraction": 0.1, "view_ratio": 0.1},
    "raptee": {"eviction": {"kind": "fixed", "value": 0.6}},
}


class TestFrontEndsAgree:
    """One scenario through every front-end: flags, constructor, dict."""

    def test_flags_constructor_and_dict_build_the_same_run(self):
        from repro.cli import _spec_from_args, build_parser
        from repro.core.eviction import FixedEviction
        from repro.scenario import RapteeOptions

        runs = {"dict": run_scenario(spec_from_dict(_FLAGS_DICT))}
        for command in ("run", "trace"):
            args = build_parser().parse_args([command] + _FLAGS)
            runs[command] = run_scenario(_spec_from_args(args))
        spec = ScenarioSpec(
            name="constructor", protocol="raptee", seed=_SEED,
            topology=TopologySpec(n_nodes=40, byzantine_fraction=0.1,
                                  trusted_fraction=0.1, view_ratio=0.1),
            raptee=RapteeOptions(eviction=FixedEviction(0.6)),
        )
        constructor = run_built(compile_spec(spec), _SEED, None)

        reference = runs.pop("dict")
        assert reference.final_views == constructor["final_views"]
        assert reference.network_totals == constructor["totals"]
        for command, artifacts in runs.items():
            assert artifacts.final_views == reference.final_views, command
            assert artifacts.network_totals == reference.network_totals, command

    def test_run_command_reports_the_dict_runs_metrics(self, capsys):
        assert main(["run"] + _FLAGS) == 0
        printed = capsys.readouterr().out
        metrics = run_scenario(spec_from_dict(_FLAGS_DICT), telemetry=None).metrics
        assert f"byz IDs in views:   {metrics.resilience_percent:.1f}%" in printed
        assert f"discovery round:    {metrics.discovery_round}\n" in printed
        assert f"stability round:    {metrics.stability_round}\n" in printed

    def test_trace_command_exports_the_dict_runs_trace(self, capsys, tmp_path):
        out = tmp_path / "trace.jsonl"
        assert main(["trace"] + _FLAGS + ["--out", str(out)]) == 0
        capsys.readouterr()
        artifacts = run_scenario(
            spec_from_dict(_FLAGS_DICT), telemetry=TelemetryConfig()
        )
        assert out.read_text(encoding="utf-8") == artifacts.trace_jsonl

    def test_shard_flags_match_the_equivalent_dict(self, capsys):
        assert main(["run"] + _FLAGS + ["--shards", "3"]) == 0
        printed = capsys.readouterr().out
        spec_dict = dict(_FLAGS_DICT, adversary_strategy="balanced",
                         engine={"kind": "shard", "shards": 3})
        simulation = shard_simulation_from_spec(spec_from_dict(spec_dict))
        simulation.run(ROUNDS)
        stats, state = simulation.stats, simulation.state
        assert f"pushes sent:        {stats.pushes_sent}\n" in printed
        assert f"requests sent:      {stats.requests_sent}\n" in printed
        assert (f"renewals:           {state.renewals} (blocked "
                f"{state.blocked_rounds}, evicted {state.evicted_ids})") in printed
        # ... after the three lines every engine prints.
        metrics = run_scenario(spec_from_dict(spec_dict), telemetry=None).metrics
        assert metrics.discovery_round == -1 and metrics.stability_round > 0
        assert (f"byz IDs in views:   {metrics.resilience_percent:.1f}%\n"
                f"discovery round:    not reached\n"
                f"stability round:    {metrics.stability_round}\n"
                f"pushes sent:") in printed


_SHARD_DICT = dict(
    _FLAGS_DICT,
    name="shard-seam",
    adversary_strategy="balanced",
    faults=[{"kind": "crash-restart", "node_id": 5, "at_round": 2,
             "down_rounds": 2}],
)


def _shard_spec(shards):
    return spec_from_dict(
        dict(_SHARD_DICT, engine={"kind": "shard", "shards": shards})
    )


class TestShardSpecsTakeTheSameRoad:
    """``run_scenario`` on ``kind="shard"``: same runner, same artifacts."""

    def test_sections_ignore_shard_and_worker_counts(self):
        runs = []
        for shards, workers in ((1, 1), (4, 4), (3, 2)):
            sections = artifact_sections(
                run_scenario(_shard_spec(shards), workers=workers)
            )
            assert sections.pop("spec")["engine"]["shards"] == shards
            runs.append(sections)
        assert set(runs[0]) == {"view_trace", "final_views", "trace_digest",
                                "metrics_digest", "pollution"}
        assert runs[1] == runs[0] and runs[2] == runs[0]
        # The crashed node is missing from exactly its two down rounds, and
        # final views cover every id, Byzantine rows included.
        absent = [row["round"] for row in runs[0]["view_trace"]
                  if "5" not in row["byzantine_fraction"]]
        assert absent == [2, 3]
        assert len(runs[0]["final_views"]) == 40

    def test_metrics_are_the_analysis_modules(self):
        """The engine supplies records; every definition is the shared one."""
        spec = _shard_spec(3)
        artifacts = run_scenario(spec, telemetry=None)
        records = artifacts.bundle.view_records
        assert artifacts.metrics == RunMetrics(
            resilience=resilience_from_trace(records, tail=10),
            discovery_round=artifacts.bundle.discovery_round,
            stability_round=stability_round(
                records, view_size=spec.brahms_config.view_size, sustained=3
            ),
            rounds=spec.rounds,
        )

    def test_records_against_the_engines_own_counts(self):
        """Round by round, against ``trace_records`` and the ids decoded
        from the packed ``known`` rows.  A record's mean is the mean of
        per-node *shares* (every node weighs the same — the paper's
        metric); ``trace_records`` holds
        the share of *entries* (every view slot weighs the same).  The two
        are tied by the view lengths: Σ shareᵢ·lenᵢ = Byzantine entries."""
        spec = get_spec("shard-brahms")  # reaches discovery in round 36
        simulation = shard_simulation_from_spec(spec)
        n_byz = simulation.config.n_byzantine
        correct = simulation.config.n_nodes - n_byz
        discovered = {}
        for round_no in range(1, spec.rounds + 1):
            simulation.run_round()
            record, raw = simulation.view_records[-1], simulation.trace_records[-1]
            assert record.round_number == raw["round"] == round_no
            lens = {node: len(view)
                    for node, view in simulation.final_views().items()}
            shares = record.byzantine_fraction
            assert sum(lens[node] for node in shares) == raw["view_entries"]
            assert round(sum(share * lens[node] for node, share in shares.items()),
                         6) == raw["byz_entries"]
            known = [
                sum(pid >= n_byz for pid in ids)
                for ids in known_ids(simulation.state.known[n_byz:],
                                     simulation.config.n_nodes)
            ]
            for node in shares:
                if (known[node - n_byz] + 1) / correct >= DISCOVERY_THRESHOLD:
                    discovered.setdefault(node, round_no)
        assert len(discovered) == correct
        assert simulation.discovery_round == max(discovered.values()) == 36

    def test_invariant_checker_is_refused_not_skipped(self):
        with pytest.raises(ShardUnsupportedError, match="InvariantChecker"):
            run_scenario(_shard_spec(2), check_invariants=True)


_REPO_ROOT = Path(__file__).resolve().parents[1]


def _trees(root):
    for path in sorted(root.rglob("*.py")):
        yield (path.relative_to(root).as_posix(),
               ast.parse(path.read_text(encoding="utf-8")))


def _package_trees():
    return _trees(_REPO_ROOT / "src" / "repro")


def _callers(trees, names, methods=True):
    """Files with a call to a function (or method) named in ``names``."""
    return {
        file for file, tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id",
                    getattr(node.func, "attr", None) if methods else None) in names
    }


def test_only_run_scenario_wires_the_instrumentation_stack():
    """Under ``src/repro`` the three ``wire_*`` functions are called from
    :mod:`repro.scenario.run` and nowhere else."""
    wiring = {"wire_telemetry", "wire_faults", "wire_events"}
    assert _callers(_package_trees(), wiring) == {"scenario/run.py"}


def test_only_compile_builds_a_shard_engine():
    """Under ``src/repro`` a ``ShardSimulation`` is constructed, and
    ``shard_simulation_from_spec`` called, in :mod:`repro.scenario.compile`
    and nowhere else: there is no second shard runner."""
    building = {"ShardSimulation", "shard_simulation_from_spec"}
    assert _callers(_package_trees(), building) == {"scenario/compile.py"}


def test_reading_a_finished_run_never_asks_which_engine_ran():
    """In :mod:`repro.scenario.run` only ``run_scenario`` may look at the
    engine kind: ``ScenarioArtifacts``, ``artifact_sections`` and their
    helpers neither compare against ``"shard"`` nor ``isinstance``-test."""
    tree = dict(_package_trees())["scenario/run.py"]
    readers = [node for node in tree.body
               if isinstance(node, (ast.ClassDef, ast.FunctionDef))
               and node.name != "run_scenario"]
    assert {"ScenarioArtifacts", "artifact_sections"} <= {
        node.name for node in readers
    }
    for reader in readers:
        for node in ast.walk(reader):
            assert not (isinstance(node, ast.Constant) and node.value == "shard"), (
                reader.name)
            assert not (isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) == "isinstance"), (
                reader.name)


def test_every_stage_of_the_pipeline_exists_once():
    """The figures neither build, wire nor loop seeds by hand, and one
    function of theirs — the runner — sweeps seeds; the spec has no checker
    table beside its dataclasses; the seed sweep has callers."""
    trees = dict(_package_trees())
    figures = list(ast.walk(trees["experiments/figures.py"]))
    seed_loops = [
        node for node in figures
        if isinstance(node, (ast.For, ast.comprehension))
        and getattr(node.target, "id", None) == "seed"
    ]
    assert not seed_loops

    def sweeps(tree):
        return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) in ("repeat", "map_ordered")]

    (runner,) = [node for node in trees["experiments/figures.py"].body
                 if isinstance(node, ast.FunctionDef) and sweeps(node)]
    assert runner.name == "run_figure"
    assert len(sweeps(runner)) == len(sweeps(trees["experiments/figures.py"]))
    assigned = {
        node.id for node in ast.walk(trees["scenario/spec.py"])
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }
    assert not {name for name in assigned if name.endswith("_CHECKERS")}
    for sweep in ("repeat", "map_ordered"):
        # Plain-name calls only: ``np.repeat`` is not the seed sweep.
        callers = _callers(trees.items(), {sweep}, methods=False)
        assert callers - {"experiments/runner.py"}, sweep


def _identifiers(tree):
    """Every name a module binds, reads, imports, defines or passes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name
            yield node.name.rpartition(".")[2]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.keyword, ast.arg)) and node.arg:
            yield node.arg


def test_a_run_has_one_spelling():
    """No keyword builder, no bundle runner, no harness object beside the
    bundle, no wrapper around it in a checkpoint, no barrier twin of the
    round loop, no second min-wise family and no hand-set flood list
    survives anywhere in the repository's Python; the per-node assembly
    functions are called by :func:`compile_spec` and nothing else."""
    trees = [
        (f"{top}/{file}", tree)
        for top in ("src", "tests", "benchmarks", "examples")
        for file, tree in _trees(_REPO_ROOT / top)
    ]
    gone = {"build_brahms_simulation", "build_raptee_simulation", "run_bundle",
            "flood_targets", "_honest_node_config",
            # The bundle is the run: it holds its hub, injector and clock.
            "TelemetryHarness", "FaultHarness", "EventHarness", "fault_harness",
            "retry_policy",
            # A barrier spec is the round loop; one latency model per run.
            "_barrier_tick", "LatencyConfig", "model_for", "is_zero",
            "record_schedule", "schedule_log", "deferred_pushes",
            # One min-wise hash family.
            "CryptoMinWiseHash", "cryptographic_samplers", "cryptographic",
            "_samplers",
            # A checkpoint is the bundle; `run --resume` is the one resume.
            "RunState", "Snapshotable", "_coerce", "run_chunk",
            "_command_snapshot_resume"}
    assert not {
        (file, name) for file, tree in trees
        for name in _identifiers(tree) if name in gone
    }
    assert _callers(trees, {"_build_brahms", "_build_raptee"}) == {
        "src/repro/scenario/compile.py"
    }


class TestPackageDocstring:
    def test_package_example_runs(self):
        """``repro``'s docstring shows the Python spelling of a run; no
        doctest runner is configured, so this executes it."""
        import doctest

        import repro

        (example,) = doctest.DocTestFinder(recurse=False).find(repro)
        result = doctest.DocTestRunner().run(example)
        assert result.attempted >= 5 and result.failed == 0


class TestViewSizeValidation:
    """Satellite fix: oversized views are rejected at construction."""

    def test_topology_spec_rejects_view_ratio_ge_population(self):
        with pytest.raises(ValueError, match="view_ratio"):
            TopologySpec(n_nodes=10, byzantine_fraction=0.0, view_ratio=0.97)

    def test_topology_spec_rejects_view_ratio_out_of_range(self):
        with pytest.raises(ValueError, match="view_ratio"):
            TopologySpec(n_nodes=50, byzantine_fraction=0.0, view_ratio=1.2)
        with pytest.raises(ValueError, match="view_ratio"):
            TopologySpec(n_nodes=50, byzantine_fraction=0.0, view_ratio=0.0)

    def test_topology_spec_rejects_rounded_counts_without_honest_nodes(self):
        # The fractions sum below 1, but round(5.5) + round(4.4) = 6 + 4.
        with pytest.raises(ValueError, match="6 Byzantine.*4 trusted.*0 honest"):
            TopologySpec(n_nodes=10, byzantine_fraction=0.55,
                         trusted_fraction=0.44, view_ratio=0.5)

    def test_builders_reject_oversized_config_override(self):
        topology = TopologySpec(n_nodes=20, byzantine_fraction=0.10, view_ratio=0.4)
        oversized = BrahmsConfig(view_size=30, sample_size=10)
        for protocol in ("brahms", "raptee"):
            with pytest.raises(ValueError, match="view_size"):
                ScenarioSpec(name="oversized", protocol=protocol, seed=1,
                             topology=topology, brahms=oversized)

    def test_valid_view_sizes_still_accepted(self):
        topology = TopologySpec(n_nodes=20, byzantine_fraction=0.10, view_ratio=0.4)
        bundle = compile_spec(ScenarioSpec(name="valid", protocol="brahms",
                                           seed=1, topology=topology))
        assert len(bundle.simulation.nodes) == 20
