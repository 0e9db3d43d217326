"""CLI tests."""

import pytest

from repro.cli import build_parser, main, parse_eviction
from repro.core.eviction import AdaptiveEviction, FixedEviction
from repro.experiments.figures import FIGURES


class TestParseEviction:
    def test_adaptive(self):
        assert isinstance(parse_eviction("adaptive"), AdaptiveEviction)

    def test_fixed(self):
        policy = parse_eviction("0.6")
        assert isinstance(policy, FixedEviction)
        assert policy.value == 0.6

    def test_garbage_rejected(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            parse_eviction("lots")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_eviction("1.5")


#: The flags several commands share, by their argparse ``dest``.
_SHARED = ("protocol", "nodes", "f", "t", "rounds", "seed", "view_ratio", "eviction",
           "checkpoint_every", "checkpoint_out", "trace_out", "metrics_out")
_SCENARIO = dict(seed=1, view_ratio=0.08, eviction=AdaptiveEviction())
#: command -> the default of each shared flag it takes (a missing one: it
#: does not take the flag).
_DEFAULTS = {
    "run": dict(protocol="raptee", nodes=300, f=0.10, t=0.10, rounds=None, **_SCENARIO,
                checkpoint_every=0, checkpoint_out=None),
    "attack": dict(nodes=200, f=0.20, t=0.20, rounds=20, **_SCENARIO),
    "trace": dict(protocol="raptee", nodes=50, f=0.10, t=0.10, rounds=30, **_SCENARIO,
                  metrics_out=None),
}


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("command, dest", [
        (command, dest) for command in _DEFAULTS for dest in _SHARED
    ])
    def test_parser_defaults(self, command, dest):
        """Each command keeps its own default for every shared flag it
        takes, and takes no shared flag it did not declare."""
        args = vars(build_parser().parse_args([command]))
        if dest in _DEFAULTS[command]:
            assert args[dest] == _DEFAULTS[command][dest]
        else:
            assert dest not in args

    def test_figure_choices(self):
        args = build_parser().parse_args(["figure", "fig9"])
        assert args.figure_id == "fig9"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_figure_choices_are_the_registry(self):
        import argparse

        (commands,) = [action for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)]
        (figure_id,) = [action for action in commands.choices["figure"]._actions
                        if action.dest == "figure_id"]
        assert tuple(figure_id.choices) == tuple(FIGURES)


class TestCommands:
    def test_run_brahms(self, capsys):
        exit_code = main([
            "run", "--protocol", "brahms", "--nodes", "60",
            "--rounds", "8", "--f", "0.1",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "byz IDs in views" in out
        assert "protocol:           brahms" in out

    def test_run_raptee_with_sketch(self, capsys):
        exit_code = main([
            "run", "--nodes", "60", "--rounds", "6", "--t", "0.1",
            "--eviction", "0.4", "--sketch-unbias",
        ])
        assert exit_code == 0
        assert "trusted 6" in capsys.readouterr().out

    def test_attack_command(self, capsys):
        exit_code = main([
            "attack", "--nodes", "60", "--rounds", "6",
            "--f", "0.2", "--t", "0.2", "--eviction", "1.0",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "precision" in out and "F1" in out


#: ``repro trace --nodes 30 --rounds 6 --seed 2 --out t.jsonl
#: --no-message-events`` as it printed before ``--scenario`` existed.
_TRACE_WITHOUT_SCENARIO = """\
trace:              t.jsonl (48 events)

metric             total
-----------------  -----
rounds executed    6
pushes sent        564
pushes delivered   564
requests sent      1465
replies delivered  1465
SGX ECALLs         228
trace events       48
"""


class TestTraceScenario:
    """``repro trace --scenario NAME``: a catalog entry instead of the
    topology flags; a fault list makes it a drill with the invariant
    checker observing every round."""

    def test_unknown_scenario_exits_two(self, capsys):
        exit_code = main(["trace", "--scenario", "drill-nope"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith("error: --scenario: ")
        assert "drill-nope" in captured.err
        assert captured.out == ""

    def test_without_scenario_the_output_is_unchanged(self, capsys, tmp_path,
                                                       monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "--nodes", "30", "--rounds", "6", "--seed", "2",
                     "--out", "t.jsonl", "--no-message-events"]) == 0
        assert capsys.readouterr().out == _TRACE_WITHOUT_SCENARIO

    def test_drill_prints_recovery_rows_and_invariants(self, capsys, tmp_path):
        from repro.telemetry import validate_trace_jsonl

        out = tmp_path / "drill.jsonl"
        exit_code = main(["trace", "--scenario", "drill-enclave-outage",
                          "--nodes", "5", "--no-message-events", "--out", str(out)])
        printed = capsys.readouterr().out
        assert exit_code == 0  # --nodes 5 would be refused: it is ignored
        for row in ("rounds executed            16", "enclave crashes",
                    "sealed restores", "re-provisionings"):
            assert row in printed
        assert printed.endswith("invariants: 16 rounds checked, 0 violation(s)\n")
        assert validate_trace_jsonl(out.read_text(encoding="utf-8")) > 0

    def test_a_violation_exits_one(self, capsys, tmp_path, monkeypatch):
        from repro.faults.invariants import InvariantChecker

        checked = InvariantChecker.on_round_end

        def planted(self, simulation):
            checked(self, simulation)
            if simulation.round_number == 4:
                self._fail(simulation, "planted", None, "a test violation")

        monkeypatch.setattr(InvariantChecker, "on_round_end", planted)
        exit_code = main(["trace", "--scenario", "raptee-fault-crash",
                          "--no-message-events", "--out", str(tmp_path / "t.jsonl")])
        printed = capsys.readouterr().out
        assert exit_code == 1
        assert ("round 4: invariant 'planted' violated at overlay: "
                "a test violation\n") in printed
        assert printed.endswith("invariants: 6 rounds checked, 1 violation(s)\n")


class TestTraceCommand:
    def test_parser_defaults(self):
        # The shared flags' defaults are TestParser's table.
        args = build_parser().parse_args(["trace"])
        assert args.out == "trace.jsonl"

    def test_trace_smoke(self, capsys, tmp_path):
        from repro.telemetry import validate_trace_jsonl

        out = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.csv"
        exit_code = main([
            "trace", "--nodes", "30", "--rounds", "6", "--seed", "2",
            "--out", str(out), "--metrics-out", str(metrics),
        ])
        printed = capsys.readouterr().out
        assert exit_code == 0
        assert "rounds executed" in printed
        assert validate_trace_jsonl(out.read_text(encoding="utf-8")) > 0
        assert metrics.read_text(encoding="utf-8").startswith(
            "name,kind,labels,value,count,sum"
        )


class TestRunFlagWiring:
    def test_loss_reaches_the_topology(self):
        from repro.cli import _spec_from_args

        args = build_parser().parse_args(["run", "--nodes", "60", "--loss", "0.4"])
        assert _spec_from_args(args).topology.loss_rate == 0.4

    def test_engine_flags_land_in_the_engine_spec_verbatim(self):
        from repro.cli import _spec_from_args

        args = build_parser().parse_args([
            "run", "--engine", "events", "--latency-model", "lognormal:40:0.6",
            "--tick-interval", "2.5",
        ])
        engine = _spec_from_args(args).engine
        assert (engine.kind, engine.latency, engine.tick_interval) == (
            "events", "lognormal:40:0.6", 2.5)

    @pytest.mark.parametrize("flag, value, field", [
        ("--latency-model", "bogus:1", "engine.latency"),
        # The uniform model is gone; its grammar is refused, not misread.
        ("--latency-model", "uniform:10:50", "engine.latency"),
        ("--tick-interval", "0", "engine.tick_interval"),
    ])
    def test_malformed_engine_value_names_the_spec_field(
        self, capsys, flag, value, field
    ):
        exit_code = main([
            "run", "--nodes", "60", "--rounds", "2", "--engine", "events",
            flag, value,
        ])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith(f"error: {field}: ")
        assert captured.out == ""

    @pytest.mark.parametrize("flag, value, field", [
        # Each of these used to run to exit 0 with the value ignored or
        # poisoning the clock; NaN intervals and delays hung the run.
        ("--latency-model", "lognormal:40:nan", "engine.latency"),
        ("--tick-interval", "inf", "engine.tick_interval"),
    ])
    def test_non_finite_engine_value_names_the_spec_field(
        self, capsys, flag, value, field
    ):
        exit_code = main([
            "run", "--nodes", "40", "--rounds", "3", "--engine", "events",
            flag, value,
        ])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith(f"error: {field}: ")
        assert "finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command, flags, field", [
        ("run", ["--nodes", "5"], "topology.n_nodes:"),
        ("run", ["--f", "1.5"], "topology.byzantine_fraction:"),
        ("run", ["--t", "0.95", "--f", "0.1"], "topology:"),
        ("run", ["--view-ratio", "0"], "topology.view_ratio:"),
        ("run", ["--loss", "2"], "topology.loss_rate:"),
        ("attack", ["--nodes", "5"], "topology.n_nodes:"),
        ("trace", ["--nodes", "5"], "topology.n_nodes:"),
        ("trace", ["--rounds", "0"], "--rounds: "),
        ("run", ["--checkpoint-every", "-1"], "--checkpoint-every"),
        # A path with nothing to save there used to be printed as the
        # checkpoint, or ignored without a word on the shard engine.
        ("run", ["--nodes", "40", "--rounds", "3", "--checkpoint-out", "x.snapshot"],
         "--checkpoint-out: "),
        ("run", ["--shards", "2", "--nodes", "40", "--rounds", "3",
                 "--checkpoint-out", "y.snapshot"],
         "the shard engine has no snapshot support"),
    ], ids=["run-nodes", "run-f", "run-t-and-f", "run-view-ratio", "run-loss", "attack-nodes",
            "trace-nodes", "trace-rounds", "run-checkpoint-every", "run-checkpoint-out",
            "run-shards-checkpoint-out"])
    def test_refused_flag_exits_two_naming_the_field(self, capsys, tmp_path, monkeypatch,
                                                     command, flags, field):
        monkeypatch.chdir(tmp_path)
        exit_code = main([command, *flags])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith(f"error: {field}")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["run"],
        ["run", "--engine", "events"],
        ["run", "--shards", "2"],
        ["trace"],
        ["attack"],
    ], ids=["run", "run-events", "run-shards", "trace", "attack"])
    def test_zero_rounds_is_one_refusal_everywhere(self, capsys, tmp_path, monkeypatch,
                                                  argv):
        # The engines and commands used to disagree: only the checkpointed
        # run path named the flag, the rest blamed a spec with no rounds.
        monkeypatch.chdir(tmp_path)
        exit_code = main([*argv, "--nodes", "40", "--rounds", "0"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err == "error: --rounds: must be a positive round target, got 0\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, flag", [
        (["run", "--nodes", "40", "--rounds", "0"], "--rounds"),
        (["run", "--resume", "SNAPSHOT", "--rounds", "0"], "--rounds"),
        (["run", "--resume", "SNAPSHOT", "--rounds", "-1"], "--rounds"),
        (["run", "--resume", "SNAPSHOT", "--checkpoint-every", "-1"],
         "--checkpoint-every"),
        (["run", "--resume", "SNAPSHOT", "--checkpoint-out", "SNAPSHOT"],
         "--checkpoint-out"),
    ], ids=["run", "run-resume", "run-resume-negative", "run-resume-checkpoint-every",
            "run-resume-checkpoint-out"])
    def test_refused_round_flag_on_the_checkpoint_path(self, capsys, tmp_path, argv, flag):
        # A run and its resume share one checkpointed path: it names the
        # refused flag before any round runs or any checkpoint is written.
        snapshot = tmp_path / "run.snapshot"
        assert main(["run", "--nodes", "40", "--rounds", "2", "--checkpoint-every", "1",
                     "--checkpoint-out", str(snapshot)]) == 0
        saved = snapshot.read_bytes()
        capsys.readouterr()
        exit_code = main([str(snapshot) if arg == "SNAPSHOT" else arg for arg in argv])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith(f"error: {flag}: ")
        assert captured.out == ""
        assert snapshot.read_bytes() == saved

    def test_shard_gate_speaks_for_the_cli(self, capsys):
        """`run --shards` refuses what `shard_config_from_spec` refuses, in
        its words — the CLI holds no gate of its own."""
        exit_code = main([
            "run", "--nodes", "60", "--rounds", "2", "--shards", "2",
            "--sketch-unbias",
        ])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "does not support count-min sketch unbiasing" in captured.err
        assert captured.out == ""

    def test_split_run_prints_what_a_straight_run_prints(self, capsys, tmp_path):
        """Checkpoint at round 6 of 9 and resume in a second invocation:
        the report is the straight run's, less the ``checkpoint:`` line."""
        flags = ["--nodes", "40", "--seed", "7"]
        assert main(["run", *flags, "--rounds", "9"]) == 0
        straight = capsys.readouterr().out
        snapshot = str(tmp_path / "run.snapshot")
        assert main(["run", *flags, "--rounds", "6", "--checkpoint-every", "3",
                     "--checkpoint-out", snapshot]) == 0
        capsys.readouterr()
        assert main(["run", "--resume", snapshot, "--rounds", "9"]) == 0
        resumed = capsys.readouterr().out
        assert "rounds:             9\n" in straight
        assert straight == "".join(
            line for line in resumed.splitlines(keepends=True)
            if not line.startswith("checkpoint:")
        )

    @pytest.mark.parametrize("engine", ["rounds", "events"])
    def test_loss_changes_the_run(self, capsys, engine):
        outputs = []
        for loss in ("0", "0.9"):
            assert main([
                "run", "--protocol", "brahms", "--nodes", "60", "--rounds", "6",
                "--engine", engine, "--loss", loss,
            ]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] != outputs[1]

    @pytest.mark.parametrize("flag, value", [
        ("--latency-model", "constant:50"),
        ("--tick-interval", "2.0"),
        ("--shard-workers", "3"),
    ])
    def test_flag_without_its_engine_is_refused(self, capsys, flag, value):
        exit_code = main(["run", "--nodes", "60", "--rounds", "2", flag, value])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert flag in captured.err
        assert captured.out == ""

    def test_engine_flags_accepted_with_their_engine(self, capsys):
        assert main([
            "run", "--nodes", "60", "--rounds", "2", "--engine", "events",
            "--latency-model", "constant:50", "--tick-interval", "2.0",
        ]) == 0
        assert main([
            "run", "--protocol", "brahms", "--nodes", "60", "--rounds", "2",
            "--view-ratio", "0.15", "--shards", "2", "--shard-workers", "2",
        ]) == 0


class TestSubcommandSurface:
    @pytest.mark.parametrize("flag, value", [
        ("--load", "40:30"), ("--straggler", "0.1:8"),
        ("--events-trace-out", "latency.jsonl"),
    ])
    def test_client_load_and_straggler_flags_are_gone(self, capsys, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--engine", "events", flag, value])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_trace_profile_flag_is_gone(self, capsys):
        # Per-layer wall time is the perf ledger's traced mode.
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "--profile"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_bench_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        "run", "figure", "attack", "trace",
        "snapshot", "snapshot info",
        "vectors", "vectors generate", "vectors verify", "vectors list",
    ])
    def test_help_exits_zero(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([*command.split(), "--help"])
        assert excinfo.value.code == 0
        assert command in capsys.readouterr().out
