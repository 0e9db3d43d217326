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
    "faults": dict(nodes=200, rounds=50, seed=1, trace_out=None),
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


class TestFaultsCommand:
    def test_parser_defaults(self):
        # The shared flags' defaults are TestParser's table.
        assert build_parser().parse_args(["faults"]).drill == "enclave-outage"

    def test_unknown_drill_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults", "--drill", "nope"])

    def test_drill_smoke(self, capsys):
        exit_code = main([
            "faults", "--drill", "enclave-outage",
            "--nodes", "60", "--rounds", "12", "--seed", "2",
        ])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "fault drill:        enclave-outage" in out
        assert "0 violation(s)" in out


class TestTraceCommand:
    def test_parser_defaults(self):
        # The shared flags' defaults are TestParser's table.
        args = build_parser().parse_args(["trace"])
        assert args.out == "trace.jsonl"
        assert not args.profile

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

    def test_trace_profile_flag_prints_hot_paths(self, capsys, tmp_path):
        exit_code = main([
            "trace", "--nodes", "30", "--rounds", "6", "--seed", "2",
            "--profile", "--no-message-events",
            "--out", str(tmp_path / "t.jsonl"),
        ])
        printed = capsys.readouterr().out
        assert exit_code == 0
        assert "sampler.update" in printed


class TestRunFlagWiring:
    def test_loss_reaches_the_topology(self):
        from repro.cli import _spec_from_args

        args = build_parser().parse_args(["run", "--nodes", "60", "--loss", "0.4"])
        assert _spec_from_args(args).topology.loss_rate == 0.4

    def test_engine_flags_land_in_the_engine_spec_verbatim(self):
        from repro.cli import _spec_from_args

        args = build_parser().parse_args([
            "run", "--engine", "events", "--latency-model", "lognormal:40:0.6",
            "--load", "40:30", "--straggler", "0.1:8", "--tick-interval", "2.5",
        ])
        engine = _spec_from_args(args).engine
        assert (engine.kind, engine.latency, engine.load, engine.straggler,
                engine.tick_interval) == (
            "events", "lognormal:40:0.6", "40:30", "0.1:8", 2.5)

    @pytest.mark.parametrize("flag, value, field", [
        ("--latency-model", "bogus:1", "engine.latency"),
        ("--load", "bogus", "engine.load"),
        ("--straggler", "2:0", "engine.straggler"),
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
        ("--straggler", "0.1:nan", "engine.straggler"),
        ("--straggler", "0.1:inf", "engine.straggler"),
        ("--load", "10:nan", "engine.load"),
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
        ("faults", ["--nodes", "5"], "topology.n_nodes:"),
        ("faults", ["--rounds", "0"], "rounds:"),
        ("run", ["--checkpoint-every", "-1"], "--checkpoint-every"),
    ], ids=["run-nodes", "run-f", "run-t-and-f", "run-view-ratio", "run-loss", "attack-nodes",
            "trace-nodes", "faults-nodes", "faults-rounds", "run-checkpoint-every"])
    def test_refused_flag_exits_two_naming_the_field(self, capsys, command, flags, field):
        # Each of these used to escape as a ValueError traceback and exit 1.
        exit_code = main([command, *flags])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith(f"error: {field}")
        assert captured.out == ""

    @pytest.mark.parametrize("argv, flag", [
        (["run", "--nodes", "40", "--rounds", "0"], "--rounds"),
        (["run", "--resume", "SNAPSHOT", "--rounds", "0"], "--rounds"),
        (["snapshot", "resume", "SNAPSHOT", "--rounds", "0"], "--rounds"),
        (["snapshot", "resume", "SNAPSHOT", "--rounds", "-1"], "--rounds"),
        (["snapshot", "resume", "SNAPSHOT", "--checkpoint-every", "-1"],
         "--checkpoint-every"),
    ], ids=["run", "run-resume", "snapshot-resume-0", "snapshot-resume-negative",
            "snapshot-resume-checkpoint-every"])
    def test_refused_round_flag_on_the_checkpoint_path(self, capsys, tmp_path, argv, flag):
        # The rounds engine's run and both resumes share one checkpointed
        # path: it names the refused flag before any round runs or any
        # checkpoint is written.
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
        ("--load", "4:30"),
        ("--straggler", "0.1:8"),
        ("--tick-interval", "2.0"),
        ("--events-trace-out", "latency.jsonl"),
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
    def test_bench_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        "run", "figure", "attack", "faults", "trace",
        "snapshot", "snapshot info", "snapshot resume",
        "vectors", "vectors generate", "vectors verify", "vectors list",
    ])
    def test_help_exits_zero(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([*command.split(), "--help"])
        assert excinfo.value.code == 0
        assert command in capsys.readouterr().out
