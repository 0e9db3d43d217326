"""CLI tests."""

import pytest

from repro.cli import build_parser, main, parse_eviction
from repro.core.eviction import AdaptiveEviction, FixedEviction


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


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.protocol == "raptee"
        assert args.nodes == 300

    def test_figure_choices(self):
        args = build_parser().parse_args(["figure", "fig9"])
        assert args.figure_id == "fig9"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])


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
        args = build_parser().parse_args(["faults"])
        assert args.drill == "enclave-outage"
        assert args.nodes == 200
        assert args.rounds == 50

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
        args = build_parser().parse_args(["trace"])
        assert args.protocol == "raptee"
        assert args.nodes == 50
        assert args.rounds == 30
        assert args.out == "trace.jsonl"
        assert args.metrics_out is None
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
        "snapshot", "lint", "vectors",
    ])
    def test_help_exits_zero(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        assert command in capsys.readouterr().out
