"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.execution import EXECUTOR_BACKENDS

FAST_SCENARIO = [
    "--num-clients", "10",
    "--clients-per-round", "2",
    "--train-size", "300",
    "--test-size", "60",
]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.policy == "adaptive"
        assert args.dataset == "cifar10"

    def test_invalid_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--dataset", "imagenet"])

    def test_run_accepts_distributed_executor(self):
        args = build_parser().parse_args(
            ["run", "--executor", "distributed", "--workers", "2",
             "--connect", "127.0.0.1:7777"]
        )
        assert args.executor == "distributed"
        assert args.connect == "127.0.0.1:7777"

    def test_removed_thread_executor_is_an_invalid_choice(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run", "--executor", "thread"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'thread'" in err
        assert all(backend in err for backend in EXECUTOR_BACKENDS)

    def test_estimate_does_not_register_executor_flags(self):
        """`estimate` never trains, so accepting --executor/--workers there
        would be a silently-ignored lie."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["estimate", "--executor", "serial"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["estimate", "--workers", "2"])

    def test_worker_subcommand_parses(self):
        args = build_parser().parse_args(
            ["worker", "--connect", "coord:7777", "--capacity", "3"]
        )
        assert args.func.__name__ == "cmd_worker"
        assert args.connect == "coord:7777"
        assert args.capacity == 3

    def test_worker_requires_connect(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker"])

    def test_codec_flag_parses_and_validates(self):
        args = build_parser().parse_args(["run", "--codec", "delta"])
        assert args.codec == "delta"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--codec", "zstd"])

    def test_codec_threads_into_training_config(self):
        """--codec must reach TrainingConfig (what executors read) --
        an accepted-but-ignored flag would be a silent lie."""
        from repro.cli import _scenario_config

        args = build_parser().parse_args(["run", "--codec", "delta"])
        assert _scenario_config(args).resolved_training().codec == "delta"
        args = build_parser().parse_args(["run"])
        assert _scenario_config(args).resolved_training().codec == "raw"

    def test_reconnect_grace_flags_parse(self):
        args = build_parser().parse_args(["run", "--reconnect-grace", "15"])
        assert args.reconnect_grace == 15.0
        args = build_parser().parse_args(
            ["worker", "--connect", "h:1", "--reconnect-grace", "0"]
        )
        assert args.reconnect_grace == 0.0

    def test_population_flag_is_rejected(self):
        """Every scenario is store-backed; the flag that used to pick the
        representation is an unknown argument like any other."""
        for command in ("run", "compare", "estimate"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--population"])

    def test_scale_subcommand_parses(self):
        args = build_parser().parse_args(
            ["scale", "--num-clients", "50000", "--diurnal-period", "3600"]
        )
        assert args.func.__name__ == "cmd_scale"
        assert args.num_clients == 50000
        assert args.diurnal_period == 3600.0


class TestCommands:
    def test_run(self, capsys):
        rc = main(["run", "--policy", "uniform", "--rounds", "4"] + FAST_SCENARIO)
        assert rc == 0
        out = capsys.readouterr().out
        assert "4 rounds" in out
        assert "tier latencies" in out

    def test_run_vanilla_has_no_tiers(self, capsys):
        rc = main(["run", "--policy", "vanilla", "--rounds", "3"] + FAST_SCENARIO)
        assert rc == 0
        assert "tier latencies" not in capsys.readouterr().out

    def test_compare(self, capsys):
        rc = main(
            ["compare", "--policies", "vanilla", "fast", "--rounds", "4"]
            + FAST_SCENARIO
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "speedup vs vanilla" in out
        assert "final accuracy" in out

    def test_estimate(self, capsys):
        rc = main(["estimate", "--rounds", "100"] + FAST_SCENARIO)
        assert rc == 0
        out = capsys.readouterr().out
        assert "tier" in out
        assert "Eq. 6" in out

    def test_scale(self, capsys):
        rc = main(
            ["scale", "--num-clients", "500", "--clients-per-round", "4",
             "--rounds", "2", "--pool-size", "300", "--diurnal-period",
             "3600", "--seed", "0"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 rounds" in out
        assert "500 clients" in out

    def test_privacy(self, capsys):
        rc = main(["privacy", "--pool", "50", "--cohort", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "q_max" in out
        assert "uniform: q=0.1000" in out


class TestWorkerCommand:
    def test_bad_endpoint_fails_fast(self, capsys):
        rc = main(["worker", "--connect", "nonsense"])
        assert rc == 2
        assert "host:port" in capsys.readouterr().err

    def test_unreachable_coordinator_exits_nonzero(self):
        # Nothing listens on this port; the agent should give up after its
        # (short) connect timeout rather than hang.
        rc = main(
            ["worker", "--connect", "127.0.0.1:1", "--connect-timeout", "0.5"]
        )
        assert rc == 1

    def test_compare_rejects_distributed(self, capsys):
        rc = main(
            ["compare", "--executor", "distributed", "--policies", "vanilla"]
        )
        assert rc == 2
        assert "distributed" in capsys.readouterr().err
