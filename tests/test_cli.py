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
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--codec", "quantized"])

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
        # A worker has one dial window, at start and after a drop.
        args = build_parser().parse_args(
            ["worker", "--connect", "h:1", "--connect-timeout", "5"]
        )
        assert args.connect_timeout == 5.0 and not hasattr(args, "reconnect_grace")
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["worker", "--connect", "h:1", "--reconnect-grace", "0"]
            )

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


def _privacy_rows(capsys, *argv):
    """``(uniform line's q, {policy: q_max})`` printed by ``cli privacy``."""
    assert main(["privacy", "--tiers", "5", *argv]) == 0
    lines = capsys.readouterr().out.splitlines()
    uniform_q = float(lines[0].split("q=")[1].split()[0])
    rows = {
        cells[0]: float(cells[1])
        for cells in (line.split("|") for line in lines[3:])
        if len(cells) == 4
    }
    return uniform_q, {name.strip(): q for name, q in rows.items()}


def test_privacy_tiers_hold_the_whole_pool(capsys):
    """The tier table deals every client of ``--pool``: with an even split
    tiered-uniform sampling is plain uniform sampling, and four more
    clients change the table instead of being dropped."""
    uniform_q, even = _privacy_rows(capsys, "--pool", "50")
    assert even["uniform"] == pytest.approx(uniform_q)
    _, uneven = _privacy_rows(capsys, "--pool", "54")
    assert uneven != even
    assert uneven["fast"] == pytest.approx(5 / 11, abs=1e-4)  # 54 = 11+11+11+11+10


@pytest.mark.parametrize("pool", [5, 9, 50, 54, 1003])
def test_privacy_tier_sizes_differ_by_at_most_one(capsys, monkeypatch, pool):
    import repro.cli as cli

    seen = []
    real = cli.tiered_guarantee

    def recording(base, probs, sizes, cohort):
        seen.append(list(sizes))
        return real(base, probs, sizes, cohort)

    monkeypatch.setattr(cli, "tiered_guarantee", recording)
    assert main(["privacy", "--tiers", "5", "--pool", str(pool), "--cohort", "1"]) == 0
    capsys.readouterr()
    assert seen
    for sizes in seen:
        assert len(sizes) == 5
        assert sum(sizes) == pool
        assert max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("flag, attr, choices", [
    ("--dataset", "dataset", "DATASETS"),
    ("--resource-profile", "resource_profile", "RESOURCE_PROFILES"),
    ("--data-distribution", "data_distribution", "DATA_DISTRIBUTIONS"),
])
def test_scenario_flags_take_every_choice_the_scenario_module_declares(flag, attr, choices):
    from repro.experiments import scenarios

    for value in getattr(scenarios, choices):
        assert getattr(build_parser().parse_args(["run", flag, value]), attr) == value


def test_removed_shards_distribution_is_an_invalid_choice(capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["run", "--data-distribution", "shards"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["privacy", "--tiers", "0"],
    ["privacy", "--pool", "0"],
    ["privacy", "--cohort", "0"],
    ["privacy", "--pool", "3", "--tiers", "5"],
    ["run", "--rounds", "0"],
    ["compare", "--rounds", "0"],
    ["compare", "--repeats", "0"],
    ["estimate", "--rounds", "0"],
    ["estimate", "--num-tiers", "0"],
    ["scale", "--eval-every", "0"],
    ["estimate", "--sync-rounds", "0"],
    ["run", "--num-clients", "0"],
    ["compare", "--clients-per-round", "0"],
    ["run", "--clients-per-round", "60"],
    ["run", "--train-size", "0"],
    ["run", "--seed", "-1"],
    ["scale", "--pool-size", "4"],
    ["scale", "--duty-cycle", "0"],
    ["run", "--executor", "distributed", "--reconnect-grace", "-1"],
])
def test_a_bad_count_exits_2_with_a_message(capsys, argv):
    """A count the command cannot use is a usage error, not a traceback:
    argparse rejects a value out of its flag's range, and the command
    reports what the library refuses while it builds the config, the
    scenario or the executor (a cohort larger than the pool)."""
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    assert rc == 2
    assert "error:" in capsys.readouterr().err
