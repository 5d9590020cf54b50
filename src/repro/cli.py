"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``run``      train one policy on a scenario and print the summary
``compare``  train several policies on identical federations
``estimate`` profile a scenario and print Eq. 6 predictions per policy
``privacy``  print the Sec. 4.6 amplification table for a pool/cohort
``worker``   join a distributed coordinator as a training agent
``report``   summarize a ``--trace-out`` JSONL trace file
``scale``    population-scale run: columnar store + diurnal availability

Examples::

    python -m repro.cli run --dataset cifar10 --policy adaptive --rounds 60
    python -m repro.cli compare --policies vanilla uniform fast --rounds 80
    python -m repro.cli estimate --dataset mnist --rounds 500
    python -m repro.cli privacy --pool 50 --cohort 5 --eps 0.5

Cohort-batched training (``--executor batched``, see
:mod:`repro.execution.batched`): train each homogeneous cohort group as
one stacked tensor program -- the fastest single-core backend, but a
separate versioned numerics stream (accuracy-equivalent to serial, not
bit-identical; see ``docs/numerics.md``)::

    python -m repro.cli run --executor batched --rounds 60

Multi-node training (see :mod:`repro.distributed`): start the
coordinator, then one worker agent per node::

    python -m repro.cli run --executor distributed --workers 2 \\
        --connect 0.0.0.0:7777 --rounds 60          # coordinator
    python -m repro.cli worker --connect coord-host:7777   # each worker

Weight-transport codec (``--codec``, see :mod:`repro.codec`): how weight
vectors travel on the distributed wire.  ``raw`` (default) and ``delta``
are lossless -- training stays bit-identical to serial -- with ``delta``
cutting the steady-state bytes per round by ~30% on a converging run;
``quantized`` (float16) quarters the weight bytes but is lossy and
strictly opt-in.  In-process executors ignore the flag (no wire)::

    python -m repro.cli run --executor distributed --workers 2 \\
        --connect 0.0.0.0:7777 --codec delta --rounds 60

Reconnect-and-resume (``--reconnect-grace``): with a positive grace
window on both sides, a worker whose TCP connection drops re-dials the
coordinator and resumes its session (same pinned clients, RNG state
replayed, bit-identical history) instead of being permanently retired;
the retire-and-reassign path remains the fallback once the window
expires.  The coordinator default is 0 (a lost connection retires the
worker immediately); workers retry for 30 s by default, which is
harmless when the coordinator has resume disabled::

    python -m repro.cli run --executor distributed --workers 2 \\
        --connect 0.0.0.0:7777 --reconnect-grace 30 --rounds 60
    python -m repro.cli worker --connect coord-host:7777 \\
        --reconnect-grace 30

Observability (see :mod:`repro.telemetry`): ``--trace-out`` records a
schema-versioned JSONL trace of every phase span, executor timing
histogram and wire counter the run produced -- tracing is off by
default and, being clock-only, never perturbs training results.
``--log-level`` tunes the shared ``repro`` logger.  ``report``
summarizes a recorded trace (per-phase p50/p95, bytes per round by
frame type, worker utilization)::

    python -m repro.cli run --rounds 20 --trace-out trace.jsonl
    python -m repro.cli report trace.jsonl

Population-scale federations (see
:mod:`repro.simcluster.population`): every scenario keeps its clients
in a columnar :class:`PopulationStore` and materialises them lazily;
``scale`` runs a synthetic heavy-tailed federation with diurnal
availability churn at sizes a per-client dataset split cannot reach::

    python -m repro.cli scale --num-clients 100000 --rounds 5
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro import telemetry
from repro.codec import CODEC_NAMES
from repro.execution import EXECUTOR_BACKENDS
from repro.experiments import (
    ScenarioConfig,
    format_table,
    run_policies,
    run_policy,
    speedup_table,
)
from repro.experiments.scenarios import build_scenario
from repro.fl.privacy import (
    PrivacyGuarantee,
    tier_sampling_rates,
    tiered_guarantee,
    uniform_guarantee,
)
from repro.tifl import build_tiers, estimate_training_time, profile_clients
from repro.tifl.policies import CIFAR_POLICIES, MNIST_POLICIES

__all__ = ["main", "build_parser"]


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _add_scenario_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", default="cifar10",
                   choices=["mnist", "fmnist", "cifar10", "femnist"])
    p.add_argument("--num-clients", type=int, default=50)
    p.add_argument("--clients-per-round", type=int, default=5)
    p.add_argument("--resource-profile", default="heterogeneous",
                   choices=["heterogeneous", "homogeneous", "case_study"])
    p.add_argument("--data-distribution", default="iid",
                   choices=["iid", "noniid", "shards", "quantity", "quantity_noniid"])
    p.add_argument("--noniid-classes", type=int, default=5)
    p.add_argument("--train-size", type=int, default=2500)
    p.add_argument("--test-size", type=int, default=400)
    p.add_argument("--model", default="linear")
    p.add_argument("--seed", type=int, default=0)


def _add_observability_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--log-level", default="info",
                   choices=["debug", "info", "warning", "error", "critical"],
                   help="threshold for the shared repro logger")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="record a schema-versioned JSONL telemetry trace "
                        "of the run (phase spans, executor timings, wire "
                        "counters); summarize it with `repro.cli report`")


def _add_executor_args(p: argparse.ArgumentParser) -> None:
    """Client-execution flags -- only for commands that actually train.

    The ``estimate`` subcommand deliberately does not register these: it
    profiles latencies without running a single training pass, so an
    ``--executor`` there would be accepted and silently ignored.
    """
    p.add_argument("--executor", default="serial",
                   choices=list(EXECUTOR_BACKENDS),
                   help="client-training backend.  serial, process and "
                        "distributed are bit-identical to each other "
                        "(process adds concurrency, distributed "
                        "spans machines); batched fuses each homogeneous "
                        "cohort group into one stacked tensor program -- "
                        "fastest on one core, but a separate numerics "
                        "stream (accuracy-equivalent, not bit-identical; "
                        "see docs/numerics.md)")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="worker count for the process executor, or "
                        "how many agents must join a distributed run")
    p.add_argument("--connect", default=None, metavar="HOST:PORT",
                   help="distributed executor endpoint: the coordinator "
                        "listens here and workers connect to it")
    p.add_argument("--codec", default="raw", choices=list(CODEC_NAMES),
                   help="weight-transport codec on the distributed wire "
                        "(raw/delta are lossless and bit-identical to "
                        "serial; delta cuts steady-state bytes/round ~30%% "
                        "on a converging run; quantized is float16 -- "
                        "lossy, opt-in).  In-process executors ignore it")
    p.add_argument("--reconnect-grace", type=float, default=0.0,
                   metavar="SECONDS",
                   help="let a worker whose TCP connection drops resume "
                        "its session within this window instead of being "
                        "retired (0 = retire immediately, the default; "
                        "distributed executor only)")


def _make_executor(args: argparse.Namespace):
    """Backend name to pass through, or a listening coordinator instance."""
    if args.executor != "distributed":
        return args.executor
    from repro.distributed import DistributedExecutor

    executor = DistributedExecutor(
        workers=args.workers, endpoint=args.connect,
        reconnect_grace=args.reconnect_grace,
    )
    endpoint = executor.listen()
    print(
        f"[distributed] coordinator listening on {endpoint}; waiting for "
        f"{args.workers} worker(s) -- start each with: "
        f"python -m repro.cli worker --connect {endpoint}",
        file=sys.stderr,
    )
    return executor


def _scenario_config(args: argparse.Namespace) -> ScenarioConfig:
    cfg = ScenarioConfig(
        dataset=args.dataset,
        num_clients=args.num_clients,
        clients_per_round=args.clients_per_round,
        resource_profile=args.resource_profile,
        data_distribution=args.data_distribution,
        noniid_classes=args.noniid_classes,
        train_size=args.train_size,
        test_size=args.test_size,
        model=args.model,
    )
    # --codec threads through TrainingConfig (what the executors read);
    # commands without executor flags (estimate/privacy) have no codec.
    codec = getattr(args, "codec", "raw")
    if codec != "raw":
        cfg = cfg.with_(training=cfg.resolved_training().with_(codec=codec))
    return cfg


def _start_tracing(args: argparse.Namespace, cfg: ScenarioConfig) -> bool:
    """Enable telemetry with a trace file when ``--trace-out`` was given."""
    if getattr(args, "trace_out", None) is None:
        return False
    telemetry.configure(
        enabled=True,
        trace_path=args.trace_out,
        meta=telemetry.run_metadata(config=cfg),
    )
    return True


def _finish_tracing(args: argparse.Namespace) -> None:
    telemetry.flush()
    telemetry.shutdown()
    print(f"[telemetry] trace written to {args.trace_out}", file=sys.stderr)


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _scenario_config(args)
    tracing = _start_tracing(args, cfg)
    try:
        result = run_policy(
            cfg, args.policy, rounds=args.rounds, seed=args.seed,
            executor=_make_executor(args), workers=args.workers,
        )
    finally:
        if tracing:
            _finish_tracing(args)
    print(result.history.summary())
    if result.tier_latencies is not None:
        print("tier latencies [s]:", np.round(result.tier_latencies, 3).tolist())
        print("tier sizes:        ", result.tier_sizes.tolist())
        if result.dropouts:
            print("profiling dropouts:", result.dropouts)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    if args.executor == "distributed":
        # Each policy trains a fresh federation and an executor binds one
        # federation for life (its workers hold that pool's data), so one
        # coordinator cannot serve a comparison sweep.
        print(
            "error: `compare` trains several independent federations; the "
            "distributed executor serves exactly one. Use `run` per policy.",
            file=sys.stderr,
        )
        return 2
    cfg = _scenario_config(args)
    tracing = _start_tracing(args, cfg)
    try:
        results = run_policies(
            cfg, args.policies, rounds=args.rounds, seed=args.seed,
            repeats=args.repeats, executor=args.executor,
            workers=args.workers,
        )
    finally:
        if tracing:
            _finish_tracing(args)
    times = {
        p: float(np.mean([r.total_time for r in runs]))
        for p, runs in results.items()
    }
    accs = {
        p: float(np.mean([r.final_accuracy for r in runs]))
        for p, runs in results.items()
    }
    baseline = args.policies[0]
    print(speedup_table(times, baseline=baseline,
                        title=f"training time for {args.rounds} rounds"))
    print()
    print(format_table(["policy", "final accuracy"],
                       [[p, accs[p]] for p in args.policies]))
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    cfg = _scenario_config(args)
    scenario = build_scenario(cfg, seed=args.seed)
    profiling = profile_clients(
        scenario.clients, scenario.model.num_params(), sync_rounds=args.sync_rounds
    )
    assignment = build_tiers(profiling.mean_latencies, num_tiers=args.num_tiers)
    print(assignment.describe())
    family = MNIST_POLICIES if args.dataset in ("mnist", "fmnist") else CIFAR_POLICIES
    rows = []
    for name, probs in family.items():
        if len(probs) != assignment.num_tiers:
            continue
        est = estimate_training_time(
            assignment.mean_latencies, probs, args.rounds
        )
        rows.append([name, est])
    print()
    print(format_table(
        ["policy", f"Eq. 6 estimate for {args.rounds} rounds [s]"], rows
    ))
    return 0


def cmd_privacy(args: argparse.Namespace) -> int:
    base = PrivacyGuarantee(eps=args.eps, delta=args.delta)
    q, amp = uniform_guarantee(base, args.cohort, args.pool)
    print(f"uniform: q={q:.4f} -> (eps={amp.eps:.5f}, delta={amp.delta:.2e})")
    sizes = [args.pool // args.tiers] * args.tiers
    rows = []
    for name, probs in CIFAR_POLICIES.items():
        if len(probs) != args.tiers:
            continue
        rates = tier_sampling_rates(probs, sizes, args.cohort)
        q_max, amp = tiered_guarantee(base, probs, sizes, args.cohort)
        rows.append([name, q_max, amp.eps, f"{amp.delta:.2e}"])
    print(format_table(
        ["policy", "q_max", "eps/round", "delta/round"], rows, float_fmt="{:.4f}"
    ))
    return 0


def cmd_scale(args: argparse.Namespace) -> int:
    """Population-scale run: columnar store + diurnal availability churn."""
    from repro.experiments.scenarios import build_population_scenario
    from repro.fl.selection import RandomSelector
    from repro.fl.server import FLServer
    from repro.rng import derive
    from repro.simcluster.population import DiurnalSchedule

    scn = build_population_scenario(
        num_clients=args.num_clients,
        clients_per_round=args.clients_per_round,
        pool_size=args.pool_size,
        model=args.model,
        heavy_tailed=not args.homogeneous,
        seed=args.seed,
    )
    store = scn.clients
    print(
        f"[scale] {store.num_clients} clients as columns; "
        f"cache capacity {store.cache_size} materialised clients",
        file=sys.stderr,
    )
    selector = RandomSelector(scn.clients_per_round, rng=derive(args.seed, 101))
    tracing = _start_tracing(args, scn.config)
    try:
        with FLServer(
            clients=store,
            model=scn.model,
            selector=selector,
            test_data=scn.test_data,
            training=scn.training,
            eval_every=args.eval_every,
            rng=derive(args.seed, 202),
        ) as server:
            if args.diurnal_period > 0:
                store.attach_diurnal(
                    server.clock,
                    DiurnalSchedule(
                        period=args.diurnal_period,
                        duty_cycle=args.duty_cycle,
                        num_phases=args.diurnal_phases,
                    ),
                )
                print(
                    f"[scale] diurnal churn: period {args.diurnal_period:g}s, "
                    f"duty cycle {args.duty_cycle:g}, "
                    f"{args.diurnal_phases} phase groups; "
                    f"{store.availability_fraction():.1%} available at t=0",
                    file=sys.stderr,
                )
            history = server.run(args.rounds)
    finally:
        if tracing:
            _finish_tracing(args)
    print(history.summary())
    print(
        f"population: {store.num_clients} clients, "
        f"{store.materialize_count} materialisations, "
        f"{store.resident} resident (cache {store.cache_size}), "
        f"{store.availability_fraction():.1%} available at end"
    )
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    from repro.distributed import WorkerAgent, parse_endpoint

    try:
        host, port = parse_endpoint(args.connect)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    agent = WorkerAgent(
        host, port, capacity=args.capacity,
        connect_timeout=args.connect_timeout,
        reconnect_grace=args.reconnect_grace,
    )
    return agent.run()


def cmd_report(args: argparse.Namespace) -> int:
    from repro.telemetry.report import report_main

    print(report_main(args.trace, validate_only=args.validate))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli", description="TiFL reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train one policy")
    _add_scenario_args(p_run)
    _add_executor_args(p_run)
    _add_observability_args(p_run)
    p_run.add_argument("--policy", default="adaptive")
    p_run.add_argument("--rounds", type=int, default=60)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="train several policies")
    _add_scenario_args(p_cmp)
    _add_executor_args(p_cmp)
    _add_observability_args(p_cmp)
    p_cmp.add_argument("--policies", nargs="+",
                       default=["vanilla", "uniform", "adaptive"])
    p_cmp.add_argument("--rounds", type=int, default=60)
    p_cmp.add_argument("--repeats", type=int, default=1)
    p_cmp.set_defaults(func=cmd_compare)

    p_est = sub.add_parser("estimate", help="Eq. 6 training-time estimates")
    _add_scenario_args(p_est)
    p_est.add_argument("--rounds", type=int, default=500)
    p_est.add_argument("--num-tiers", type=int, default=5)
    p_est.add_argument("--sync-rounds", type=int, default=3)
    p_est.set_defaults(func=cmd_estimate)

    p_priv = sub.add_parser("privacy", help="Sec. 4.6 amplification table")
    p_priv.add_argument("--pool", type=int, default=50)
    p_priv.add_argument("--cohort", type=int, default=5)
    p_priv.add_argument("--tiers", type=int, default=5)
    p_priv.add_argument("--eps", type=float, default=0.5)
    p_priv.add_argument("--delta", type=float, default=1e-5)
    p_priv.set_defaults(func=cmd_privacy)

    p_wrk = sub.add_parser(
        "worker", help="join a distributed coordinator as a training agent"
    )
    p_wrk.add_argument("--connect", required=True, metavar="HOST:PORT",
                       help="coordinator endpoint to connect to")
    p_wrk.add_argument("--capacity", type=_positive_int, default=1,
                       help="relative share of clients to pin to this worker")
    p_wrk.add_argument("--connect-timeout", type=float, default=30.0,
                       help="seconds to keep retrying the initial connect")
    p_wrk.add_argument("--reconnect-grace", type=float, default=30.0,
                       metavar="SECONDS",
                       help="after an established connection drops, keep "
                            "re-dialling the coordinator for this long and "
                            "resume the session with its token (0 disables "
                            "reconnection)")
    p_wrk.add_argument("--log-level", default="info",
                       choices=["debug", "info", "warning", "error",
                                "critical"],
                       help="threshold for the shared repro logger")
    p_wrk.set_defaults(func=cmd_worker)

    p_scl = sub.add_parser(
        "scale",
        help="population-scale run: columnar client store, heavy-tailed "
             "capacities, diurnal availability churn",
    )
    p_scl.add_argument("--num-clients", type=_positive_int, default=100_000)
    p_scl.add_argument("--clients-per-round", type=_positive_int, default=20)
    p_scl.add_argument("--rounds", type=_positive_int, default=5)
    p_scl.add_argument("--pool-size", type=_positive_int, default=2048,
                       help="shared synthetic sample pool clients subset")
    p_scl.add_argument("--model", default="linear")
    p_scl.add_argument("--eval-every", type=int, default=1)
    p_scl.add_argument("--seed", type=int, default=0)
    p_scl.add_argument("--homogeneous", action="store_true",
                       help="identical capacities instead of the default "
                            "heavy-tailed (log-normal) CPU/bandwidth draws")
    p_scl.add_argument("--diurnal-period", type=float, default=86400.0,
                       metavar="SECONDS",
                       help="diurnal availability period (0 disables churn: "
                            "everyone stays available)")
    p_scl.add_argument("--duty-cycle", type=float, default=0.5,
                       help="fraction of each period a phase group is online")
    p_scl.add_argument("--diurnal-phases", type=_positive_int, default=24,
                       help="staggered phase groups per period")
    _add_observability_args(p_scl)
    p_scl.set_defaults(func=cmd_scale)

    p_rep = sub.add_parser(
        "report", help="summarize a --trace-out JSONL telemetry trace"
    )
    p_rep.add_argument("trace", help="path to a trace.jsonl file")
    p_rep.add_argument("--validate", action="store_true",
                       help="only validate the trace against the schema "
                            "(exit 0 on a valid file)")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "log_level"):
        from repro.telemetry.log import configure_logging

        configure_logging(args.log_level)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
