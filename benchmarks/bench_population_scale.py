"""Population-scale benchmark: O(cohort) rounds over 10^3..10^6 clients.

Builds the columnar population scenario
(:func:`repro.experiments.scenarios.build_population_scenario`) at each
population size, measures store build time, per-round wall time and peak
RSS, and hard-gates the tentpole claim: with a fixed 20-client cohort,
per-round cost must stay **flat** (< 2x) from the smallest to the
largest population -- the round loop touches the cohort plus vectorised
columns, never one object per client.

Each population size runs in its own subprocess so peak-RSS readings
(``VmHWM``) never inherit a previous size's high-water mark.

A second hard gate re-checks bit-identity at small N: a
``build_scenario`` federation must produce *exactly* the serial
executor's history on the thread, process and distributed executors.
(That history equals the retired eager list builder's; the literals are
pinned in ``tests/experiments/test_runner.py``.)

A third hard gate checks the population-sharding claim for the
multi-process backends (``process`` and ``distributed``): with a fixed
cohort, the recurring shipped bytes per round must stay **flat** (< 2x)
from 10^3 to 10^5 clients (workers hold column shards, so per-round
frames reference client ids only), the sharded history must be
bit-identical to the serial store path at the same N, and the
coordinator-side store must never materialise more than O(cohort x
rounds) clients.

Usage::

    python benchmarks/bench_population_scale.py                  # 10^3..10^6
    python benchmarks/bench_population_scale.py --max-clients 100000 \\
        --rounds 3                                               # CI smoke
    python benchmarks/bench_population_scale.py --executor process \\
        --max-clients 100000 --rounds 3      # sharding gate, one backend

Exit status is non-zero when any gate fails.  Results land in
``BENCH_population_scale.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import telemetry  # noqa: E402

DEFAULT_SIZES = (1_000, 10_000, 100_000, 1_000_000)
FLATNESS_GATE = 2.0  # max allowed per-round slowdown, smallest -> largest N
SHARDED_BACKENDS = ("process", "distributed")
SHARDED_SIZES = (1_000, 100_000)  # bytes/round must be flat across these


def _rss_kb(field: str) -> float:
    """Read ``VmRSS`` / ``VmHWM`` (kB) from /proc; -1 when unavailable."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return float(line.split()[1])
    except OSError:
        pass
    return -1.0


def run_single(num_clients: int, rounds: int, cohort: int, seed: int) -> dict:
    """One population size, in-process: build, train, report timings."""
    from repro.experiments.scenarios import build_population_scenario
    from repro.fl.selection import RandomSelector
    from repro.fl.server import FLServer
    from repro.rng import derive
    from repro.simcluster.population import DiurnalSchedule

    start = time.perf_counter()
    scn = build_population_scenario(
        num_clients=num_clients, clients_per_round=cohort, seed=seed
    )
    build_s = time.perf_counter() - start
    store = scn.population
    rss_after_build_kb = _rss_kb("VmRSS")

    with FLServer(
        clients=store,
        model=scn.model,
        selector=RandomSelector(cohort, rng=derive(seed, 101)),
        test_data=scn.test_data,
        training=scn.training,
        rng=derive(seed, 202),
    ) as server:
        # Diurnal churn on: rounds must stay O(cohort) even while the
        # event clock is flipping availability buckets.
        store.attach_diurnal(
            server.clock, DiurnalSchedule(period=3600.0, duty_cycle=0.75)
        )
        server.run(1)  # warmup round outside the timer
        start = time.perf_counter()
        server.run(rounds, start_round=1)
        per_round_s = (time.perf_counter() - start) / rounds

    return {
        "num_clients": num_clients,
        "build_s": build_s,
        "per_round_s": per_round_s,
        "rss_after_build_kb": rss_after_build_kb,
        "peak_rss_kb": _rss_kb("VmHWM"),
        "materializations": store.materialize_count,
        "resident": store.resident,
    }


def run_sharded(backend: str, num_clients: int, rounds: int, cohort: int,
                seed: int) -> dict:
    """One sharded point: bytes/round, history vs serial, materialisations.

    Runs the serial store reference and the sharded backend at the same
    (N, seed) in this process, so histories compare exactly.  The first
    round is a warm-up (it absorbs the one-time shard ship and worker
    start); recurring bytes/round are measured over the remaining rounds.
    """
    from repro.experiments.scenarios import build_population_scenario
    from repro.fl.selection import RandomSelector
    from repro.fl.server import FLServer
    from repro.rng import derive

    def run(executor, bytes_fn):
        scn = build_population_scenario(
            num_clients=num_clients, clients_per_round=cohort, seed=seed
        )
        store = scn.population
        with FLServer(
            clients=store,
            model=scn.model,
            selector=RandomSelector(cohort, rng=derive(seed, 101)),
            test_data=scn.test_data,
            training=scn.training,
            rng=derive(seed, 202),
            executor=executor,
        ) as server:
            # Warm-up round absorbs the one-time shard ship + start-up.
            history = server.run(1)
            bytes0 = bytes_fn()
            t0 = time.perf_counter()
            if rounds > 1:
                history = server.run(rounds - 1, start_round=1)
            elapsed = time.perf_counter() - t0
        return history, store, bytes_fn() - bytes0, elapsed

    ref_history, _, _, _ = run("serial", lambda: 0)

    procs = None
    if backend == "process":
        from repro.execution.process import ProcessExecutor
        ex = ProcessExecutor(workers=2)
        recurring = lambda: ex.bytes_shipped  # noqa: E731
        shard_fn = lambda: (ex.shard_ships, ex.shard_bytes)  # noqa: E731
    elif backend == "distributed":
        from repro.distributed import (
            DistributedExecutor, spawn_local_workers, terminate_workers,
        )
        from repro.distributed import protocol as proto
        ex = DistributedExecutor(
            workers=2, accept_timeout=120.0, result_timeout=600.0
        )
        procs = spawn_local_workers(ex.listen(), 2)
        recurring = lambda: ex.bytes_sent + ex.bytes_received  # noqa: E731
        shard_fn = lambda: (  # noqa: E731
            ex.frames_sent_by_type.get(int(proto.MsgType.ASSIGN_SHARD), 0),
            ex.bytes_sent_by_type.get(int(proto.MsgType.ASSIGN_SHARD), 0),
        )
    else:
        raise ValueError(f"unknown sharded backend {backend!r}")

    try:
        history, store, delta_bytes, elapsed = run(ex, recurring)
        measured = max(1, rounds - 1)
        bytes_per_round = delta_bytes / measured
        shard_ships, shard_bytes = shard_fn()
        materializations = store.materialize_count
    finally:
        ex.close()
        if procs is not None:
            terminate_workers(procs)

    # Coordinator must never materialise the population: the only
    # per-round materialisation it is allowed is the cohort latency
    # draw, so O(cohort x rounds) bounds it with slack for the LRU.
    mat_budget = max(cohort * rounds * 4, 64)
    return {
        "backend": backend,
        "num_clients": num_clients,
        "bytes_per_round": float(bytes_per_round),
        "shard_ships": int(shard_ships),
        "shard_bytes": int(shard_bytes),
        "per_round_s": elapsed / measured,
        "identical": history.records == ref_history.records,
        "materializations": int(materializations),
        "mat_gate": bool(
            materializations <= mat_budget and materializations < num_clients
        ),
    }


def check_bit_identity(seed: int) -> dict:
    """Every backend's history vs the serial run's, at small N."""
    from repro.distributed import (
        DistributedExecutor, spawn_local_workers, terminate_workers,
    )
    from repro.experiments.runner import run_policy
    from repro.experiments.scenarios import ScenarioConfig

    cfg = ScenarioConfig(
        dataset="mnist", num_clients=20, clients_per_round=5,
        train_size=400, test_size=60,
    )

    def one(backend):
        workers = 1 if backend == "serial" else 2
        if backend == "distributed":
            # Bind-once executors cannot be reused across pools; spin a
            # fresh loopback coordinator + worker pair per run.
            ex = DistributedExecutor(
                workers=workers, accept_timeout=120.0, result_timeout=600.0
            )
            procs = spawn_local_workers(ex.listen(), workers)
            try:
                return run_policy(
                    cfg, "vanilla", rounds=2, seed=seed, executor=ex
                )
            finally:
                ex.close()
                terminate_workers(procs)
        return run_policy(
            cfg, "vanilla", rounds=2, seed=seed,
            executor=backend, workers=workers,
        )

    serial = one("serial").history.records
    return {
        backend: one(backend).history.records == serial
        for backend in ("serial", "thread", "process", "distributed")
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", nargs="+", type=int, default=list(DEFAULT_SIZES))
    ap.add_argument("--max-clients", type=int, default=None,
                    help="drop population sizes above this (CI caps at 1e5)")
    ap.add_argument("--rounds", type=int, default=5,
                    help="measured rounds per population size")
    ap.add_argument("--cohort", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--single", type=int, default=None, metavar="N",
                    help="internal: run one population size and print JSON")
    ap.add_argument("--single-sharded", type=int, default=None, metavar="N",
                    help="internal: run one sharded point (with --executor) "
                         "and print JSON")
    ap.add_argument("--executor", choices=SHARDED_BACKENDS, default=None,
                    help="restrict the sharding gate to one backend "
                         "(default: both process and distributed)")
    ap.add_argument("--json", metavar="PATH",
                    default="BENCH_population_scale.json",
                    help="machine-readable output ('' disables)")
    args = ap.parse_args(argv)

    if args.single is not None:
        row = run_single(args.single, args.rounds, args.cohort, args.seed)
        print(json.dumps(row))
        return 0

    if args.single_sharded is not None:
        if args.executor is None:
            print("error: --single-sharded requires --executor",
                  file=sys.stderr)
            return 2
        row = run_sharded(
            args.executor, args.single_sharded, args.rounds, args.cohort,
            args.seed,
        )
        print(json.dumps(row))
        return 0

    sizes = sorted(
        n for n in args.sizes
        if args.max_clients is None or n <= args.max_clients
    )
    if not sizes:
        print("error: no population sizes left after --max-clients filter",
              file=sys.stderr)
        return 2

    print(
        f"population scale: N in {sizes}, cohort {args.cohort}, "
        f"{args.rounds} measured round(s) each (subprocess per size)"
    )
    rows = []
    for n in sizes:
        cmd = [
            sys.executable, os.path.abspath(__file__),
            "--single", str(n), "--rounds", str(args.rounds),
            "--cohort", str(args.cohort), "--seed", str(args.seed),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"error: N={n} run failed:\n{proc.stderr}", file=sys.stderr)
            return 1
        rows.append(json.loads(proc.stdout.strip().splitlines()[-1]))

    print(f"{'N':>9} {'build s':>9} {'s/round':>9} {'peak RSS':>10} "
          f"{'materialised':>13}")
    for row in rows:
        print(
            f"{row['num_clients']:>9} {row['build_s']:>9.3f} "
            f"{row['per_round_s']:>9.4f} "
            f"{row['peak_rss_kb'] / 1024:>8.1f}MB "
            f"{row['materializations']:>13}"
        )

    ratio = rows[-1]["per_round_s"] / rows[0]["per_round_s"]
    flat = ratio < FLATNESS_GATE
    print(
        f"per-round cost {rows[0]['num_clients']} -> "
        f"{rows[-1]['num_clients']} clients: {ratio:.2f}x "
        f"(gate: < {FLATNESS_GATE}x) -> {'PASS' if flat else 'FAIL'}"
    )

    identity = check_bit_identity(args.seed)
    identical = all(identity.values())
    for backend, same in identity.items():
        print(f"backend-vs-serial bit-identity [{backend}]: "
              f"{'PASS' if same else 'FAIL'}")

    # ---- sharding gate: worker-side shards keep shipped bytes/round
    # flat in N, the history bit-identical to the serial store path,
    # and the coordinator's materialisations O(cohort x rounds).
    sharded_backends = (
        (args.executor,) if args.executor else SHARDED_BACKENDS
    )
    sharded_sizes = sorted(
        n for n in SHARDED_SIZES
        if args.max_clients is None or n <= args.max_clients
    )
    sharding = {}
    sharding_ok = True
    for backend in sharded_backends if sharded_sizes else ():
        brows = []
        for n in sharded_sizes:
            cmd = [
                sys.executable, os.path.abspath(__file__),
                "--single-sharded", str(n), "--executor", backend,
                "--rounds", str(args.rounds),
                "--cohort", str(args.cohort), "--seed", str(args.seed),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"error: sharded {backend} N={n} run failed:\n"
                      f"{proc.stderr}", file=sys.stderr)
                return 1
            brows.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        bytes_ratio = (
            brows[-1]["bytes_per_round"] / max(brows[0]["bytes_per_round"], 1)
        )
        flat_bytes = bytes_ratio < FLATNESS_GATE
        b_identical = all(r["identical"] for r in brows)
        mat_ok = all(r["mat_gate"] for r in brows)
        ok = flat_bytes and b_identical and mat_ok
        sharding_ok = sharding_ok and ok
        for r in brows:
            print(
                f"sharded [{backend}] N={r['num_clients']}: "
                f"{r['bytes_per_round'] / 1024:.1f}KB/round, "
                f"shard ship {r['shard_bytes'] / 1024:.1f}KB "
                f"x{r['shard_ships']}, "
                f"{r['materializations']} coordinator materialisations"
            )
        print(
            f"sharded [{backend}] bytes/round "
            f"{brows[0]['num_clients']} -> {brows[-1]['num_clients']}: "
            f"{bytes_ratio:.2f}x (gate: < {FLATNESS_GATE}x), "
            f"history {'identical' if b_identical else 'DIVERGED'}, "
            f"materialisation gate "
            f"{'PASS' if mat_ok else 'FAIL'} -> "
            f"{'PASS' if ok else 'FAIL'}"
        )
        sharding[backend] = {
            "runs": {str(r["num_clients"]): r for r in brows},
            "bytes_ratio": bytes_ratio,
            "flat": flat_bytes,
            "identical": b_identical,
            "mat_gate": mat_ok,
            "ok": ok,
        }

    if args.json:
        payload = {
            "benchmark": "population_scale",
            "meta": telemetry.run_metadata(config={
                "sizes": sizes, "rounds": args.rounds,
                "cohort": args.cohort, "seed": args.seed,
            }),
            "flatness_gate": FLATNESS_GATE,
            "per_round_ratio": ratio,
            "flat": flat,
            "bit_identity": identity,
            "sharding": sharding,
            "runs": {str(row["num_clients"]): row for row in rows},
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")

    return 0 if (flat and identical and sharding_ok) else 1


if __name__ == "__main__":
    sys.exit(main())
