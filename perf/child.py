"""One workload, one fresh process: set-up, measured rounds, checks.

Run by ``bench.py`` only.  ``T0`` is taken before ``numpy`` or ``repro``
is imported, so ``setup_s`` includes the imports.  The result is one JSON
object on the last stdout line, prefixed by ``RESULT_MARKER``.
"""

import os
import sys
import time

T0 = time.perf_counter()

# One BLAS thread per process: oversubscribing 2 cores with 2 workers x
# N BLAS threads moves s/round by tens of percent.  Set before numpy
# loads; worker subprocesses inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, PERF_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(PERF_DIR), "src"))

import workloads  # noqa: E402
from workloads import RESULT_MARKER  # noqa: E402


def _hex(value):
    return None if value is None else float(value).hex()


def _hash_prefix(sha, records, weights) -> None:
    """Every RoundRecord field, floats as exact hex, then the weights."""
    for rec in records:
        tiers = rec.tier_accuracies
        sha.update(repr((
            rec.round_idx, _hex(rec.round_latency), _hex(rec.sim_time),
            _hex(rec.accuracy), tuple(int(c) for c in rec.selected),
            rec.tier, tuple(int(c) for c in rec.dropped),
            None if tiers is None
            else sorted((int(t), _hex(a)) for t, a in tiers.items()),
        )).encode())
    sha.update(weights.tobytes())


def _make_executor(name: str, stack: contextlib.ExitStack):
    """Executor + (for loopback) its worker subprocesses, both released
    by ``stack``: ``close`` first (SHUTDOWN), then the reap."""
    if name == "distributed":
        from repro.distributed import (
            DistributedExecutor,
            spawn_local_workers,
            terminate_workers,
        )

        executor = DistributedExecutor(workers=workloads.WORKERS)
        procs = spawn_local_workers(executor.listen(), workloads.WORKERS)
        stack.callback(terminate_workers, procs)
    else:
        from repro.execution import create_executor

        executor = create_executor(name, workers=workloads.WORKERS)
    stack.callback(executor.close)
    return executor


def _transport_facts(executor, store) -> dict:
    """Cumulative counters the backends keep themselves (no tracing)."""
    facts = {"materialized": store.materialize_count if store is not None else 0}
    if hasattr(executor, "bytes_received"):
        from repro.distributed import MsgType

        facts["wire_bytes"] = executor.bytes_sent + executor.bytes_received
        facts["broadcast_bytes"] = executor.bytes_sent_by_type.get(
            int(MsgType.BROADCAST), 0
        )
        facts["update_bytes"] = executor.bytes_received_by_type.get(
            int(MsgType.UPDATE), 0
        )
        facts["workers_alive"] = executor.num_workers_started
    if hasattr(executor, "bytes_shipped"):
        facts["ipc_bytes"] = executor.bytes_shipped
    return facts


def _federation_failures(label, history, fed, stop_after, full_length) -> list:
    """The per-federation correctness checks (README.md lists them)."""
    import numpy as np

    failures = []
    records = history.records
    if len(records) != stop_after + 1:
        failures.append(f"{label}: {len(records)} records, expected {stop_after + 1}")
    if not all(r.accuracy is not None and np.isfinite(r.accuracy) for r in records):
        failures.append(f"{label}: a round has no finite accuracy")
    if full_length and history.final_accuracy < workloads.MIN_FINAL_ACCURACY:
        failures.append(
            f"{label}: final accuracy {history.final_accuracy:.3f} "
            f"< {workloads.MIN_FINAL_ACCURACY}"
        )
    store = fed.store
    if store is not None:
        # Only a cohort's worth of clients may be built per round once the
        # population no longer fits the LRU.
        budget = fed.scenario.clients_per_round * (stop_after + 1)
        if store.num_clients > store.cache_size and store.materialize_count > budget:
            failures.append(
                f"{label}: {store.materialize_count} materialisations "
                f"> cohort x rounds = {budget}"
            )
        if store.resident > store.cache_size:
            failures.append(f"{label}: resident > cache_size")
    return failures


def measure(w, args, tracer) -> dict:
    import numpy as np

    rounds = args.rounds
    stop_after = rounds if args.stop_after is None else args.stop_after
    checkpoints = sorted(
        k for k in {0, min(workloads.PREFIX_ROUNDS, rounds), rounds}
        if k <= stop_after
    )
    shas = {k: hashlib.sha256() for k in checkpoints}
    failures = []
    round_s = []
    setup_s = 0.0
    sim_time = {}
    final_accuracy = {}
    attempted = completed = 0
    at_round0 = at_end = {}
    worker_busy_share = None
    mark = T0

    for label in w.federations:
        attempted += stop_after + 1
        with contextlib.ExitStack() as stack:
            fed = w.build(label, args.seed, rounds + 1)
            spawned = time.perf_counter()
            executor = _make_executor(args.executor or w.executor, stack)
            if tracer is not None:
                tracer.wrap_executor(type(executor))
                from repro.codec import get_codec

                tracer.wrap_codec(type(get_codec(fed.scenario.training.codec)))
            server = fed.make_server(executor)
            try:
                server.run_round(0)
                completed += 1
                at_round0 = _transport_facts(executor, fed.store)
                if 0 in shas:
                    _hash_prefix(shas[0], server.history.records[:1],
                                 server.global_weights)
                setup_s += time.perf_counter() - mark

                if tracer is not None:
                    tracer.phase = "run"
                for r in range(1, stop_after + 1):
                    if tracer is not None:
                        tracer.round = r
                    start = time.perf_counter()
                    server.run_round(r)
                    round_s.append(time.perf_counter() - start)
                    completed += 1
                    if r in shas:
                        _hash_prefix(shas[r], server.history.records[: r + 1],
                                     server.global_weights)
            except Exception as exc:  # a failed round fails the run, loudly
                failures.append(f"{label}: round raised {type(exc).__name__}: {exc}")
                break
            finally:
                if tracer is not None:
                    tracer.phase = "close"
            at_end = _transport_facts(executor, fed.store)
            sim_time[label] = server.history.total_time
            final_accuracy[label] = server.history.final_accuracy
            failures += _federation_failures(
                label, server.history, fed, stop_after,
                full_length=stop_after >= w.rounds,
            )
        # ExitStack has closed the executor and reaped the workers.
        summaries = getattr(executor, "worker_summaries", None)
        if summaries:
            wall = time.perf_counter() - spawned
            busy = [float(s.get("busy_s", 0.0)) for s in summaries.values()]
            worker_busy_share = sum(busy) / (len(busy) * wall)
        if tracer is not None:
            tracer.phase = "setup"
            tracer.round = 0
        mark = time.perf_counter()

    if "vanilla" in sim_time and stop_after >= w.rounds:
        # The paper's headline shape: tiering cuts simulated training time.
        for label in set(sim_time) - {"vanilla"}:
            if not sim_time[label] < sim_time["vanilla"]:
                failures.append(
                    f"simulated total_time of {label} ({sim_time[label]:.1f}s) "
                    f"is not below vanilla ({sim_time['vanilla']:.1f}s)"
                )

    measured = max(1, len(round_s))
    run_s = float(sum(round_s))
    per_round = {
        key: (at_end[key] - at_round0[key]) / measured
        for key in ("wire_bytes", "broadcast_bytes", "update_bytes", "ipc_bytes")
        if key in at_end and key in at_round0
    }
    facts = {
        "run_s": run_s,
        "materialized_run": at_end.get("materialized", 0)
        - at_round0.get("materialized", 0),
        "setup_wire_bytes": at_round0.get("wire_bytes"),
        "per_round": per_round,
        "workers_lost": (
            workloads.WORKERS - at_end["workers_alive"]
            if "workers_alive" in at_end else None
        ),
        "worker_busy_share": worker_busy_share,
        "worker_peak_rss_mb": resource.getrusage(
            resource.RUSAGE_CHILDREN
        ).ru_maxrss / 1024.0,
    }
    result = {
        "workload": w.name,
        "seed": args.seed,
        "rounds": rounds,
        "stop_after": stop_after,
        "executor": args.executor or w.executor,
        "traced": tracer is not None,
        "attempted": attempted,
        "failed": attempted - completed,
        "failures": failures,
        "digests": {
            str(k): sha.hexdigest() for k, sha in shas.items()
            if completed == attempted
        },
        "setup_s": setup_s,
        "run_s": run_s,
        "round_s": round_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wire_bytes_per_round": per_round.get("wire_bytes"),
        "final_accuracy": final_accuracy,
        "sim_total_time": sim_time,
        "numpy": np.__version__,
    }
    if tracer is not None:
        import spans

        result["layers"] = spans.layer_metrics(tracer, facts)
        result["missing_targets"] = list(tracer.missing)
        tracer.dump(args.trace_out, {
            "workload": w.name, "seed": args.seed, "rounds": rounds,
        })
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BY_NAME))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rounds", type=int, required=True,
                    help="measured rounds per federation the run is sized for")
    ap.add_argument("--stop-after", type=int, default=None,
                    help="stop after this round (0 = set-up only)")
    ap.add_argument("--executor", default=None,
                    help="override the backend (the serial reference child)")
    ap.add_argument("--trace-out", default=None,
                    help="trace this child and write its spans here")
    args = ap.parse_args(argv)
    w = workloads.BY_NAME[args.workload]

    tracer = None
    if args.trace_out:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    result = measure(w, args, tracer)
    print(RESULT_MARKER + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
