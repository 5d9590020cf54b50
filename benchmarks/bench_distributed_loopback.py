"""Distributed-executor loopback benchmark: s/round and bytes-on-wire.

Runs identical full-cohort rounds through the in-process backends and
through the distributed coordinator driving real worker subprocesses on
127.0.0.1, then reports seconds-per-round, the distributed backend's
network cost (one-time setup bytes for shipping clients + model, and
steady-state bytes per round for weight broadcast + updates) **per
weight-transport codec** (raw vs delta vs quantized, see
:mod:`repro.codec`), and -- the non-negotiable -- bit-identity of every
lossless backend's final global weights.

Loopback numbers are the *floor* for distributed overhead: real networks
add propagation delay on top, but serialization cost, protocol chatter
and bytes-on-wire are exactly what a multi-node deployment will see.

The delta codec's savings grow with convergence (its payload is the
compressed ULP distance between consecutive weight vectors), so the
steady-state measurement supports ``--warmup-rounds N``: N untimed,
uncounted rounds run first, then ``--rounds`` measured rounds.  On a
converged run (``--warmup-rounds 50``) delta cuts steady-state
bytes/round by >= 30%; from a cold start the cut is smaller because
early-training deltas carry more entropy.

Bit-identity of the lossless codecs (raw, delta) against serial is the
hard gate (non-zero exit on divergence); the quantized codec is lossy by
design and reports its weight drift instead.  A converged run
(``--warmup-rounds`` >= 50 with both ``raw`` and ``delta``) additionally
fails unless delta cuts steady-state bytes/round by >= 30%.  With
``delta`` among the codecs the report ends with the payload broken down
by byte plane (mode, bytes, encode ms): which planes were elided,
stored or deflated, and what each cost.

Usage::

    python benchmarks/bench_distributed_loopback.py                # full run
    python benchmarks/bench_distributed_loopback.py --rounds 2 \\
        --clients 10 --samples-per-client 60                       # CI smoke
    python benchmarks/bench_distributed_loopback.py --rounds 10 \\
        --warmup-rounds 50 --codecs raw delta       # steady-state codec cut
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import telemetry  # noqa: E402
from repro.codec import get_codec  # noqa: E402
from repro.config import TrainingConfig  # noqa: E402
from repro.execution import TrainRequest, create_executor  # noqa: E402
from repro.distributed import (  # noqa: E402
    DistributedExecutor,
    spawn_local_workers,
    terminate_workers,
)
from repro.fl.aggregator import fedavg  # noqa: E402

sys.path.insert(0, os.path.dirname(__file__))
from bench_executor_throughput import build_federation  # noqa: E402


def bench_backend(
    backend, workers, clients, model, training, rounds, warmup_rounds=0
):
    """Time full-cohort rounds; returns (s/round, weights, wire_stats).

    ``training.codec`` selects the wire codec for the distributed
    backend; ``warmup_rounds`` rounds run before the measured window
    (their bytes are folded into ``setup_bytes``), so the reported
    ``bytes_per_round`` is the steady state of a converging run.
    """
    pool = {c.client_id: c for c in clients}
    global_weights = model.get_flat_weights()
    requests = [TrainRequest(cid, epochs=training.epochs) for cid in sorted(pool)]
    procs = []
    if backend == "distributed":
        executor = DistributedExecutor(workers=workers)
        executor.bind(pool, model, training)
        procs = spawn_local_workers(executor.listen(), workers)
    else:
        executor = create_executor(backend, workers=workers)
        executor.bind(pool, model, training)
    wire = None
    try:
        # Warm-up outside the timer: registration, client shipment,
        # replica/worker start-up -- plus any convergence warm-up rounds
        # requested for the steady-state byte measurement.
        executor.train_cohort(0, requests[:1], global_weights)
        for r in range(warmup_rounds):
            updates = executor.train_cohort(r + 1, requests, global_weights)
            global_weights = fedavg(
                [u.flat_weights for u in updates],
                [float(u.num_samples) for u in updates],
            )
        setup_bytes = (
            executor.bytes_sent + executor.bytes_received
            if backend == "distributed"
            else 0
        )
        # The measured window is read back from the telemetry
        # executor.train_cohort spans (the same spans a --trace-out
        # trace records), with a stopwatch fallback for telemetry-off.
        telemetry.clear_spans()
        start = time.perf_counter()
        for r in range(rounds):
            updates = executor.train_cohort(
                warmup_rounds + r + 1, requests, global_weights
            )
            global_weights = fedavg(
                [u.flat_weights for u in updates],
                [float(u.num_samples) for u in updates],
            )
        elapsed = time.perf_counter() - start
        if telemetry.enabled():
            elapsed = sum(
                s.duration
                for s in telemetry.span_records("executor.train_cohort")
            )
        if backend == "distributed":
            total = executor.bytes_sent + executor.bytes_received
            wire = {
                "setup_bytes": setup_bytes,
                "bytes_per_round": (total - setup_bytes) / rounds,
            }
    finally:
        executor.close()
        if procs:
            terminate_workers(procs)
    return elapsed / rounds, global_weights, wire


#: A converged run (``--warmup-rounds`` at least this long) must show the
#: delta codec cutting steady-state bytes/round by DELTA_MIN_SAVING vs
#: raw, or the benchmark exits non-zero: the codec's reason to exist.
CONVERGED_WARMUP_ROUNDS = 50
DELTA_MIN_SAVING = 0.30


def bench_delta_planes(
    num_clients, samples_per_client, seed, rounds, warmup_rounds, training
):
    """Per byte plane of the delta payload: mode, bytes, encode ms.

    Runs one serial federation, snapshots the global weights after every
    round, then splits each consecutive steady-state (baseline, weights)
    pair into the 8 byte planes of its zigzag ULP distances -- the same
    payloads the distributed BROADCAST hot path would ship -- and encodes
    every plane on its own.  The whole-vector encode is also timed and
    round-trip-checked against the raw vector.
    """
    from repro.codec import PLANE_MODES, DeltaCodec

    clients, model = build_federation(num_clients, samples_per_client, seed)
    pool = {c.client_id: c for c in clients}
    executor = create_executor("serial")
    executor.bind(pool, model, training)
    weights = model.get_flat_weights()
    snapshots = [weights]
    requests = [TrainRequest(cid, epochs=training.epochs) for cid in sorted(pool)]
    try:
        for r in range(warmup_rounds + rounds):
            updates = executor.train_cohort(r, requests, weights)
            weights = fedavg(
                [u.flat_weights for u in updates],
                [float(u.num_samples) for u in updates],
            )
            snapshots.append(weights)
    finally:
        executor.close()
    # Steady-state pairs only: skip the warmup transitions, like the
    # distributed bytes/round measurement does.
    pairs = list(zip(snapshots[warmup_rounds:-1], snapshots[warmup_rounds + 1:]))
    codec = DeltaCodec()
    planes = [{"modes": {}, "bytes": 0.0, "encode_ms": 0.0} for _ in range(8)]
    for base, w in pairs:
        word_bytes = codec.planes(w, baseline=base)
        for j, row in enumerate(planes):
            plane = np.ascontiguousarray(word_bytes[:, j])
            start = time.perf_counter()
            mode, body = codec.encode_plane(plane)
            row["encode_ms"] += 1e3 * (time.perf_counter() - start) / len(pairs)
            row["bytes"] += len(body) / len(pairs)
            name = PLANE_MODES[mode]
            row["modes"][name] = row["modes"].get(name, 0) + 1
    start = time.perf_counter()
    payloads = [codec.encode(w, baseline=base) for base, w in pairs]
    encode_s = time.perf_counter() - start
    report = {
        "planes": planes,
        "bytes_per_round": sum(len(p) for p in payloads) / len(pairs),
        "encode_s_per_round": encode_s / len(pairs),
        "lossless_roundtrip": all(
            codec.decode(p, w.size, baseline=base).tobytes() == w.tobytes()
            for (base, w), p in zip(pairs, payloads)
        ),
    }
    raw_bytes = pairs[0][1].nbytes
    print(f"\ndelta payload by byte plane ({len(pairs)} steady-state "
          f"round(s), raw weights {raw_bytes / 1e6:.2f} MB, "
          f"{raw_bytes // 8} bytes per plane):")
    print(f"{'plane':>5} {'mode':<22} {'bytes':>9} {'encode ms':>10}")
    for j, row in enumerate(planes):
        modes = ", ".join(f"{m} x{c}" for m, c in sorted(row["modes"].items()))
        print(f"{j:>5} {modes:<22} {row['bytes']:>9.0f} {row['encode_ms']:>10.3f}")
    print(
        f"whole vector: {report['bytes_per_round'] / 1e6:.3f} MB "
        f"({100 * (1 - report['bytes_per_round'] / raw_bytes):+.1f}% vs raw), "
        f"{1e3 * report['encode_s_per_round']:.2f} ms/encode"
    )
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--clients", type=int, default=50)
    ap.add_argument("--samples-per-client", type=int, default=120)
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--warmup-rounds", type=int, default=0,
                    help="uncounted convergence rounds before the measured "
                         "window (steady-state bytes/round measurement)")
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--backends", nargs="+", default=["serial", "process", "distributed"],
        choices=["serial", "thread", "process", "distributed"],
    )
    ap.add_argument(
        "--codecs", nargs="+", default=["raw", "delta", "quantized"],
        choices=["raw", "delta", "quantized"],
        help="weight-transport codecs to benchmark on the distributed "
             "backend (one full run each)",
    )
    ap.add_argument(
        "--json", metavar="PATH", default="BENCH_distributed_loopback.json",
        help="machine-readable output ('' disables)",
    )
    ap.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="also write a JSONL telemetry trace of the benchmark runs",
    )
    args = ap.parse_args(argv)
    training = TrainingConfig(optimizer="rmsprop", lr=0.01, batch_size=10)

    config = {
        "clients": args.clients,
        "samples_per_client": args.samples_per_client,
        "rounds": args.rounds,
        "warmup_rounds": args.warmup_rounds,
        "workers": args.workers,
        "seed": args.seed,
    }
    meta = telemetry.run_metadata(config=config)
    # Bench timings are read from executor.train_cohort spans, so the
    # numbers reported here are the ones the trace records.
    telemetry.configure(enabled=True, trace_path=args.trace_out, meta=meta)

    print(
        f"distributed loopback: {args.clients} clients x "
        f"{args.samples_per_client} samples, {args.rounds} round(s) "
        f"(+{args.warmup_rounds} warmup), {args.workers} worker(s)"
    )

    # One run per in-process backend; one run per codec for distributed.
    # Fresh identically-seeded federation per run (client RNG streams
    # advance during training).
    runs = []  # (label, backend, codec)
    for backend in args.backends:
        if backend == "distributed":
            for codec in args.codecs:
                runs.append((f"distributed[{codec}]", backend, codec))
        else:
            runs.append((backend, backend, "raw"))

    results = {}
    for label, backend, codec in runs:
        clients, model = build_federation(
            args.clients, args.samples_per_client, args.seed
        )
        workers = 1 if backend == "serial" else args.workers
        secs, weights, wire = bench_backend(
            backend, workers, clients, model, training.with_(codec=codec),
            args.rounds, warmup_rounds=args.warmup_rounds,
        )
        results[label] = (secs, weights, wire, codec)

    identical = True
    drift = {}
    if "serial" in results:
        ref = results["serial"][1]
        for label, (_, weights, _, codec) in results.items():
            same = np.array_equal(ref, weights)
            if get_codec(codec).lossless:
                # The hard gate covers lossless codecs only.
                identical &= same
                if not same:
                    print(f"  WARNING: {label} weights diverged from serial!")
            else:
                drift[label] = float(np.max(np.abs(ref - weights)))

    base = results.get("serial", next(iter(results.values())))[0]
    print(f"{'run':<22} {'s/round':>10} {'vs serial':>10} {'wire/round':>12}")
    for label, (secs, _, wire, _) in results.items():
        per_round = (
            f"{wire['bytes_per_round'] / 1e6:.2f} MB" if wire else "-"
        )
        print(
            f"{label:<22} {secs:>10.3f} {base / secs:>9.2f}x {per_round:>12}"
        )
    raw_bytes = None
    wire_raw = results.get("distributed[raw]", (0, 0, None, 0))[2]
    if wire_raw:
        raw_bytes = wire_raw["bytes_per_round"]
    for label, (_, _, wire, _) in results.items():
        if not wire:
            continue
        saving = (
            f"  ({100 * (1 - wire['bytes_per_round'] / raw_bytes):+.1f}% "
            "bytes vs raw)"
            if raw_bytes and label != "distributed[raw]"
            else ""
        )
        print(
            f"{label} one-time setup (registration + client shipment): "
            f"{wire['setup_bytes'] / 1e6:.2f} MB{saving}"
        )
    for label, diff in drift.items():
        print(f"{label} max |w - serial| = {diff:.3e} (lossy codec, by design)")
    print(f"bit-identical across lossless runs: {identical}")

    delta_planes = None
    if "delta" in args.codecs:
        delta_planes = bench_delta_planes(
            args.clients, args.samples_per_client, args.seed,
            args.rounds, args.warmup_rounds, training,
        )
        identical &= delta_planes["lossless_roundtrip"]

    # The codec's reason to exist, as a hard gate on converged runs.
    delta_pays = True
    wire_delta = results.get("distributed[delta]", (0, 0, None, 0))[2]
    if raw_bytes and wire_delta and args.warmup_rounds >= CONVERGED_WARMUP_ROUNDS:
        saving = 1 - wire_delta["bytes_per_round"] / raw_bytes
        delta_pays = saving >= DELTA_MIN_SAVING
        print(
            f"delta steady-state byte cut vs raw: {100 * saving:.1f}% "
            f"(gate: >= {100 * DELTA_MIN_SAVING:.0f}% after "
            f">= {CONVERGED_WARMUP_ROUNDS} warm-up rounds) -- "
            f"{'ok' if delta_pays else 'FAILED'}"
        )

    if args.json:
        payload = {
            "benchmark": "distributed_loopback",
            "meta": meta,
            "config": config,
            "bit_identical_lossless": identical,
            "runs": {
                label: {
                    "codec": codec,
                    "lossless": get_codec(codec).lossless,
                    "s_per_round": secs,
                    "setup_bytes": wire["setup_bytes"] if wire else None,
                    "bytes_per_round": (
                        wire["bytes_per_round"] if wire else None
                    ),
                    "bytes_saving_vs_raw": (
                        1 - wire["bytes_per_round"] / raw_bytes
                        if wire and raw_bytes and label != "distributed[raw]"
                        else None
                    ),
                    "max_abs_drift_vs_serial": drift.get(label),
                }
                for label, (secs, _, wire, codec) in results.items()
            },
            "delta_planes": delta_planes,
            "delta_saving_gate_passed": delta_pays,
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")

    telemetry.flush()
    telemetry.shutdown()
    if args.trace_out:
        print(f"wrote trace {args.trace_out}")

    return 0 if identical and delta_pays else 1


if __name__ == "__main__":
    sys.exit(main())
