"""Round hot-path benchmark: training, batched evaluation, latency sampling.

The per-round cost of the reproduction has three components this PR
optimised, and this benchmark measures all three on the current hardware:

1. **Training s/round** per execution backend (cohort training through
   ``train_cohort`` -- the process backend now returns update weights
   through shared memory instead of queue pickling).
2. **Evaluation s/round** per execution backend (the new batched
   ``evaluate_cohort`` over every client's holdout -- what
   ``TiFLServer.evaluate_tiers`` does each round).
3. **Latency-sampling throughput**: v1 per-client ``response_latency``
   loops vs the v2 cohort stream's two vectorised draws
   (:class:`repro.simcluster.latency.CohortLatencySampler`).
4. **Weight-codec encode/decode cost** (:mod:`repro.codec`): per codec,
   the CPU time to encode + decode one realistic post-round weight
   vector and the bytes it travels as, so the codec CPU cost the
   distributed backend pays per frame can be weighed against its wire
   savings.  Lossless codecs (raw, delta) must round-trip bit-exactly
   -- a violation exits non-zero like any other bit-identity break.

5. **Cohort-batched training** (``--executor batched``): the stacked
   tensor-program backend rides the same train/eval table, reported as a
   train-phase speedup over serial.

Before timing anything it verifies the non-negotiable: every *v1*
backend's trained global weights and per-client eval accuracies are
bit-identical to serial (``repro.execution.BIT_IDENTICAL_BACKENDS``).
Divergence exits non-zero (CI's bench-trend job runs this on every push;
perf numbers are informational on 1-core runners, bit-identity is not).
The ``batched`` backend is a separate versioned numerics stream and is
deliberately excluded from that hard gate; it is instead held to an
accuracy tolerance vs serial (max relative weight difference, reported
in the JSON) -- exceeding the tolerance also exits non-zero.

Results are emitted as machine-readable ``BENCH_round_hotpath.json``.

Usage::

    python benchmarks/bench_round_hotpath.py                 # full run
    python benchmarks/bench_round_hotpath.py --rounds 1 \\
        --clients 10 --samples-per-client 60                 # CI smoke
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
from repro.codec import CODEC_NAMES, get_codec  # noqa: E402
from repro.config import TrainingConfig  # noqa: E402
from repro.execution import (  # noqa: E402
    BIT_IDENTICAL_BACKENDS,
    EvalRequest,
    TrainRequest,
    create_executor,
)
from repro.fl.aggregator import fedavg  # noqa: E402
from repro.simcluster.latency import CohortLatencySampler, LatencyModel  # noqa: E402
from repro.simcluster.network import CommModel  # noqa: E402
from repro.simcluster.resources import ResourceSpec  # noqa: E402

sys.path.insert(0, os.path.dirname(__file__))
from bench_executor_throughput import build_federation  # noqa: E402


#: Relative tolerance for the ``batched`` stream vs serial.  Stacked
#: matmuls may reassociate float64 sums, so batched weights are only
#: rounding-equal to serial; anything past this bound means a real bug,
#: not reassociation.
BATCHED_RTOL = 1e-6


def _span_total(name):
    """Summed duration of every recorded span called ``name``."""
    return sum(s.duration for s in telemetry.span_records(name))


def bench_backend(backend, workers, clients, model, training, rounds):
    """Time train and eval rounds; returns (train_s, eval_s, weights, accs).

    Timings are read from the telemetry ``executor.train_cohort`` /
    ``executor.eval_cohort`` spans (cleared between phases), so the
    benchmark reports exactly what a ``--trace-out`` trace would show
    for the same cohorts.
    """
    pool = {c.client_id: c for c in clients}
    global_weights = model.get_flat_weights()
    train_requests = [
        TrainRequest(cid, epochs=training.epochs) for cid in sorted(pool)
    ]
    eval_requests = [
        EvalRequest(cid) for cid in sorted(pool) if len(pool[cid].holdout) > 0
    ]
    with create_executor(backend, workers=workers) as executor:
        executor.bind(pool, model, training)
        # Warm-up outside the timer: spawns workers / builds replicas.
        executor.train_cohort(0, train_requests[:1], global_weights)
        telemetry.clear_spans()
        for r in range(rounds):
            updates = executor.train_cohort(r + 1, train_requests, global_weights)
            global_weights = fedavg(
                [u.flat_weights for u in updates],
                [float(u.num_samples) for u in updates],
            )
        train_elapsed = _span_total("executor.train_cohort")

        telemetry.clear_spans()
        for _ in range(rounds):
            accs = executor.evaluate_cohort(eval_requests, global_weights)
        eval_elapsed = _span_total("executor.eval_cohort")
    return train_elapsed / rounds, eval_elapsed / rounds, global_weights, accs


def bench_codecs(clients, model, training, reps=5):
    """Encode/decode cost + wire bytes per weight codec, on real deltas.

    One serial round produces a realistic ``(previous, current)`` global
    weight pair -- exactly what a distributed BROADCAST ships each round
    -- and every registered codec is timed encoding and decoding it.
    Returns ``{codec: stats}``; ``stats['lossless_round_trip']`` is the
    hard gate for raw/delta.
    """
    pool = {c.client_id: c for c in clients}
    baseline = model.get_flat_weights()
    requests = [
        TrainRequest(cid, epochs=training.epochs) for cid in sorted(pool)
    ]
    with create_executor("serial") as executor:
        executor.bind(pool, model, training)
        updates = executor.train_cohort(0, requests, baseline)
    current = fedavg(
        [u.flat_weights for u in updates],
        [float(u.num_samples) for u in updates],
    )
    raw_bytes = current.size * 8
    out = {}
    for name in CODEC_NAMES:
        codec = get_codec(name)
        base = baseline if codec.requires_baseline else None
        start = time.perf_counter()
        for _ in range(reps):
            blob = codec.encode(current, baseline=base)
        encode_s = (time.perf_counter() - start) / reps
        start = time.perf_counter()
        for _ in range(reps):
            back = codec.decode(blob, current.size, baseline=base)
        decode_s = (time.perf_counter() - start) / reps
        round_trip = bool(back.tobytes() == current.tobytes())
        out[name] = {
            "encode_s": encode_s,
            "decode_s": decode_s,
            "encoded_bytes": len(blob),
            "bytes_ratio_vs_raw": len(blob) / raw_bytes,
            "lossless": codec.lossless,
            "lossless_round_trip": round_trip if codec.lossless else None,
        }
    return out


def bench_latency_sampling(num_clients, draws, seed):
    """v1 per-client loop vs v2 cohort stream over a synthetic cohort."""
    model = LatencyModel(noise_sigma=0.05)
    comm = CommModel(jitter_sigma=0.02)

    class _Stub:
        """Latency-relevant surface of SimClient, without the dataset."""

        latency_model = model
        comm_model = comm

        def __init__(self, cid, n, cpu):
            self.client_id = cid
            self.num_train_samples = n
            self.spec = ResourceSpec(cpu_fraction=cpu, group=0)

        def finalize_latency(self, latency, round_idx=0, fault=None):
            return latency

    stubs = [
        _Stub(cid, 100 + cid % 7, 1.0 / (1 + cid % 4)) for cid in range(num_clients)
    ]
    num_params = 50_000

    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    for r in range(draws):
        for s in stubs:
            model.sample_compute(s.num_train_samples, s.spec, rng=rng)
            comm.sample_round_trip(num_params, s.spec, rng=rng)
    v1 = (time.perf_counter() - start) / draws

    sampler = CohortLatencySampler(seed=seed)
    start = time.perf_counter()
    for r in range(draws):
        sampler.sample_cohort(stubs, num_params, epochs=1, round_idx=r)
    v2 = (time.perf_counter() - start) / draws
    return {
        "cohort_size": num_clients,
        "per_client_s_per_round": v1,
        "cohort_s_per_round": v2,
        "speedup": v1 / v2 if v2 > 0 else float("inf"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--clients", type=int, default=50)
    ap.add_argument("--samples-per-client", type=int, default=120)
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--workers", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--latency-cohort", type=int, default=2000,
                    help="cohort size for the latency-sampling comparison")
    ap.add_argument("--latency-draws", type=int, default=20)
    ap.add_argument(
        "--backends", nargs="+",
        default=["serial", "thread", "process", "batched"],
        choices=["serial", "thread", "process", "batched"],
    )
    ap.add_argument(
        "--json", metavar="PATH", default="BENCH_round_hotpath.json",
        help="machine-readable output (consumed by CI bench-trend)",
    )
    args = ap.parse_args(argv)
    training = TrainingConfig(optimizer="rmsprop", lr=0.01, batch_size=10)
    # Span collection on for the whole benchmark: every timing below is
    # read from telemetry spans, not private stopwatches.
    telemetry.configure(enabled=True)

    cores = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count()
    )
    print(
        f"round hot path: {args.clients} clients x {args.samples_per_client} "
        f"samples, {args.rounds} round(s), {args.workers} workers, "
        f"{cores} usable core(s)"
    )

    results = {}
    for backend in args.backends:
        # Fresh identically-seeded federation per backend: client RNG
        # streams advance during training, so each backend must start
        # from the same state for the bit-identity check to hold.
        clients, model = build_federation(
            args.clients, args.samples_per_client, args.seed,
            holdout_fraction=0.2,
        )
        workers = 1 if backend == "serial" else args.workers
        results[backend] = bench_backend(
            backend, workers, clients, model, training, args.rounds
        )

    # None = not checked (no serial reference requested): the JSON must
    # never report a passing verdict for a comparison that did not run.
    # Two gates, one per numerics stream: v1 backends must be bit-exact,
    # batched must stay inside the accuracy tolerance.
    identical = None
    batched_tolerance = None
    if "serial" in results:
        identical = True
        _, _, ref_w, ref_accs = results["serial"]
        for backend, (_, _, weights, accs) in results.items():
            if backend not in BIT_IDENTICAL_BACKENDS:
                continue
            w_same = np.array_equal(ref_w, weights)
            a_same = accs == ref_accs
            identical &= w_same and a_same
            print(
                f"  {backend:8s} weights: "
                f"{'bit-identical' if w_same else 'DIVERGED'}; eval accs: "
                f"{'bit-identical' if a_same else 'DIVERGED'}"
            )
        if "batched" in results:
            _, _, b_w, b_accs = results["batched"]
            max_rel = float(
                np.max(np.abs(b_w - ref_w) / (np.abs(ref_w) + 1e-12))
            )
            batched_tolerance = {
                "max_rel_weight_diff_vs_serial": max_rel,
                "rtol": BATCHED_RTOL,
                "within_tolerance": bool(
                    np.allclose(b_w, ref_w, rtol=BATCHED_RTOL, atol=1e-12)
                ),
                "eval_accs_equal": b_accs == ref_accs,
            }
            print(
                f"  {'batched':8s} weights: max rel diff {max_rel:.2e} "
                f"vs serial "
                f"({'within' if batched_tolerance['within_tolerance'] else 'EXCEEDS'}"
                f" rtol={BATCHED_RTOL:g}; separate numerics stream, "
                "excluded from the bit-identity gate)"
            )

    base_t = results.get("serial", next(iter(results.values())))[0]
    base_e = results.get("serial", next(iter(results.values())))[1]
    print(f"\n  {'backend':8s} {'train s/rd':>11s} {'eval s/rd':>10s} "
          f"{'train x':>8s} {'eval x':>7s}")
    for backend, (t, e, _, _) in results.items():
        print(f"  {backend:8s} {t:11.3f} {e:10.3f} "
              f"{base_t / t:7.2f}x {base_e / e:6.2f}x")

    clients, model = build_federation(
        args.clients, args.samples_per_client, args.seed,
        holdout_fraction=0.2,
    )
    codec_stats = bench_codecs(clients, model, training)
    codecs_lossless_ok = all(
        s["lossless_round_trip"] is not False for s in codec_stats.values()
    )
    print(f"\n  {'codec':10s} {'encode ms':>10s} {'decode ms':>10s} "
          f"{'bytes':>9s} {'vs raw':>7s}  round-trip")
    for name, s in codec_stats.items():
        rt = (
            "bit-exact" if s["lossless_round_trip"]
            else ("VIOLATED" if s["lossless"] else "lossy (by design)")
        )
        print(
            f"  {name:10s} {s['encode_s'] * 1e3:10.2f} "
            f"{s['decode_s'] * 1e3:10.2f} {s['encoded_bytes']:9d} "
            f"{s['bytes_ratio_vs_raw']:6.2f}x  {rt}"
        )

    latency = bench_latency_sampling(
        args.latency_cohort, args.latency_draws, args.seed
    )
    print(
        f"\n  latency sampling ({latency['cohort_size']} clients/round): "
        f"per-client {latency['per_client_s_per_round'] * 1e3:.2f} ms, "
        f"cohort {latency['cohort_s_per_round'] * 1e3:.2f} ms "
        f"({latency['speedup']:.1f}x)"
    )

    config = {
        "clients": args.clients,
        "samples_per_client": args.samples_per_client,
        "rounds": args.rounds,
        "workers": args.workers,
        "seed": args.seed,
        "cores": cores,
    }
    payload = {
        "benchmark": "round_hotpath",
        "meta": telemetry.run_metadata(config=config),
        "config": config,
        "bit_identical": identical,
        "batched_tolerance": batched_tolerance,
        "backends": {
            backend: {
                "train_s_per_round": t,
                "eval_s_per_round": e,
                "train_speedup_vs_serial": base_t / t,
                "eval_speedup_vs_serial": base_e / e,
            }
            for backend, (t, e, _, _) in results.items()
        },
        "latency_sampling": latency,
        "codecs": codec_stats,
    }
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\n  wrote {args.json}")

    if identical is False:
        print("\n  FAIL: v1 backends diverged from serial", file=sys.stderr)
        return 1
    if batched_tolerance is not None and not batched_tolerance["within_tolerance"]:
        print("\n  FAIL: batched stream exceeded its accuracy tolerance",
              file=sys.stderr)
        return 1
    if not codecs_lossless_ok:
        print("\n  FAIL: a lossless codec's round-trip is not bit-exact",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
