"""Tracing on vs off must be bit-invisible to training.

The telemetry layer's hard contract: it only ever reads monotonic/wall
clocks, never numpy's RNG, so enabling full tracing (spans + metrics +
a JSONL trace file) produces the *same bits* -- global weights, selected
cohorts, accuracies, simulated latencies -- as a run with telemetry off.
Checked across every executor backend, including real worker
subprocesses on loopback.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.config import TrainingConfig
from repro.distributed import (
    DistributedExecutor,
    spawn_local_workers,
    terminate_workers,
)
from repro.fl.selection import RandomSelector
from repro.fl.server import FLServer
from repro.nn import build_mlp
from tests.conftest import make_test_population, make_tiny_dataset

TRAIN = TrainingConfig(optimizer="rmsprop", lr=0.05, lr_decay=0.99)


def run_training(
    executor, workers=2, rounds=3, seed=7, training=TRAIN, test_size=30,
):
    clients = make_test_population(6, seed=seed)
    model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=seed)
    with FLServer(
        clients=clients,
        model=model,
        selector=RandomSelector(3, rng=seed),
        test_data=make_tiny_dataset(n=test_size, seed=999),
        training=training,
        rng=seed,
        executor=executor,
        workers=workers,
    ) as server:
        history = server.run(rounds)
        return server.global_weights.copy(), history


def fingerprint(history):
    return [
        (r.round_idx, r.round_latency, r.sim_time, r.accuracy,
         r.selected, r.dropped)
        for r in history.records
    ]


def assert_traced_run_matches(backend, tmp_path, workers=2):
    telemetry.reset()
    ref_weights, ref_history = run_training(backend, workers=workers)
    assert not telemetry.enabled()

    trace = str(tmp_path / f"{backend}.jsonl")
    telemetry.configure(
        enabled=True, trace_path=trace, meta=telemetry.run_metadata()
    )
    try:
        weights, history = run_training(backend, workers=workers)
    finally:
        telemetry.flush()
        telemetry.shutdown()

    assert np.array_equal(ref_weights, weights), (
        f"{backend}: tracing perturbed the weights"
    )
    assert fingerprint(ref_history) == fingerprint(history)
    counts = telemetry.validate_trace_file(trace)
    assert counts["span"] > 0
    # the traced run actually recorded the engine phases
    names = set(telemetry.snapshot()["spans"])
    assert {"fl.run", "fl.round", "fl.train", "fl.aggregate"} <= names


class TestTracingIsBitInvisible:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_in_process_backends(self, backend, tmp_path):
        assert_traced_run_matches(backend, tmp_path)

    def test_distributed_backend(self, tmp_path):
        telemetry.reset()
        ref_weights, ref_history = run_training("serial", workers=1)

        trace = str(tmp_path / "distributed.jsonl")
        telemetry.configure(enabled=True, trace_path=trace)
        ex = DistributedExecutor(
            workers=2, accept_timeout=60.0, result_timeout=90.0
        )
        procs = spawn_local_workers(ex.listen(), 2)
        try:
            weights, history = run_training(ex)
        finally:
            ex.close()
            codes = terminate_workers(procs)
            telemetry.flush()
            telemetry.shutdown()
        assert codes == [0, 0]
        assert np.array_equal(ref_weights, weights), (
            "distributed traced run diverged from untraced serial"
        )
        assert fingerprint(ref_history) == fingerprint(history)
        telemetry.validate_trace_file(trace)
        # wire metrics and worker summaries made it into the registry
        snap = telemetry.snapshot()
        sent = [
            k for k in snap["counters"] if k.startswith("wire.frames_sent")
        ]
        assert sent, "coordinator emitted no wire metrics at close"
        busy = [
            k for k in snap["gauges"]
            if k.startswith("distributed.worker.busy_s")
        ]
        assert len(busy) == 2, "expected one busy gauge per worker"

    @pytest.mark.parametrize("codec", ["raw", "delta"])
    def test_distributed_reused_frame_and_alias_paths(self, codec, tmp_path):
        """A 600-sample eval set makes every round's global evaluation a
        sharded BROADCAST to both workers (one encode, one reused frame)
        and the next training broadcast an alias.  Tracing on vs off
        stays bit-invisible across both paths, and ``codec.encode_s``
        holds one sample per encode that actually ran -- reused frames
        and aliases record none."""
        kwargs = dict(training=TRAIN.with_(codec=codec), test_size=600)
        telemetry.reset()
        ref_weights, ref_history = run_training("serial", workers=1, **kwargs)

        def run_distributed():
            ex = DistributedExecutor(
                workers=2, accept_timeout=60.0, result_timeout=90.0
            )
            procs = spawn_local_workers(ex.listen(), 2)
            try:
                weights, history = run_training(ex, **kwargs)
            finally:
                ex.close()
                codes = terminate_workers(procs)
            assert codes == [0, 0]
            return weights, history, ex

        untraced_weights, untraced_history, untraced_ex = run_distributed()
        assert not telemetry.enabled()

        trace = str(tmp_path / f"fanout-{codec}.jsonl")
        telemetry.configure(enabled=True, trace_path=trace)
        try:
            weights, history, ex = run_distributed()
        finally:
            telemetry.flush()
            telemetry.shutdown()

        for w, h in ((untraced_weights, untraced_history), (weights, history)):
            assert np.array_equal(ref_weights, w)
            assert fingerprint(ref_history) == fingerprint(h)
        # Tracing changes no decision: same forms, traced or not.
        stats = ex.broadcast_stats
        assert stats == untraced_ex.broadcast_stats
        assert stats["aliases"] > 0 and stats["frames_reused"] > 0
        telemetry.validate_trace_file(trace)
        snap = telemetry.snapshot()
        for how, value in stats.items():
            assert snap["counters"][f"wire.broadcast_{how}"] == value
        encode_samples = sum(
            h["count"]
            for key, h in snap["histograms"].items()
            if key.startswith("codec.encode_s")
        )
        assert encode_samples == stats["encodes"]
        for summary in ex.worker_summaries.values():
            assert summary["broadcast_aliases"] > 0
        # ... and `cli report` shows the split under its wire table.
        from repro.telemetry.report import report_main

        assert (
            f"BROADCAST by form: {stats['encodes']} encoded, "
            f"{stats['frames_reused']} cached frame reused, "
            f"{stats['aliases']} header-only alias"
        ) in report_main(trace)

    def test_sharded_population_path(self, tmp_path):
        """The shard ship/re-deal instrumentation (wire.shard_*) must be
        just as bit-invisible as the rest: a store-backed sharded run
        traced vs untraced produces identical histories, and the traced
        run records the shard counters."""
        from repro.distributed import protocol as proto
        from repro.experiments.scenarios import build_population_scenario
        from repro.rng import derive

        def run_sharded(executor, seed=7, rounds=2):
            scn = build_population_scenario(
                num_clients=40, clients_per_round=4, seed=seed
            )
            with FLServer(
                clients=scn.clients,
                model=scn.model,
                selector=RandomSelector(4, rng=derive(seed, 101)),
                test_data=scn.test_data,
                training=scn.training,
                rng=derive(seed, 202),
                executor=executor,
            ) as server:
                history = server.run(rounds)
            return history

        telemetry.reset()
        ex = DistributedExecutor(
            workers=2, accept_timeout=60.0, result_timeout=90.0
        )
        procs = spawn_local_workers(ex.listen(), 2)
        try:
            ref_history = run_sharded(ex)
        finally:
            ex.close()
            terminate_workers(procs)
        assert not telemetry.enabled()

        trace = str(tmp_path / "sharded.jsonl")
        telemetry.configure(enabled=True, trace_path=trace)
        ex = DistributedExecutor(
            workers=2, accept_timeout=60.0, result_timeout=90.0
        )
        procs = spawn_local_workers(ex.listen(), 2)
        try:
            history = run_sharded(ex)
        finally:
            ex.close()
            codes = terminate_workers(procs)
            telemetry.flush()
            telemetry.shutdown()

        assert codes == [0, 0]
        assert fingerprint(ref_history) == fingerprint(history), (
            "tracing perturbed the sharded population path"
        )
        telemetry.validate_trace_file(trace)
        snap = telemetry.snapshot()
        assert snap["counters"].get("wire.shard_ships") == 2, (
            "expected one shard ship per worker in the counters"
        )
        assert snap["counters"].get("wire.shard_bytes", 0) > 0
