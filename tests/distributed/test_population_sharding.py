"""Population sharding over the distributed backend (protocol v6).

The tentpole contract under test: the coordinator ships *store shards*
(ASSIGN_SHARD column slices), never pickled clients; per-round frames
reference client ids only; the coordinator never materialises more than
the cohort; and a worker killed mid-round has its slice re-dealt with
authoritative RNG snapshots, keeping the history bit-identical to the
serial store path.
"""

import os
import signal

import numpy as np
import pytest

from repro.distributed import (
    DistributedExecutor,
    spawn_local_workers,
    terminate_workers,
)
from repro.distributed import protocol as proto
from repro.experiments.scenarios import build_population_scenario
from repro.fl.selection import RandomSelector
from repro.fl.server import FLServer
from repro.rng import derive

FAST_TIMEOUTS = dict(accept_timeout=60.0, result_timeout=90.0)

NUM_CLIENTS = 200  # population-scale shape at test speed
COHORT = 10
ROUNDS = 3


def run_population(
    executor, seed=11, rounds=ROUNDS, num_clients=NUM_CLIENTS, round_done=None
):
    """A store-backed federation through FLServer; returns (history, store).

    ``round_done()`` is called after every round, while the executor is
    still open (for reading its byte counters at round boundaries)."""
    scn = build_population_scenario(
        num_clients=num_clients, clients_per_round=COHORT, seed=seed
    )
    store = scn.population
    with FLServer(
        clients=store,
        model=scn.model,
        selector=RandomSelector(COHORT, rng=derive(seed, 101)),
        test_data=scn.test_data,
        training=scn.training,
        rng=derive(seed, 202),
        executor=executor,
    ) as server:
        for r in range(rounds):
            server.run_round(r)
            if round_done is not None:
                round_done()
    return server.history, store


def fingerprint(history):
    return [
        (r.round_idx, r.round_latency, r.sim_time, r.accuracy,
         r.selected, r.dropped)
        for r in history.records
    ]


class TestShardShipping:
    def test_sharded_run_matches_serial_and_ships_no_clients(self):
        """ASSIGN_SHARD only on the wire, O(cohort) coordinator
        materialisations, history bit-identical to the serial store."""
        ref_history, _ = run_population("serial")

        ex = DistributedExecutor(workers=2, **FAST_TIMEOUTS)
        procs = spawn_local_workers(ex.listen(), 2)
        try:
            history, store = run_population(ex)
            sent = ex.frames_sent_by_type
            shard_frames = sent.get(int(proto.MsgType.ASSIGN_SHARD), 0)
            eager_frames = sent.get(int(proto.MsgType.ASSIGN), 0)
        finally:
            ex.close()
            codes = terminate_workers(procs)

        assert codes == [0, 0]
        assert fingerprint(history) == fingerprint(ref_history)
        assert shard_frames == 2, "expected exactly one shard per worker"
        assert eager_frames == 0, "a store pool must never ship ASSIGN"
        # The acceptance hook: the coordinator materialises the cohort
        # (for latency draws), never the population.
        assert store.materialize_count <= COHORT * ROUNDS
        assert store.materialize_count < NUM_CLIENTS

    def test_shard_blob_scales_with_slice_not_population(self):
        """Recurring bytes reference ids only; the one-time shard blob is
        columns + provider, far below pickled-client size."""
        steady_bytes_per_round = {}
        for num_clients in (NUM_CLIENTS, 10 * NUM_CLIENTS):
            ex = DistributedExecutor(workers=2, **FAST_TIMEOUTS)
            procs = spawn_local_workers(ex.listen(), 2)
            wire = []  # cumulative bytes on the wire after each round
            try:
                run_population(
                    ex,
                    num_clients=num_clients,
                    round_done=lambda: wire.append(ex.bytes_sent + ex.bytes_received),
                )
                shard_bytes = ex.bytes_sent_by_type.get(
                    int(proto.MsgType.ASSIGN_SHARD), 0
                )
            finally:
                ex.close()
                terminate_workers(procs)
            # ~40 B/client of columns per member + the fixed pool payload;
            # 200 pickled SimClients with datasets would be far larger.
            assert 0 < shard_bytes < 10 * 1024 * 1024
            # Round 0 carries the shard ship; the rest is the steady state.
            steady_bytes_per_round[num_clients] = (wire[-1] - wire[0]) / (ROUNDS - 1)
        assert steady_bytes_per_round[10 * NUM_CLIENTS] == pytest.approx(
            steady_bytes_per_round[NUM_CLIENTS], rel=0.01
        )


class TestWorkerLossUnderSharding:
    def test_kill_mid_round_redeals_shard_bit_identically(self):
        """SIGKILL a worker the moment its first update lands: the dead
        worker's id range is re-dealt as a fresh shard (with the
        authoritative RNG snapshots) and the history still matches the
        serial store path bit for bit."""

        class KillOnFirstUpdate(DistributedExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.killed = False

            def _on_update_received(self, worker_id, client_id):
                if not self.killed:
                    self.killed = True
                    os.kill(self.worker_pid(worker_id), signal.SIGKILL)

        ref_history, _ = run_population("serial", seed=13)

        ex = KillOnFirstUpdate(workers=2, heartbeat_interval=0.5,
                               **FAST_TIMEOUTS)
        procs = spawn_local_workers(ex.listen(), 2)
        try:
            history, store = run_population(ex, seed=13)
            shard_frames = ex.frames_sent_by_type.get(
                int(proto.MsgType.ASSIGN_SHARD), 0
            )
        finally:
            ex.close()
            codes = terminate_workers(procs)

        assert ex.killed
        # One worker died by SIGKILL, the survivor exited cleanly.
        assert sorted(codes) == [-signal.SIGKILL, 0]
        # 2 initial shards + at least 1 re-dealt slice to the survivor.
        assert shard_frames >= 3
        assert fingerprint(history) == fingerprint(ref_history)
        assert store.materialize_count < NUM_CLIENTS

    def test_kill_between_rounds_redeals_shard_bit_identically(self):
        """SIGKILL between rounds: retire-and-re-pin re-ships only the
        dead worker's slice; replayed streams keep bit-identity."""
        ref_history, _ = run_population("serial", seed=17)

        ex = DistributedExecutor(workers=2, heartbeat_interval=0.5,
                                 **FAST_TIMEOUTS)
        procs = spawn_local_workers(ex.listen(), 2)
        scn = build_population_scenario(
            num_clients=NUM_CLIENTS, clients_per_round=COHORT, seed=17
        )
        store = scn.population
        try:
            with FLServer(
                clients=store,
                model=scn.model,
                selector=RandomSelector(COHORT, rng=derive(17, 101)),
                test_data=scn.test_data,
                training=scn.training,
                rng=derive(17, 202),
                executor=ex,
            ) as server:
                history = server.run(1)
                os.kill(ex.worker_pid(0), signal.SIGKILL)
                history = server.run(ROUNDS - 1, start_round=1)
                survivors = ex.num_workers_started
        finally:
            ex.close()
            terminate_workers(procs)

        assert survivors == 1
        assert fingerprint(history) == fingerprint(ref_history)
