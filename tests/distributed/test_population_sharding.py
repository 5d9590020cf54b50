"""Population sharding over the distributed backend (protocol v6).

The tentpole contract under test: the coordinator ships *store shards*
(ASSIGN_SHARD column slices), never pickled clients, and the pool inside
them as its recipe, never its arrays; per-round frames reference client
ids only; the coordinator materialises no client on the cohort latency
stream and at most the cohorts on the per-client one; and a worker
killed mid-round or between rounds has its slice
re-dealt with authoritative RNG snapshots, keeping the history
bit-identical to the serial store path.
"""

import dataclasses
import io
import os
import pickle
import signal
import tracemalloc

import numpy as np
import pytest

from repro.distributed import (
    DistributedExecutor,
    WorkerAgent,
    spawn_local_workers,
    terminate_workers,
)
from repro.distributed import protocol as proto
from repro.distributed import transport
from repro.experiments.scenarios import build_population_scenario
from repro.fl.selection import RandomSelector
from repro.fl.server import FLServer
from repro.rng import derive
from repro.serialization import shard_from_bytes, shard_to_bytes
from tests.conftest import assert_bits_equal

FAST_TIMEOUTS = dict(accept_timeout=60.0, result_timeout=90.0)

NUM_CLIENTS = 200  # population-scale shape at test speed
COHORT = 10
ROUNDS = 3


#: Both latency streams: the coordinator's client builds differ between them.
STREAMS = pytest.mark.parametrize("latency_stream", ["per-client", "cohort"])


def assert_coordinator_builds(store, latency_stream):
    """On the cohort stream the coordinator draws latencies off the
    columns and builds no client; on the per-client stream each client
    owns its latency RNG, so it builds the cohorts, never the population."""
    if latency_stream == "cohort":
        assert store.materialize_count == 0
    else:
        assert store.materialize_count <= COHORT * ROUNDS


def run_population(
    executor,
    seed=11,
    rounds=ROUNDS,
    num_clients=NUM_CLIENTS,
    round_done=None,
    latency_stream=None,
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
        latency_stream=latency_stream,
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
    @STREAMS
    def test_sharded_run_matches_serial_and_ships_no_clients(self, latency_stream):
        """ASSIGN_SHARD only on the wire, coordinator builds bounded by
        the stream, history bit-identical to the serial store."""
        ref_history, _ = run_population("serial", latency_stream=latency_stream)

        ex = DistributedExecutor(workers=2, **FAST_TIMEOUTS)
        procs = spawn_local_workers(ex.listen(), 2)
        try:
            history, store = run_population(ex, latency_stream=latency_stream)
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
        assert_coordinator_builds(store, latency_stream)

    def test_shard_blob_scales_with_slice_not_population(self):
        """Recurring bytes reference ids only; the one-time shard blob is
        columns + the provider's recipe, far below pickled-client size."""
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
            # ~40 B/client of columns per member + the provider (its
            # recipe, digest and sample counts), never the pool itself.
            assert 0 < shard_bytes < 1024 * 1024
            # Round 0 carries the shard ship; the rest is the steady state.
            steady_bytes_per_round[num_clients] = (wire[-1] - wire[0]) / (ROUNDS - 1)
        assert steady_bytes_per_round[10 * NUM_CLIENTS] == pytest.approx(
            steady_bytes_per_round[NUM_CLIENTS], rel=0.01
        )


class TestWorkerLossUnderSharding:
    @STREAMS
    def test_kill_mid_round_redeals_shard_bit_identically(self, latency_stream):
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

        ref_history, _ = run_population("serial", seed=13, latency_stream=latency_stream)

        ex = KillOnFirstUpdate(workers=2, heartbeat_interval=0.5,
                               **FAST_TIMEOUTS)
        procs = spawn_local_workers(ex.listen(), 2)
        try:
            history, store = run_population(ex, seed=13, latency_stream=latency_stream)
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
        # A re-deal is cut from the columns and the ledger: no extra client.
        assert_coordinator_builds(store, latency_stream)

    @STREAMS
    def test_kill_between_rounds_redeals_shard_bit_identically(self, latency_stream):
        """SIGKILL between rounds: retire-and-re-pin re-ships only the
        dead worker's slice; replayed streams keep bit-identity."""
        ref_history, _ = run_population("serial", seed=17, latency_stream=latency_stream)

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
                latency_stream=latency_stream,
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
        assert_coordinator_builds(store, latency_stream)


def small_store(seed):
    """A population over a 786 KB pool: large next to its recipe."""
    return build_population_scenario(
        num_clients=300, clients_per_round=COHORT, pool_size=4096, shape=(8, 8, 3), seed=seed
    )


class TestPoolRecipe:
    """The pool travels as its recipe and is re-derived on the far side."""

    def test_provider_pickles_to_its_recipe(self):
        provider = small_store(seed=3).population._dataset_for
        assert provider.pool.x.nbytes > 12 * 64 * 1024
        assert len(pickle.dumps(provider, protocol=pickle.HIGHEST_PROTOCOL)) < 64 * 1024

    @pytest.mark.parametrize(
        "make_seed",
        [
            lambda: 3,
            lambda: np.random.SeedSequence([1, 2]),
            lambda: np.random.default_rng(np.array([3, 4])),
        ],
        ids=["int", "list-seeded", "array-seeded"],
    )
    def test_rederived_pool_is_byte_equal_to_the_coordinators(self, make_seed):
        """Whatever the seed -- a list or array one leaves a sequence
        entropy in the recipe -- the shard ships and re-derives the pool."""
        store = small_store(seed=make_seed()).population
        pool = store._dataset_for.pool
        far = shard_from_bytes(shard_to_bytes(store.shard([9, 2, 5])))
        assert far.dataset_for.pool is not pool
        assert_bits_equal(far.dataset_for.pool.x, pool.x)
        assert_bits_equal(far.dataset_for.pool.y, pool.y)
        assert far.dataset_for.pool.num_classes == pool.num_classes
        assert far.seed_address == store.seed_address

    def test_shards_unpickled_in_one_process_share_one_pool(self):
        """The first pin and a later re-deal re-derive the pool once."""
        store = small_store(seed=4).population
        first = shard_from_bytes(shard_to_bytes(store.shard([0, 1, 2])))
        redealt = shard_from_bytes(shard_to_bytes(store.shard([7, 8])))
        assert first.dataset_for.pool is redealt.dataset_for.pool

    def test_tampered_digest_is_a_protocol_error(self):
        scn = small_store(seed=5)
        store = scn.population
        digest = store._dataset_for.pool_digest.encode()
        blob = shard_to_bytes(store.shard([0, 1, 2]))
        assert blob.count(digest) == 1
        agent = WorkerAgent("unused", 1, log=io.StringIO())
        agent._expected_signature = proto.model_signature(scn.model)

        def assign(shard_blob):
            agent._handle_assign_shard(
                proto.encode_assign_shard(
                    shard_blob, scn.training, agent._expected_signature, model=scn.model
                )
            )

        with pytest.raises(proto.ProtocolError, match="digest mismatch"):
            assign(blob.replace(digest, b"0" * len(digest)))
        assign(blob)
        assert list(agent._clients) == [0, 1, 2]

    def test_oversized_recipe_is_refused_before_it_allocates(self, monkeypatch):
        provider = small_store(seed=6).population._dataset_for
        blob = pickle.dumps(provider)
        monkeypatch.setattr(transport, "MAX_FRAME_PAYLOAD", provider.recipe.nbytes - 1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="more than one frame"):
                pickle.loads(blob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < provider.recipe.nbytes // 10
        monkeypatch.undo()
        huge = dataclasses.replace(
            provider, recipe=dataclasses.replace(provider.recipe, size=10**12)
        )
        with pytest.raises(ValueError, match="more than one frame"):
            pickle.loads(pickle.dumps(huge))
