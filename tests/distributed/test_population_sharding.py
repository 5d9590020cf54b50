"""Population sharding over the distributed backend (protocol v6).

The tentpole contract under test: the coordinator ships *store shards*
(ASSIGN_SHARD column slices), never pickled clients, and the pool inside
them -- whichever builder drew it -- as its recipe, never its arrays;
per-round frames reference client ids only; the coordinator materialises
no client on the cohort latency stream and at most the cohorts on the
per-client one; and a worker killed mid-round or between rounds has its
jobs re-dealt to the survivor, which holds the whole population and
trains each from the ledger RNG state its job carries, keeping the
history bit-identical to the serial store path.
"""

import dataclasses
import io
import os
import pickle
import signal
import tracemalloc
import weakref

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
from repro.experiments import scenarios
from repro.experiments.scenarios import (
    ScenarioConfig,
    build_leaf_scenario,
    build_population_scenario,
    build_scenario,
)
from repro.fl.selection import RandomSelector
from repro.fl.server import FLServer
from repro.rng import derive
from repro.serialization import shard_from_bytes, shard_to_bytes
from repro.simcluster.population import SeedAddress
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
    def test_kill_mid_round_re_deals_jobs_bit_identically(self, latency_stream):
        """SIGKILL a worker the moment its first update lands: the dead
        worker's jobs are re-dealt to the survivor, nothing is re-shipped,
        and the history still matches the serial store path bit for
        bit."""

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
        # One whole-population shard per worker at start-up, no re-ship:
        # the survivor already holds every client.
        assert shard_frames == 2
        assert fingerprint(history) == fingerprint(ref_history)
        # A re-deal reads the ledger, never a client: no extra build.
        assert_coordinator_builds(store, latency_stream)

    @STREAMS
    def test_kill_between_rounds_re_deals_jobs_bit_identically(self, latency_stream):
        """SIGKILL between rounds: the survivor is dealt every later
        cohort whole, each job from its ledger state; bit-identity
        holds."""
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


def small_paper(seed):
    """A partitioned federation over a 3.1 MB pool (and a 150 KB test set)."""
    cfg = ScenarioConfig(
        dataset="cifar10",
        num_clients=10,
        clients_per_round=3,
        data_distribution="noniid",
        train_size=2000,
        test_size=100,
        shape=(8, 8, 3),
    )
    return build_scenario(cfg, seed=seed)


def small_leaf(seed):
    """A LEAF federation over a ~1.7 MB pool and its 3 MB test set."""
    return build_leaf_scenario(num_clients=20, clients_per_round=3, shape=(8, 8, 3), seed=seed)


#: The three builders, each at a shape whose pool dwarfs its recipe.
FEDERATIONS = pytest.mark.parametrize(
    "build", [small_paper, small_leaf, small_store], ids=["paper", "leaf", "population"]
)


class TestPoolRecipe:
    """Every builder's pool travels as its recipe and is re-derived on the
    far side: the store's provider is ``fed.client_rows`` for all three."""

    @FEDERATIONS
    def test_provider_pickles_to_its_recipe(self, build):
        scn = build(seed=3)
        assert scn.clients._dataset_for == scn.fed.client_rows
        assert scn.fed.train.x.nbytes > 12 * 64 * 1024
        blob = pickle.dumps(scn.clients._dataset_for, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(blob) < 64 * 1024

    @FEDERATIONS
    @pytest.mark.parametrize(
        "make_seed",
        [
            lambda: 3,
            lambda: np.random.SeedSequence([1, 2]),
            lambda: np.random.default_rng(np.array([3, 4])),
        ],
        ids=["int", "list-seeded", "array-seeded"],
    )
    def test_rederived_pool_is_byte_equal_to_the_coordinators(
        self, build, make_seed, monkeypatch
    ):
        """Whatever the seed -- a list or array one leaves a sequence
        entropy in the recipe -- the shard ships and re-derives the pool,
        and every client's rows in it.  An empty draw memo stands in for
        another process (in this one the pool would be reused)."""
        scn = build(seed=make_seed())
        store, pool = scn.clients, scn.fed.train
        blob = shard_to_bytes(store.shard([9, 2, 5]))
        monkeypatch.setattr(scenarios, "_DRAWN", weakref.WeakValueDictionary())
        far = shard_from_bytes(blob)
        far_pool = far.dataset_for.__self__.train
        assert far_pool is not pool
        assert_bits_equal(far_pool.x, pool.x)
        assert_bits_equal(far_pool.y, pool.y)
        assert far_pool.num_classes == pool.num_classes
        for cid in (9, 2, 5):
            assert_bits_equal(far.dataset_for(cid)[1], store._dataset_for(cid)[1])
        assert far.seed_address == store.seed_address

    @FEDERATIONS
    def test_shards_unpickled_in_one_process_share_one_pool(self, build):
        """The first pin and a later re-deal re-derive the pool once."""
        store = build(seed=4).clients
        first = shard_from_bytes(shard_to_bytes(store.shard([0, 1, 2])))
        redealt = shard_from_bytes(shard_to_bytes(store.shard([7, 8])))
        assert first.dataset_for.__self__.train is redealt.dataset_for.__self__.train

    @FEDERATIONS
    def test_tampered_digest_is_a_protocol_error(self, build):
        scn = build(seed=5)
        store = scn.population
        digest = scn.fed.pool_digest.encode()
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

    @pytest.mark.parametrize("build", [small_paper, small_store], ids=["paper", "population"])
    def test_unpickled_where_built_draws_nothing(self, build, monkeypatch):
        """The memo holds the pool, so an unpickle beside it draws no
        pool and no empty test set -- and the digest check still refuses
        a tampered pool on that hit.  (The LEAF builder draws outside the
        memo, so its first unpickle draws.)"""
        scn = build(seed=6)
        draws = []
        real_draw = scenarios.PoolRecipe._draw

        def counting_draw(recipe, test_size):
            draws.append(test_size)
            return real_draw(recipe, test_size)

        monkeypatch.setattr(scenarios.PoolRecipe, "_draw", counting_draw)
        blob = pickle.dumps(scn.fed, protocol=pickle.HIGHEST_PROTOCOL)
        far = pickle.loads(blob)
        assert draws == []
        assert far.train is scn.fed.train and len(far.test) == 0
        digest = scn.fed.pool_digest.encode()
        assert blob.count(digest) == 1
        with pytest.raises(ValueError, match="digest mismatch"):
            pickle.loads(blob.replace(digest, b"0" * len(digest)))
        assert draws == []

    @pytest.mark.parametrize("dataset", sorted(scenarios._DATASETS) + [scenarios._LEAF])
    def test_memo_hit_builds_the_empty_test_set_a_draw_makes(self, dataset, monkeypatch):
        monkeypatch.setattr(scenarios, "_DRAWN", weakref.WeakValueDictionary())
        seed = SeedAddress.capture(np.random.default_rng(1))
        recipe = scenarios.PoolRecipe(dataset, (4, 4, 1), 64, seed, writers=5, num_classes=10)
        pool, _ = recipe.draw(16)  # the pool is memoised, the empty test set is not
        hit_pool, hit = recipe.draw()
        _, drawn = recipe._draw(0)
        assert hit_pool is pool
        assert (hit.name, hit.num_classes) == (drawn.name, drawn.num_classes)
        assert_bits_equal(hit.x, drawn.x)
        assert_bits_equal(hit.y, drawn.y)

    @FEDERATIONS
    def test_oversized_recipe_is_refused_before_it_allocates(self, build, monkeypatch):
        fed = build(seed=6).fed
        blob = pickle.dumps(fed.client_rows)
        monkeypatch.setattr(transport, "MAX_FRAME_PAYLOAD", fed.recipe.nbytes - 1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="more than one frame"):
                pickle.loads(blob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < fed.recipe.nbytes // 10
        monkeypatch.undo()
        huge = dataclasses.replace(fed, recipe=dataclasses.replace(fed.recipe, size=10**12))
        with pytest.raises(ValueError, match="more than one frame"):
            pickle.loads(pickle.dumps(huge))


def run_federation(executor, scn, seed, rounds=ROUNDS):
    """``scn`` through FLServer; returns the history and, on a distributed
    executor, each worker's ASSIGN_SHARD bytes (read before it closes)."""
    with FLServer(
        clients=scn.clients,
        model=scn.model,
        selector=RandomSelector(scn.clients_per_round, rng=derive(seed, 101)),
        test_data=scn.test_data,
        training=scn.training,
        rng=derive(seed, 202),
        executor=executor,
    ) as server:
        history = server.run(rounds)
        handles = getattr(executor, "_handles", {}).values()
        kind = int(proto.MsgType.ASSIGN_SHARD)
        shard_bytes = [h.conn.bytes_sent_by_type.get(kind, 0) for h in handles]
    return history, shard_bytes


class TestPaperFederationsOnTheWire:
    """The partitioned and LEAF builders over 2 real loopback workers: the
    history matches serial and each worker's shard is columns, rows and
    a recipe -- never the pool or the test set."""

    @pytest.mark.parametrize("build", [small_paper, small_leaf], ids=["paper", "leaf"])
    def test_matches_serial_and_ships_no_pool(self, build):
        ref_history, _ = run_federation("serial", build(seed=21), seed=21)

        ex = DistributedExecutor(workers=2, **FAST_TIMEOUTS)
        procs = spawn_local_workers(ex.listen(), 2)
        try:
            history, shard_bytes = run_federation(ex, build(seed=21), seed=21)
        finally:
            ex.close()
            codes = terminate_workers(procs)

        assert codes == [0, 0]
        assert fingerprint(history) == fingerprint(ref_history)
        assert len(shard_bytes) == 2
        assert all(0 < b < 256 * 1024 for b in shard_bytes), shard_bytes
