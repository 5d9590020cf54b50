"""Tests for the pluggable client-execution backends.

The load-bearing guarantee: every backend produces **bit-identical**
global weights, training histories and client train streams to the
serial schedule, so choosing a backend is purely a wall-clock decision.
Plus the executor contract each backend keeps (request order,
precondition errors, latency stamping), unit tests for client pinning,
deterministic merge order under shuffled completion, failure
propagation out of worker processes, and the removal of the ``thread``
and ``batched`` backends.
"""

import os
import signal
import socket
import time

import numpy as np
import pytest

from repro.config import TrainingConfig
from repro.fl.aggregator import fedavg
from repro.distributed import ProcessExecutor
from repro.execution import (
    EXECUTOR_BACKENDS,
    ExecutorError,
    SerialExecutor,
    TrainRequest,
    create_executor,
    order_updates,
    resolve_executor,
)
from repro.experiments.scenarios import build_population_scenario
from repro.fl.async_server import AsyncFLServer
from repro.fl.selection import RandomSelector
from repro.fl.server import FLServer
from repro.nn import build_mlp
from repro.nn.layers import Dense, Dropout, Flatten, ReLU
from repro.nn.model import Sequential
from repro.rng import derive
from repro.simcluster.client import ClientUpdate
from repro.tifl.server import TiFLServer
from tests.conftest import (
    advance_train_stream,
    make_test_client,
    make_test_population,
    make_tiny_dataset,
    open_executor,
)

TRAIN = TrainingConfig(optimizer="rmsprop", lr=0.05, lr_decay=0.99)


#: Every backend that is not the serial reference.
WORKER_BACKENDS = [b for b in EXECUTOR_BACKENDS if b != "serial"]


def make_pool(num_clients=6, seed=7):
    return [make_test_client(client_id=i, seed=seed) for i in range(num_clients)]


def make_server(executor, workers, seed=7, num_clients=6, per_round=3, model=None):
    clients = make_test_population(num_clients, seed=seed)
    model = model or build_mlp((4, 4, 1), 3, hidden=(8,), rng=seed)
    test = make_tiny_dataset(n=30, seed=999)
    return FLServer(
        clients=clients,
        model=model,
        selector=RandomSelector(per_round, rng=seed),
        test_data=test,
        training=TRAIN,
        rng=seed,
        executor=executor,
        workers=workers,
    )


def run_training(executor, workers, rounds=4):
    with make_server(executor, workers) as server:
        history = server.run(rounds)
        return server.global_weights.copy(), history


def assert_histories_identical(a, b, backend):
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.round_idx == rb.round_idx
        assert ra.selected == rb.selected, backend
        assert ra.dropped == rb.dropped
        assert ra.round_latency == rb.round_latency, backend
        assert ra.sim_time == rb.sim_time
        assert ra.accuracy == rb.accuracy, backend


class TestBackendEquivalence:
    """Every backend's runs must be bit-for-bit identical to serial's."""

    @pytest.mark.parametrize("backend", WORKER_BACKENDS)
    def test_all_backends_bit_identical(self, backend):
        ref_weights, ref_history = run_training("serial", 1)
        with open_executor(backend, 2) as executor:
            weights, history = run_training(executor, None)
        assert np.array_equal(ref_weights, weights), f"{backend} backend diverged from serial"
        assert_histories_identical(ref_history, history, backend)

    def test_process_backend_multi_epoch_and_shuffles(self):
        """Worker-pinned RNG streams must track the serial schedule even
        when local epochs vary per client and per round."""

        def epochs_for(cid, r):
            return 1 + (cid + r) % 2

        results = {}
        for backend, workers in [("serial", 1), ("process", 3)]:
            clients = make_test_population(5, seed=11)
            model = build_mlp((4, 4, 1), 3, hidden=(6,), rng=11)
            with FLServer(
                clients=clients,
                model=model,
                selector=RandomSelector(3, rng=1),
                test_data=make_tiny_dataset(n=20, seed=998),
                training=TRAIN,
                epochs_for=epochs_for,
                rng=1,
                executor=backend,
                workers=workers,
            ) as server:
                server.run(3)
                results[backend] = server.global_weights.copy()
        assert np.array_equal(results["serial"], results["process"])

    def test_tifl_server_with_process_backend(self):
        results = {}
        for backend in ["serial", "process"]:
            # spread of cpu fractions so quantile tiering yields 2 tiers
            clients = make_test_population(
                8, cpus=[1.0 / (1 + i) for i in range(8)], seed=3
            )
            model = build_mlp((4, 4, 1), 3, hidden=(6,), rng=3)
            with TiFLServer(
                clients=clients,
                model=model,
                test_data=make_tiny_dataset(n=20, seed=997),
                clients_per_round=3,
                policy="uniform",
                num_tiers=2,
                sync_rounds=2,
                training=TRAIN,
                rng=5,
                executor=backend,
                workers=2,
            ) as server:
                server.run(3)
                results[backend] = server.global_weights.copy()
        assert np.array_equal(results["serial"], results["process"])

    def test_async_server_with_executor(self):
        results = {}
        for backend in ["serial", "process"]:
            clients = make_test_population(5, seed=2)
            model = build_mlp((4, 4, 1), 3, hidden=(6,), rng=2)
            with create_executor(backend, workers=2) as executor:
                server = AsyncFLServer(
                    clients=clients,
                    model=model,
                    test_data=make_tiny_dataset(n=20, seed=996),
                    concurrency=2,
                    training=TRAIN,
                    rng=4,
                    executor=executor,
                )
                server.run(6)
                results[backend] = server.global_weights.copy()
        assert np.array_equal(results["serial"], results["process"])


@pytest.mark.parametrize(
    "rate",
    [
        0.0,
        pytest.param(
            0.25,
            marks=pytest.mark.xfail(
                strict=True,
                reason="Dropout's mask stream lives in the workspace, so each process "
                "worker advances its own copy (docs/numerics.md; ROADMAP open item 3)",
            ),
        ),
    ],
)
def test_dropout_model_process_vs_serial(rate):
    """The scope of the bit-identity invariant.  All four clients train
    every round, two per worker: worker 1's first client re-draws the
    masks serial gave its first client, so an active Dropout diverges
    deterministically; the same layers at rate 0 draw nothing and match.
    The day the mask stream moves into the client the strict xfail turns
    red and the docs that state the exception must follow."""
    results = {}
    for backend, workers in [("serial", 1), ("process", 2)]:
        model = Sequential(
            [Flatten(), Dense(8), ReLU(), Dropout(rate), Dense(3)],
            input_shape=(4, 4, 1),
            rng=13,
        )
        with make_server(backend, workers, num_clients=4, per_round=4, model=model) as server:
            server.run(2)
            results[backend] = server.global_weights.copy()
    assert np.array_equal(results["serial"], results["process"])


class _SlowFakeClient:
    """Duck-typed client whose completion order reverses request order."""

    def __init__(self, client_id, delay):
        self.client_id = client_id
        self.num_train_samples = 10
        self._delay = delay

    def train(self, workspace, global_weights, factory, **kwargs):
        time.sleep(self._delay)
        return np.asarray(global_weights, dtype=np.float64) + self.client_id


class _FailingClient:
    def __init__(self, client_id):
        self.client_id = client_id
        self.num_train_samples = 10

    def train(self, *args, **kwargs):
        raise RuntimeError("boom from worker")


class TestMergeOrder:
    def test_order_updates_reorders_shuffled_completion(self):
        requests = [TrainRequest(cid) for cid in (5, 1, 9, 3)]
        shuffled = [
            ClientUpdate(cid, np.full(2, float(cid)), 1, 0.0) for cid in (3, 9, 5, 1)
        ]
        ordered = order_updates(shuffled, requests)
        assert [u.client_id for u in ordered] == [5, 1, 9, 3]

    def test_order_updates_rejects_missing_and_duplicates(self):
        requests = [TrainRequest(1), TrainRequest(2)]
        u1 = ClientUpdate(1, np.zeros(1), 1, 0.0)
        with pytest.raises(ExecutorError, match="no update"):
            order_updates([u1], requests)
        with pytest.raises(ExecutorError, match="duplicate"):
            order_updates([u1, u1, ClientUpdate(2, np.zeros(1), 1, 0.0)], requests)
        with pytest.raises(ExecutorError, match="never requested"):
            order_updates(
                [
                    u1,
                    ClientUpdate(2, np.zeros(1), 1, 0.0),
                    ClientUpdate(7, np.zeros(1), 1, 0.0),
                ],
                requests,
            )

    def test_process_request_order_under_reversed_completion(self, monkeypatch):
        """One slow client per worker, the first-requested the slowest:
        results reach the parent's queue last-requested first."""
        import repro.distributed.coordinator as coordinator_mod

        arrived = []

        def recording_order_updates(updates, requests):
            arrived.extend(u.client_id for u in updates)
            return order_updates(updates, requests)

        monkeypatch.setattr(coordinator_mod, "order_updates", recording_order_updates)
        n = 4
        clients = {
            cid: _SlowFakeClient(cid, delay=0.05 * (n - cid)) for cid in range(n)
        }
        model = build_mlp((4, 4, 1), 3, hidden=(4,), rng=0)
        with ProcessExecutor(workers=n) as ex:
            ex.bind(clients, model, TRAIN)
            requests = [TrainRequest(cid) for cid in range(n)]
            weights = np.zeros(model.num_params())
            updates = ex.train_cohort(0, requests, weights)
        assert arrived != sorted(arrived)  # completion order was not request order
        assert [u.client_id for u in updates] == [r.client_id for r in requests]
        for u in updates:
            np.testing.assert_array_equal(u.flat_weights, weights + u.client_id)


class TestProcessBackend:
    def test_equal_cost_cohort_alternates_over_the_workers(self):
        """Clients of one size are dealt in id order, one per worker in
        turn: the balancer's tie-breaks, by key then worker id."""
        clients = make_pool(num_clients=5, seed=1)
        model = build_mlp((4, 4, 1), 3, hidden=(4,), rng=1)
        trained_by = {}

        class Recording(ProcessExecutor):
            def _on_update_received(self, worker_id, client_id):
                trained_by[client_id] = worker_id

        with Recording(workers=2) as ex:
            ex.bind({c.client_id: c for c in clients}, model, TRAIN)
            g = model.get_flat_weights()
            ex.train_cohort(0, [TrainRequest(c.client_id) for c in clients], g)
            assert ex.num_workers_started == 2
            assert [trained_by[cid] for cid in range(5)] == [0, 1, 0, 1, 0]

    def test_worker_count_capped_by_pool_size(self):
        clients = make_pool(num_clients=2, seed=1)
        model = build_mlp((4, 4, 1), 3, hidden=(4,), rng=1)
        with ProcessExecutor(workers=8) as ex:
            ex.bind({c.client_id: c for c in clients}, model, TRAIN)
            ex.train_cohort(
                0,
                [TrainRequest(c.client_id) for c in clients],
                model.get_flat_weights(),
            )
            assert ex.num_workers_started == 2

    def test_started_pool_listens_nowhere_and_matches_serial_under_spawn(self, monkeypatch):
        """The local pool registers its workers over socketpairs: it has
        no listener, and every worker connection is a local ``AF_UNIX``
        pair end, so nothing else on the machine can join it.  Workers started with ``spawn`` -- no
        inherited memory, only what crossed the pair -- still train
        bit-identically to serial."""
        import multiprocessing

        import repro.distributed.launch as launch

        monkeypatch.setattr(launch, "worker_context", lambda: multiprocessing.get_context("spawn"))
        weights = {}
        for backend in ("serial", "process"):
            with make_server(backend, 2, num_clients=4, per_round=4) as server:
                server.run(2)
                weights[backend] = server.global_weights.copy()
                if backend == "process":
                    ex = server.executor
                    assert ex.num_workers_started == 2
                    assert not hasattr(ex, "listen")
                    families = {h.conn._sock.family for h in ex._handles.values()}
                    assert families == {socket.AF_UNIX}
        assert np.array_equal(weights["serial"], weights["process"])

    def test_a_killed_worker_is_re_dealt_bit_identically(self):
        """A local worker SIGKILLed between rounds is retired and its
        clients are re-dealt over the survivor with their RNG state: the
        run goes on and stays bit-identical to serial."""

        def run(backend):
            with make_server(backend, 2, num_clients=6, per_round=4) as server:
                server.run_round(0)
                if backend == "process":
                    os.kill(server.executor.worker_pid(0), signal.SIGKILL)
                for r in range(1, 4):
                    server.run_round(r)
                if backend == "process":
                    assert server.executor.num_workers_started == 1
                return server.global_weights.copy()

        assert np.array_equal(run("serial"), run("process"))

    def test_worker_failure_surfaces_as_executor_error(self):
        clients = {0: _FailingClient(0)}
        model = build_mlp((4, 4, 1), 3, hidden=(4,), rng=1)
        with ProcessExecutor(workers=1) as ex:
            ex.bind(clients, model, TRAIN)
            with pytest.raises(ExecutorError, match="boom from worker"):
                ex.train_cohort(0, [TrainRequest(0)], model.get_flat_weights())

    def test_rng_state_syncs_back_to_parent_pool(self):
        """A pool trained through a process executor must be reusable by
        any later executor without replaying shuffle streams: phase 2
        (serial) must see the streams where phase 1 (process) left them."""

        def two_phase(first_backend):
            clients = make_pool(num_clients=3, seed=21)
            pool = {c.client_id: c for c in clients}
            model = build_mlp((4, 4, 1), 3, hidden=(4,), rng=21)
            g = model.get_flat_weights()
            reqs = [TrainRequest(cid) for cid in sorted(pool)]
            with create_executor(first_backend, workers=2) as ex:
                ex.bind(pool, model, TRAIN)
                ups = ex.train_cohort(0, reqs, g)
            g1 = fedavg(
                [u.flat_weights for u in ups], [float(u.num_samples) for u in ups]
            )
            with create_executor("serial") as ex:
                ex.bind(pool, model, TRAIN)
                ups = ex.train_cohort(1, reqs, g1)
            return fedavg(
                [u.flat_weights for u in ups], [float(u.num_samples) for u in ups]
            )

        assert np.array_equal(two_phase("serial"), two_phase("process"))

    @pytest.mark.parametrize("latency_stream", ["per-client", "cohort"])
    def test_recurring_bytes_per_round_do_not_depend_on_population_size(
        self, latency_stream
    ):
        """Workers hold column shards, so a round's tasks and results name
        client ids only: at a fixed 20-client cohort the recurring IPC
        bytes per round are the same at 10^3 and 10^5 clients (only the
        encoded width of larger ids differs), the history equals the
        serial store run's at each size, and the parent materialises the
        cohorts on the per-client stream (each client owns its latency
        RNG), never the population, and no client at all on the cohort
        stream, whose latencies it draws off the columns."""
        cohort, rounds = 20, 3

        def run(executor, num_clients, seed=0):
            scn = build_population_scenario(
                num_clients=num_clients, clients_per_round=cohort, seed=seed
            )
            shipped = []
            with FLServer(
                clients=scn.population,
                model=scn.model,
                selector=RandomSelector(cohort, rng=derive(seed, 101)),
                test_data=scn.test_data,
                training=scn.training,
                rng=derive(seed, 202),
                executor=executor,
                latency_stream=latency_stream,
            ) as server:
                for r in range(rounds):
                    server.run_round(r)
                    shipped.append(getattr(server.executor, "bytes_shipped", 0))
            # Round 0 absorbs worker start-up; the rest is the steady state.
            steady = (shipped[-1] - shipped[0]) / (rounds - 1)
            return server.history.records, steady, scn.population.materialize_count

        per_round = {}
        for num_clients in (1_000, 100_000):
            serial_records, _, _ = run("serial", num_clients)
            records, per_round[num_clients], materialized = run(
                ProcessExecutor(workers=2), num_clients
            )
            assert records == serial_records, num_clients
            if latency_stream == "cohort":
                assert materialized == 0
            else:
                assert materialized <= cohort * rounds
        assert per_round[1_000] > 0
        assert per_round[100_000] == pytest.approx(per_round[1_000], rel=0.01)


def bound_pool(num_clients=3, seed=1, sizes=None):
    """``{cid: client}``; ``sizes`` cycles the clients' sample counts."""
    return {
        i: make_test_client(
            client_id=i, seed=seed, n=30 if sizes is None else sizes[i % len(sizes)]
        )
        for i in range(num_clients)
    }


def small_model(seed=1):
    return build_mlp((4, 4, 1), 3, hidden=(4,), rng=seed)


@pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
class TestEveryBackendContract:
    """The :class:`ClientExecutor` contract, held alike by each backend.
    Each test trains one cohort first where it can, so a backend with
    workers is checked started, not only at its front door."""

    def test_unknown_client_rejected(self, backend):
        model = small_model()
        with open_executor(backend, 1) as ex:
            ex.bind(bound_pool(num_clients=2), model, TRAIN)
            ex.train_cohort(0, [TrainRequest(0)], model.get_flat_weights())
            with pytest.raises(ExecutorError, match="unknown"):
                ex.train_cohort(1, [TrainRequest(99)], model.get_flat_weights())

    def test_duplicate_clients_rejected(self, backend):
        model = small_model()
        with open_executor(backend, 1) as ex:
            ex.bind(bound_pool(num_clients=2), model, TRAIN)
            ex.train_cohort(0, [TrainRequest(0)], model.get_flat_weights())
            with pytest.raises(ExecutorError, match="duplicate clients"):
                ex.train_cohort(1, [TrainRequest(0), TrainRequest(0)], model.get_flat_weights())

    def test_empty_cohort_returns_no_updates(self, backend):
        model = small_model()
        with open_executor(backend, 1) as ex:
            ex.bind(bound_pool(num_clients=2), model, TRAIN)
            assert ex.train_cohort(0, [], model.get_flat_weights()) == []
            ex.train_cohort(0, [TrainRequest(1)], model.get_flat_weights())
            assert ex.train_cohort(1, [], model.get_flat_weights()) == []

    def test_use_before_bind_and_after_close(self, backend):
        model = small_model()
        with open_executor(backend, 1) as ex:
            with pytest.raises(ExecutorError, match="before bind"):
                ex.train_cohort(0, [TrainRequest(0)], np.zeros(1))
            ex.bind(bound_pool(num_clients=2), model, TRAIN)
            ex.train_cohort(0, [TrainRequest(0)], model.get_flat_weights())
            ex.close()
            with pytest.raises(ExecutorError, match="after close"):
                ex.train_cohort(1, [TrainRequest(0)], model.get_flat_weights())

    def test_latencies_are_stamped_onto_updates(self, backend):
        model = small_model()
        latencies = {cid: 0.5 + cid for cid in range(3)}
        with open_executor(backend, 2) as ex:
            ex.bind(bound_pool(num_clients=3), model, TRAIN)
            updates = ex.train_cohort(
                0,
                [TrainRequest(cid) for cid in (2, 0, 1)],
                model.get_flat_weights(),
                latencies=latencies,
            )
        assert [u.latency for u in updates] == [2.5, 0.5, 1.5]

    def test_updates_follow_request_order_with_mixed_sample_counts(self, backend):
        pool = bound_pool(num_clients=6, sizes=(30, 20))
        model = small_model()
        order = [3, 0, 5, 2, 1, 4]
        with open_executor(backend, 2) as ex:
            ex.bind(pool, model, TRAIN)
            updates = ex.train_cohort(
                0, [TrainRequest(cid) for cid in order], model.get_flat_weights()
            )
        assert [u.client_id for u in updates] == order
        assert [u.num_samples for u in updates] == [pool[cid].num_train_samples for cid in order]


#: name -> (requests, training config, sample counts cycled over the pool).
COHORT_CASES = {
    "one_epoch": ([TrainRequest(cid) for cid in range(4)], TRAIN, None),
    "multi_epoch": (
        [TrainRequest(0, epochs=2), TrainRequest(1), TrainRequest(2, epochs=3)],
        TRAIN,
        None,
    ),
    "mixed_sample_counts": (
        [TrainRequest(cid) for cid in (3, 0, 2, 1)],
        TRAIN,
        (30, 20, 25),
    ),
    "fedprox": ([TrainRequest(cid) for cid in range(4)], TRAIN.with_(prox_mu=0.1), None),
}


@pytest.mark.parametrize("case", sorted(COHORT_CASES))
@pytest.mark.parametrize("backend", WORKER_BACKENDS)
def test_cohort_is_bit_identical_to_serial(backend, case):
    """One cohort on a fresh pool: the same updates, bit for bit, as the
    serial schedule -- and every client's train stream left where serial
    leaves it, so switching backend between rounds never desyncs one."""
    requests, training, sizes = COHORT_CASES[case]
    pools, updates = {}, {}
    for name in ("serial", backend):
        pools[name] = bound_pool(num_clients=4, seed=11, sizes=sizes)
        model = small_model(seed=11)
        with open_executor(name, 2) as ex:
            ex.bind(pools[name], model, training)
            updates[name] = ex.train_cohort(0, requests, model.get_flat_weights())
    for ref, got in zip(updates["serial"], updates[backend]):
        assert (got.client_id, got.num_samples) == (ref.client_id, ref.num_samples)
        np.testing.assert_array_equal(got.flat_weights, ref.flat_weights)
    for cid in sorted(pools["serial"]):
        np.testing.assert_array_equal(
            advance_train_stream(pools[backend][cid]),
            advance_train_stream(pools["serial"][cid]),
        )


class TestFactoryAndConfig:
    def test_create_executor_names(self):
        assert isinstance(create_executor("serial"), SerialExecutor)
        assert isinstance(create_executor("process", workers=3), ProcessExecutor)
        with pytest.raises(ValueError, match="unknown executor"):
            create_executor("gpu")

    @pytest.mark.parametrize("workers", [0, -4])
    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_every_backend_rejects_fewer_than_one_worker(self, backend, workers):
        # serial has no workers to size, but a typo'd count must still
        # fail loudly rather than quietly run serial.
        with pytest.raises(ValueError, match="workers must be positive"):
            create_executor(backend, workers=workers)

    def test_one_spelling_of_the_backend_list(self):
        """``TrainingConfig`` and ``create_executor`` accept exactly the
        members of the one ``EXECUTOR_BACKENDS`` tuple (config.py owns
        it, the execution package re-exports the same object)."""
        import repro.config

        assert EXECUTOR_BACKENDS is repro.config.EXECUTOR_BACKENDS
        # Every backend is bit-identical to serial by contract.
        assert EXECUTOR_BACKENDS == ("serial", "process", "distributed")
        for backend in EXECUTOR_BACKENDS:
            assert TrainingConfig(executor=backend).executor == backend
            create_executor(backend, workers=2).close()
        for backend in ("Serial", ""):
            with pytest.raises(ValueError, match="executor"):
                TrainingConfig(executor=backend)
            with pytest.raises(ValueError, match="executor"):
                create_executor(backend)

    def test_thread_backend_is_gone(self):
        """Removed with no shim: each way in names the backends that
        are left (the CLI's is in tests/test_cli.py)."""
        for construct in (
            lambda: TrainingConfig(executor="thread"),
            lambda: create_executor("thread"),
        ):
            with pytest.raises(ValueError) as excinfo:
                construct()
            assert all(name in str(excinfo.value) for name in EXECUTOR_BACKENDS)
        with pytest.raises(ImportError):
            from repro import ThreadExecutor  # noqa: F401

    def test_batched_backend_is_gone(self):
        """Removed with its stacked program, no shim: the name is refused
        like any unknown backend, and neither module imports."""
        for construct in (
            lambda: TrainingConfig(executor="batched"),
            lambda: create_executor("batched"),
        ):
            with pytest.raises(ValueError, match="serial"):
                construct()
        with pytest.raises(ImportError):
            import repro.execution.batched  # noqa: F401
        with pytest.raises(ImportError):
            import repro.nn.stacked  # noqa: F401

    def test_started_executor_rejects_new_training_config(self):
        clients = make_pool(num_clients=2, seed=1)
        model = build_mlp((4, 4, 1), 3, hidden=(4,), rng=1)
        pool = {c.client_id: c for c in clients}
        with ProcessExecutor(workers=1) as ex:
            ex.bind(pool, model, TRAIN)
            ex.bind(pool, model, TRAIN.with_(lr=0.5))  # fine before start
            ex.train_cohort(0, [TrainRequest(0)], model.get_flat_weights())
            with pytest.raises(ExecutorError, match="TrainingConfig"):
                ex.bind(pool, model, TRAIN.with_(lr=0.9))

    def test_resolve_executor_passthrough_and_default(self):
        ex = ProcessExecutor(workers=2)
        assert resolve_executor(ex) is ex
        assert isinstance(resolve_executor(None), SerialExecutor)
        with pytest.raises(TypeError):
            resolve_executor(3.14)

    def test_training_config_carries_executor_defaults(self):
        cfg = TrainingConfig(executor="process", workers=4)
        server = make_server(None, None)
        assert isinstance(server.executor, SerialExecutor)
        server.close()
        clients = make_test_population(3, seed=0)
        model = build_mlp((4, 4, 1), 3, hidden=(4,), rng=0)
        with FLServer(
            clients=clients,
            model=model,
            selector=RandomSelector(2, rng=0),
            test_data=make_tiny_dataset(n=20, seed=995),
            training=cfg,
            rng=0,
        ) as server:
            assert isinstance(server.executor, ProcessExecutor)
            assert server.executor.workers == 4

    def test_training_config_validates_executor(self):
        with pytest.raises(ValueError, match="executor"):
            TrainingConfig(executor="quantum")
        with pytest.raises(ValueError, match="workers"):
            TrainingConfig(workers=0)

    def test_rebind_to_other_pool_raises_even_before_start(self):
        clients = make_pool(num_clients=2, seed=1)
        model = build_mlp((4, 4, 1), 3, hidden=(4,), rng=1)
        pool = {c.client_id: c for c in clients}
        other = make_pool(num_clients=1, seed=9)
        with ProcessExecutor(workers=1) as ex:
            ex.bind(pool, model, TRAIN)
            # sharing one executor across federations is rejected even
            # before any worker has started (it would train wrong data)
            with pytest.raises(ExecutorError, match="different client pool"):
                ex.bind(
                    {9: other[0]}, build_mlp((4, 4, 1), 3, hidden=(4,), rng=9), TRAIN
                )
            ex.train_cohort(0, [TrainRequest(0)], model.get_flat_weights())
            ex.bind(pool, model, TRAIN)  # same-pool rebind stays idempotent
            with pytest.raises(ExecutorError, match="different client pool"):
                ex.bind({9: other[0]}, model, TRAIN)

    def test_rebind_same_mapping_never_enumerates_it(self):
        """Re-binding the identical pool object is O(1): the identity
        short-circuit must fire before the O(population) dict compare."""
        import collections.abc

        class CountingPool(collections.abc.Mapping):
            def __init__(self, inner):
                self.inner = inner
                self.iterations = 0

            def __getitem__(self, key):
                return self.inner[key]

            def __len__(self):
                return len(self.inner)

            def __iter__(self):
                self.iterations += 1
                return iter(self.inner)

        clients = make_pool(num_clients=4, seed=1)
        pool = CountingPool({c.client_id: c for c in clients})
        model = build_mlp((4, 4, 1), 3, hidden=(4,), rng=1)
        with SerialExecutor() as ex:
            ex.bind(pool, model, TRAIN)
            first_cost = pool.iterations  # the one defensive dict copy
            for _ in range(5):
                ex.bind(pool, model, TRAIN)
            assert pool.iterations == first_cost, (
                "same-object rebind enumerated the pool again"
            )
