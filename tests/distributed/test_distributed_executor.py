"""Loopback integration tests for the distributed executor.

Real worker processes (forked by ``spawn_local_workers``, each running
the ``worker`` command), real TCP sockets on 127.0.0.1, real training --
and the same bar the in-process backends clear: global weights
bit-identical to the serial schedule, including across a worker killed
with SIGKILL mid-run.  ``test_launch.py`` runs the fresh-interpreter
``python -m repro.cli worker`` a remote node starts.
"""

import os
import signal

import numpy as np
import pytest

from repro.config import TrainingConfig
from repro.distributed import (
    DistributedExecutor,
    spawn_local_workers,
    terminate_workers,
)
from repro.execution import ExecutorError, TrainRequest, create_executor
from repro.fl.aggregator import fedavg
from repro.fl.selection import RandomSelector
from repro.fl.server import FLServer
from repro.nn import build_mlp
from tests.conftest import make_test_client, make_test_population, make_tiny_dataset

TRAIN = TrainingConfig(optimizer="rmsprop", lr=0.05, lr_decay=0.99)

# Generous on CI, small enough that a hung socket fails the test (and the
# CI step's own hard timeout) quickly instead of stalling for 10 minutes.
FAST_TIMEOUTS = dict(accept_timeout=60.0, result_timeout=90.0)


def make_pool(num_clients=6, seed=7):
    clients = [make_test_client(client_id=i, seed=seed) for i in range(num_clients)]
    return {c.client_id: c for c in clients}


def start_distributed(pool, model, num_workers, capacities=None, **kwargs):
    """A bound, listening coordinator plus its spawned worker processes."""
    opts = dict(FAST_TIMEOUTS)
    opts.update(kwargs)
    ex = DistributedExecutor(workers=num_workers, **opts)
    ex.bind(pool, model, TRAIN)
    endpoint = ex.listen()
    procs = spawn_local_workers(endpoint, num_workers, capacities=capacities)
    return ex, procs


def run_server(executor, rounds=4, seed=7, num_clients=6, per_round=3):
    clients = make_test_population(num_clients, seed=seed)
    model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=seed)
    with FLServer(
        clients=clients,
        model=model,
        selector=RandomSelector(per_round, rng=seed),
        test_data=make_tiny_dataset(n=30, seed=999),
        training=TRAIN,
        rng=seed,
        executor=executor,
    ) as server:
        history = server.run(rounds)
        return server.global_weights.copy(), history


class TestLoopbackEquivalence:
    def test_bit_identical_to_serial_through_fl_server(self):
        """The acceptance bar: >= 3 rounds through a real FLServer with
        real worker subprocesses, final weights bit-equal to serial."""
        ref_weights, ref_history = run_server("serial", rounds=4)

        # The server binds its own pool; the executor only needs to be
        # listening (with workers on the way) before the first round.
        ex = DistributedExecutor(workers=2, **FAST_TIMEOUTS)
        procs = spawn_local_workers(ex.listen(), 2)
        try:
            weights, history = run_server(ex, rounds=4)
        finally:
            ex.close()
            codes = terminate_workers(procs)
        assert np.array_equal(ref_weights, weights), "distributed diverged"
        for ra, rb in zip(ref_history.records, history.records):
            assert ra.selected == rb.selected
            assert ra.accuracy == rb.accuracy
            assert ra.round_latency == rb.round_latency
        assert codes == [0, 0], "workers did not exit cleanly after SHUTDOWN"

    def test_updates_arrive_in_request_order_with_byte_accounting(self):
        pool = make_pool(num_clients=5)
        model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=7)
        ex, procs = start_distributed(pool, model, num_workers=2)
        try:
            requests = [TrainRequest(cid) for cid in (3, 0, 4, 1)]
            updates = ex.train_cohort(0, requests, model.get_flat_weights())
            assert [u.client_id for u in updates] == [3, 0, 4, 1]
            assert ex.bytes_sent > 0 and ex.bytes_received > 0
            sent_before_close = ex.bytes_sent
        finally:
            ex.close()
            terminate_workers(procs)
        # Counters survive close (the benchmark reads them afterwards).
        assert ex.bytes_sent >= sent_before_close

    def test_capacity_weights_the_dealt_share(self):
        pool = make_pool(num_clients=6)
        model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=7)
        trained_by = {}

        class Recording(DistributedExecutor):
            def _on_update_received(self, worker_id, client_id):
                trained_by[client_id] = worker_id

        ex = Recording(workers=2, **FAST_TIMEOUTS)
        ex.bind(pool, model, TRAIN)
        procs = spawn_local_workers(ex.listen(), 2, capacities=[2, 1])
        try:
            reqs = [TrainRequest(cid) for cid in sorted(pool)]
            ex.train_cohort(0, reqs, model.get_flat_weights())
            owners = list(trained_by.values())
            # Workers register in nondeterministic order, so assert the
            # *shape*: one worker trains 2/3 of the clients, the other 1/3.
            counts = sorted(owners.count(w) for w in set(owners))
            assert counts == [2, 4]
        finally:
            ex.close()
            terminate_workers(procs)


class TestWorkerLoss:
    def test_kill_between_rounds_stays_bit_identical(self):
        """SIGKILL one worker after round 0; its clients are reassigned
        (with replayed RNG state) and training stays bit-identical."""

        def run(kill):
            pool = make_pool(num_clients=6, seed=11)
            model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=11)
            g = model.get_flat_weights()
            reqs = [TrainRequest(cid) for cid in sorted(pool)]
            ex, procs = start_distributed(
                pool, model, num_workers=2, heartbeat_interval=0.5
            )
            try:
                for r in range(4):
                    ups = ex.train_cohort(r, reqs, g)
                    g = fedavg(
                        [u.flat_weights for u in ups],
                        [float(u.num_samples) for u in ups],
                    )
                    if kill and r == 0:
                        os.kill(ex.worker_pid(0), signal.SIGKILL)
                assert ex.num_workers_started == (1 if kill else 2)
            finally:
                ex.close()
                terminate_workers(procs)
            return g

        serial = _serial_reference(seed=11, rounds=4)
        assert np.array_equal(serial, run(kill=False))
        assert np.array_equal(serial, run(kill=True))

    def test_kill_mid_round_reassigns_and_stays_bit_identical(self):
        """Kill a worker the moment its first update of a round arrives:
        its remaining in-flight jobs are re-dispatched to the survivor and
        the global weights still match the serial schedule."""

        class KillOnFirstUpdate(DistributedExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.killed = False

            def _on_update_received(self, worker_id, client_id):
                if not self.killed:
                    self.killed = True
                    os.kill(self.worker_pid(worker_id), signal.SIGKILL)

        pool = make_pool(num_clients=6, seed=13)
        model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=13)
        g = model.get_flat_weights()
        reqs = [TrainRequest(cid) for cid in sorted(pool)]
        ex = KillOnFirstUpdate(workers=2, heartbeat_interval=0.5, **FAST_TIMEOUTS)
        ex.bind(pool, model, TRAIN)
        procs = spawn_local_workers(ex.listen(), 2)
        try:
            for r in range(3):
                ups = ex.train_cohort(r, reqs, g)
                g = fedavg(
                    [u.flat_weights for u in ups],
                    [float(u.num_samples) for u in ups],
                )
            assert ex.killed
            assert ex.num_workers_started == 1
        finally:
            ex.close()
            terminate_workers(procs)
        assert np.array_equal(_serial_reference(seed=13, rounds=3), g)

    def test_all_workers_dead_raises_executor_error(self):
        pool = make_pool(num_clients=3)
        model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=7)
        ex, procs = start_distributed(
            pool, model, num_workers=1, heartbeat_interval=0.5
        )
        try:
            g = model.get_flat_weights()
            ex.train_cohort(0, [TrainRequest(0)], g)
            os.kill(ex.worker_pid(0), signal.SIGKILL)
            with pytest.raises(ExecutorError, match="workers are gone"):
                ex.train_cohort(1, [TrainRequest(0), TrainRequest(1)], g)
        finally:
            ex.close()
            terminate_workers(procs)


def _serial_reference(seed, rounds):
    pool = make_pool(num_clients=6, seed=seed)
    model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=seed)
    g = model.get_flat_weights()
    reqs = [TrainRequest(cid) for cid in sorted(pool)]
    with create_executor("serial") as ex:
        ex.bind(pool, model, TRAIN)
        for r in range(rounds):
            ups = ex.train_cohort(r, reqs, g)
            g = fedavg(
                [u.flat_weights for u in ups], [float(u.num_samples) for u in ups]
            )
    return g


class _Boom(Exception):
    pass


class _FailingClient:
    """Duck-typed client whose training always raises (picklable)."""

    def __init__(self, client_id):
        self.client_id = client_id
        self.num_train_samples = 10

    def train(self, *args, **kwargs):
        raise _Boom(f"boom from client {self.client_id}")


class TestFailurePropagation:
    def test_worker_side_training_failure_surfaces_with_traceback(self):
        pool = make_pool(num_clients=2)
        pool[9] = _FailingClient(9)
        model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=7)
        ex, procs = start_distributed(pool, model, num_workers=2)
        try:
            reqs = [TrainRequest(cid) for cid in sorted(pool)]
            with pytest.raises(ExecutorError, match="boom from client 9"):
                ex.train_cohort(0, reqs, model.get_flat_weights())
        finally:
            ex.close()
            terminate_workers(procs)


class TestLifecycleAndConfig:
    def test_create_executor_distributed(self):
        ex = create_executor("distributed", workers=3, endpoint="127.0.0.1:0")
        assert isinstance(ex, DistributedExecutor)
        assert ex.workers == 3
        ex.close()

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="workers"):
            DistributedExecutor(workers=0)
        with pytest.raises(ValueError, match="endpoint"):
            DistributedExecutor(endpoint="not-an-endpoint")

    def test_training_config_accepts_distributed(self):
        cfg = TrainingConfig(executor="distributed", endpoint="127.0.0.1:7777")
        assert cfg.executor == "distributed"
        with pytest.raises(ValueError, match="endpoint"):
            TrainingConfig(endpoint="nonsense")

    def test_listen_reports_ephemeral_port(self):
        ex = DistributedExecutor(workers=1)
        endpoint = ex.listen()
        host, port = endpoint.rsplit(":", 1)
        assert host == "127.0.0.1" and int(port) > 0
        assert ex.listen() == endpoint  # idempotent
        ex.close()

    def test_registration_timeout_fails_fast(self):
        pool = make_pool(num_clients=2)
        model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=7)
        ex = DistributedExecutor(workers=1, accept_timeout=0.5)
        ex.bind(pool, model, TRAIN)
        ex.listen()
        with pytest.raises(ExecutorError, match="registered"):
            ex.train_cohort(0, [TrainRequest(0)], model.get_flat_weights())
        ex.close()

    def test_closed_executor_refuses_listen(self):
        ex = DistributedExecutor(workers=1)
        ex.close()
        with pytest.raises(ExecutorError, match="after close"):
            ex.listen()
