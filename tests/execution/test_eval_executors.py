"""Tests for batched evaluation through the execution backends.

The acceptance bar of the eval overhaul: ``evaluate_cohort`` /
``evaluate_model`` produce **bit-identical** accuracies on every
backend (the distributed backend's single-bind eval shipping is
tested further in ``tests/distributed/test_eval.py``), interleaving
eval with training never perturbs the training trajectory, and the
TiFL tier evaluation built on top keeps its denominator semantics.
"""

import logging
import multiprocessing

import numpy as np
import pytest

from repro.config import TrainingConfig
from repro.distributed import ProcessExecutor
from repro.execution import (
    EXECUTOR_BACKENDS,
    EvalRequest,
    ExecutorError,
    SerialExecutor,
    TrainRequest,
    create_executor,
    evaluate_holdouts,
)
from repro.execution.base import EVAL_BATCH, eval_shard_bounds
from repro.fl.aggregator import fedavg
from repro.nn import build_mlp
from repro.nn.model import Sequential
from repro.tifl.server import TiFLServer
from tests.conftest import (
    make_test_client,
    make_test_population,
    make_tiny_dataset,
    open_executor,
)

TRAIN = TrainingConfig(optimizer="rmsprop", lr=0.05, lr_decay=0.99)

#: The two tests that share a ``multiprocessing`` object with forked workers.
needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="shares an Event / Value with the workers through fork",
)


def make_pool(num_clients=6, seed=7):
    clients = [make_test_client(client_id=i, seed=seed) for i in range(num_clients)]
    return {c.client_id: c for c in clients}


def make_holdoutless_client(client_id, seed=3, cpu=1.0):
    """A client with a genuinely empty holdout (min_holdout=0)."""
    from repro.simcluster.client import SimClient
    from repro.simcluster.latency import LatencyModel
    from repro.simcluster.network import CommModel
    from repro.simcluster.resources import ResourceSpec

    return SimClient(
        client_id=client_id,
        data=make_tiny_dataset(n=30, seed=seed + 1000 * client_id),
        spec=ResourceSpec(cpu_fraction=cpu, group=0),
        latency_model=LatencyModel(
            cost_per_sample=0.01, base_overhead=0.1, noise_sigma=0.0
        ),
        comm_model=CommModel(rtt=0.01, jitter_sigma=0.0),
        holdout_fraction=0.0,
        min_holdout=0,
        rng=seed + client_id,
    )


#: Every backend that is not the serial reference.
WORKER_BACKENDS = [b for b in EXECUTOR_BACKENDS if b != "serial"]


class TestEvalEquivalence:
    @pytest.mark.parametrize("backend", WORKER_BACKENDS)
    def test_eval_bit_identical_across_backends(self, backend):
        results = {}
        for name in ("serial", backend):
            pool = make_pool()
            model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=7)
            with open_executor(name, 2) as ex:
                ex.bind(pool, model, TRAIN)
                results[name] = ex.evaluate_cohort(
                    [EvalRequest(cid) for cid in sorted(pool)],
                    model.get_flat_weights(),
                )
        assert results["serial"] == results[backend]
        assert list(results[backend]) == sorted(make_pool())  # request order
        assert all(0.0 <= a <= 1.0 for a in results["serial"].values())

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_train_eval_interleaving_keeps_training_bit_identical(self, backend):
        """An eval between training cohorts must not perturb the training
        trajectory (eval is pure: no RNG advances, no state mutates) --
        and on a backend with workers the broadcasts each kind of order
        retains must survive the interleaving."""

        def run(name, with_eval):
            pool = make_pool(seed=3)
            model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=3)
            g = model.get_flat_weights()
            reqs = [TrainRequest(cid) for cid in sorted(pool)]
            evals = [EvalRequest(cid) for cid in sorted(pool)]
            with open_executor(name, 2) as ex:
                ex.bind(pool, model, TRAIN)
                for r in range(3):
                    ups = ex.train_cohort(r, reqs, g)
                    g = fedavg(
                        [u.flat_weights for u in ups],
                        [float(u.num_samples) for u in ups],
                    )
                    if with_eval:
                        ex.evaluate_cohort(evals, g)
            return g

        ref = run("serial", with_eval=False)
        assert np.array_equal(ref, run(backend, with_eval=True)), (
            f"{backend} training diverged when interleaved with eval"
        )

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_evaluate_model_matches_direct_evaluation(self, backend):
        """Over bound, shardable data: the serial pass on ``serial``, a
        pass split over two workers on the others."""
        pool = make_pool()
        model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=7)
        test = make_tiny_dataset(n=2 * EVAL_BATCH + 40, seed=123)
        flat = model.get_flat_weights()
        model.set_flat_weights(flat)
        direct = model.evaluate(test.x, test.y)
        with open_executor(backend, 2) as ex:
            ex.bind(pool, model, TRAIN)
            ex.bind_eval_data(test.x, test.y)
            assert ex.evaluate_model(flat, test.x, test.y) == direct


@pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
class TestEvalContract:
    def test_unknown_and_duplicate_eval_requests_rejected(self, backend):
        pool = make_pool(num_clients=2)
        model = build_mlp((4, 4, 1), 3, hidden=(4,), rng=1)
        with open_executor(backend, 1) as ex:
            ex.bind(pool, model, TRAIN)
            ex.evaluate_cohort([EvalRequest(0)], model.get_flat_weights())
            with pytest.raises(ExecutorError, match="unknown"):
                ex.evaluate_cohort([EvalRequest(99)], model.get_flat_weights())
            with pytest.raises(ExecutorError, match="duplicate"):
                ex.evaluate_cohort([EvalRequest(0), EvalRequest(0)], model.get_flat_weights())

    def test_empty_request_list_returns_empty(self, backend):
        pool = make_pool(num_clients=2)
        model = build_mlp((4, 4, 1), 3, hidden=(4,), rng=1)
        with open_executor(backend, 1) as ex:
            ex.bind(pool, model, TRAIN)
            assert ex.evaluate_cohort([], model.get_flat_weights()) == {}
            ex.evaluate_cohort([EvalRequest(0)], model.get_flat_weights())
            assert ex.evaluate_cohort([], model.get_flat_weights()) == {}

    def test_eval_before_bind_and_after_close_raises(self, backend):
        pool = make_pool(num_clients=2)
        model = build_mlp((4, 4, 1), 3, hidden=(4,), rng=1)
        with open_executor(backend, 1) as ex:
            with pytest.raises(ExecutorError, match="before bind"):
                ex.evaluate_cohort([EvalRequest(0)], np.zeros(1))
            ex.bind(pool, model, TRAIN)
            ex.evaluate_cohort([EvalRequest(0)], model.get_flat_weights())
            ex.close()
            with pytest.raises(ExecutorError, match="after close"):
                ex.evaluate_cohort([EvalRequest(0)], model.get_flat_weights())

    def test_empty_holdout_surfaces_as_executor_error(self, backend):
        pool = {i: make_holdoutless_client(i) for i in range(2)}
        model = build_mlp((4, 4, 1), 3, hidden=(4,), rng=1)
        with open_executor(backend, 1) as ex:
            ex.bind(pool, model, TRAIN)
            with pytest.raises(ExecutorError, match="no holdout"):
                ex.evaluate_cohort([EvalRequest(0)], model.get_flat_weights())


@pytest.fixture
def weight_loads(monkeypatch):
    """Count ``Sequential.set_flat_weights`` calls in this process *and*
    in forked executor workers (the patch and the shared counter are
    inherited at fork)."""
    counter = multiprocessing.get_context("fork").Value("i", 0)
    real = Sequential.set_flat_weights

    def counting(model, flat):
        with counter.get_lock():
            counter.value += 1
        return real(model, flat)

    monkeypatch.setattr(Sequential, "set_flat_weights", counting)
    return counter


class TestCohortGranularEval:
    """The cohort is the unit of evaluation work: one weight load per
    workspace per call, accuracies unchanged."""

    @pytest.mark.parametrize("backend", ["serial"])
    def test_in_server_backends_load_once_per_cohort(self, backend, weight_loads):
        pool = make_pool(num_clients=7)
        model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=7)
        flat = model.get_flat_weights()
        with create_executor(backend) as ex:
            ex.bind(pool, model, TRAIN)
            for calls in (1, 2):
                ex.evaluate_cohort([EvalRequest(c) for c in sorted(pool)], flat)
                assert weight_loads.value == calls

    @needs_fork
    def test_process_loads_once_per_worker_per_task(self, weight_loads):
        pool = make_pool(num_clients=6)
        model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=7)
        flat = model.get_flat_weights()
        test = make_tiny_dataset(n=1100, seed=5)  # 5 eval batches
        with ProcessExecutor(workers=2) as ex:
            ex.bind(pool, model, TRAIN)
            ex.bind_eval_data(test.x, test.y)
            ex.evaluate_cohort([EvalRequest(c) for c in sorted(pool)], flat)
            assert weight_loads.value == 2
            ex.evaluate_cohort([EvalRequest(0)], flat)  # dealt to one worker
            assert weight_loads.value == 3
            ex.evaluate_model(flat, test.x, test.y)  # sharded: one load each
            assert weight_loads.value == 5

    def test_single_client_api_returns_the_helpers_float(self):
        pool = make_pool(num_clients=4)
        model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=7)
        flat = model.get_flat_weights()
        accs, failures = evaluate_holdouts(model, pool, sorted(pool), flat)
        assert failures == {} and list(accs) == sorted(pool)
        for cid, client in pool.items():
            assert client.evaluate(model, flat) == accs[cid]

    @pytest.mark.parametrize(
        "backend,workers", [("serial", 1), ("process", 2), ("distributed", 2)]
    )
    def test_one_empty_holdout_fails_the_batch_by_name(self, backend, workers):
        """The bad client is named -- with its worker, on a pool -- every
        other client was still scored (nothing left queued), and the
        executor keeps working."""
        pool = make_pool(num_clients=5)
        pool[5] = make_holdoutless_client(5)
        model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=7)
        flat = model.get_flat_weights()
        good = [EvalRequest(c) for c in range(5)]
        with SerialExecutor() as serial:
            serial.bind(dict(pool), model, TRAIN)
            ref = serial.evaluate_cohort(good, flat)
        with open_executor(backend, workers) as ex:
            ex.bind(pool, model, TRAIN)
            with pytest.raises(ExecutorError, match="client 5:") as excinfo:
                ex.evaluate_cohort(good[:3] + [EvalRequest(5)] + good[3:], flat)
            assert "no holdout" in str(excinfo.value)
            assert "client 4:" not in str(excinfo.value)
            if backend != "serial":
                # Holdout-less, it costs nothing: dealt last, to the
                # worker holding two of the other five.
                assert "client 5: (worker 1)\n" in str(excinfo.value)
            if backend != "serial":
                assert ex._events.empty()
            assert ex.evaluate_cohort(good, flat) == ref

    def test_process_discards_a_stale_batch_reply_whole(self):
        """A reply for an abandoned seq carries many clients' results;
        none of them may leak into the evaluation that follows, and its
        sender is not retired for it."""
        from repro.distributed import protocol as proto

        pool = make_pool(num_clients=6)
        model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=7)
        flat = model.get_flat_weights()
        requests = [EvalRequest(c) for c in sorted(pool)]
        with ProcessExecutor(workers=2, result_timeout=30.0) as ex:
            ex.bind(pool, model, TRAIN)
            ref = ex.evaluate_cohort(requests, flat)
            ids = sorted(pool)
            stale = proto.encode_eval_result(
                ex._seq, ids + [0], [-1.0] * len(ids) + [None], [None] * len(ids) + ["stale"]
            )
            # As worker 0's reader thread would post it, on its live connection.
            ex._events.put((0, None, proto.MsgType.EVAL_RESULT, stale))
            assert ex.evaluate_cohort(requests, flat) == ref
            assert ex._events.empty()
            assert ex.num_workers_started == 2


class TestProcessSharedResultQueue:
    @needs_fork
    def test_eval_after_an_abandoned_train_cohort_drops_its_stale_oks(self, monkeypatch):
        """Train results and eval replies share one event queue.  A cohort
        abandoned mid-collect (its deadline passed) leaves updates behind
        a slow worker; the evaluation that follows must drop them -- its
        sender is slow, not faulty -- and score exactly what serial
        scores.  Training afterwards works."""
        import repro.execution.pool as pool_mod

        gate = multiprocessing.get_context("fork").Event()
        real = pool_mod.train_client

        def gated(client, *args):
            if client.client_id == 3:
                gate.wait(30.0)
            return real(client, *args)

        monkeypatch.setattr(pool_mod, "train_client", gated)
        pool = make_pool(num_clients=6)
        model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=7)
        flat = model.get_flat_weights()
        train = [TrainRequest(c) for c in sorted(pool)]
        evals = [EvalRequest(c) for c in sorted(pool)]
        with SerialExecutor() as serial:
            serial.bind(make_pool(num_clients=6), model, TRAIN)
            ref = serial.evaluate_cohort(evals, flat)
        with ProcessExecutor(workers=2, result_timeout=0.5) as ex:
            ex.bind(pool, model, TRAIN)
            with pytest.raises(ExecutorError, match="timed out"):
                ex.train_cohort(0, train, flat)  # 0, 2, 4 and 1 drained; 3 and 5 not
            ex.result_timeout = 30.0
            gate.set()
            assert ex.evaluate_cohort(evals, flat) == ref
            assert ex._events.empty()
            assert ex.num_workers_started == 2
            updates = ex.train_cohort(1, train, flat)
            assert [u.client_id for u in updates] == sorted(pool)


class TestEvalShardBounds:
    def test_small_inputs_take_serial_path(self):
        assert eval_shard_bounds(EVAL_BATCH, 4) is None  # one batch
        assert eval_shard_bounds(10 * EVAL_BATCH, 1) is None  # one worker

    def test_bounds_cover_range_without_overlap(self):
        n = 5 * EVAL_BATCH + 17
        bounds = eval_shard_bounds(n, 3)
        assert bounds is not None
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        for (a1, b1), (a2, b2) in zip(bounds, bounds[1:]):
            assert b1 == a2
        for a, b in bounds[:-1]:
            assert a % EVAL_BATCH == 0 and b % EVAL_BATCH == 0

    def test_never_more_shards_than_batches(self):
        bounds = eval_shard_bounds(2 * EVAL_BATCH, 8)
        assert bounds is not None and len(bounds) <= 2


class TestProcessShardedEvalModel:
    def test_bit_identical_after_single_bind(self):
        pool = {
            c.client_id: c
            for c in [make_test_client(client_id=i, seed=7) for i in range(6)]
        }
        model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=7)
        test = make_tiny_dataset(n=1100, seed=5)  # 5 shardable batches
        flat = model.get_flat_weights()
        model.set_flat_weights(flat)
        direct = model.evaluate(test.x, test.y)
        with create_executor("process", workers=3) as ex:
            ex.bind(pool, model, TRAIN)
            ex.bind_eval_data(test.x, test.y)
            assert ex.evaluate_model(flat, test.x, test.y) == direct
            # A second call re-uses the resident copy (no re-ship path
            # exists; this simply must stay correct and bit-exact).
            assert ex.evaluate_model(flat, test.x, test.y) == direct

    def test_data_bound_after_start_ships_before_its_first_pass(self):
        """Bound after the workers started, the eval set ships lazily -- one
        BIND_EVAL per worker before the first sharded pass -- and the pass
        stays bit-identical to one serial evaluate."""
        from repro.distributed import MsgType

        pool = make_pool(num_clients=4)
        model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=7)
        test = make_tiny_dataset(n=1100, seed=5)  # 5 shardable batches
        flat = model.get_flat_weights()
        direct = model.evaluate(test.x, test.y)
        with create_executor("process", workers=2) as ex:
            ex.bind(pool, model, TRAIN)
            ex.train_cohort(0, [TrainRequest(c) for c in sorted(pool)], flat)
            ex.bind_eval_data(test.x, test.y)
            assert ex.evaluate_model(flat, test.x, test.y) == direct
            assert ex.frames_sent_by_type[int(MsgType.BIND_EVAL)] == 2

    def test_unbound_data_falls_back_to_serial_pass(self):
        pool = {
            c.client_id: c
            for c in [make_test_client(client_id=i, seed=7) for i in range(4)]
        }
        model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=7)
        bound = make_tiny_dataset(n=600, seed=5)
        other = make_tiny_dataset(n=600, seed=6)
        flat = model.get_flat_weights()
        model.set_flat_weights(flat)
        direct_other = model.evaluate(other.x, other.y)
        with create_executor("process", workers=2) as ex:
            ex.bind(pool, model, TRAIN)
            ex.bind_eval_data(bound.x, bound.y)
            assert ex.evaluate_model(flat, other.x, other.y) == direct_other

    @pytest.mark.parametrize("backend", ["process", "distributed"])
    def test_rebinding_different_data_after_ship_raises(self, backend):
        pool = {
            c.client_id: c
            for c in [make_test_client(client_id=i, seed=7) for i in range(4)]
        }
        model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=7)
        test = make_tiny_dataset(n=600, seed=5)
        other = make_tiny_dataset(n=600, seed=6)
        with open_executor(backend, 2) as ex:
            ex.bind(pool, model, TRAIN)
            ex.bind_eval_data(test.x, test.y)
            ex.evaluate_model(model.get_flat_weights(), test.x, test.y)
            ex.bind_eval_data(test.x, test.y)  # same arrays: no-op
            with pytest.raises(ExecutorError, match="fresh executor"):
                ex.bind_eval_data(other.x, other.y)


def make_tifl(backend, workers, tier_eval_every=1):
    clients = make_test_population(
        8, cpus=[1.0 / (1 + i) for i in range(8)], seed=3
    )
    return TiFLServer(
        clients=clients,
        model=build_mlp((4, 4, 1), 3, hidden=(6,), rng=3),
        test_data=make_tiny_dataset(n=20, seed=997),
        clients_per_round=3,
        policy="uniform",
        num_tiers=2,
        sync_rounds=2,
        tier_eval_every=tier_eval_every,
        training=TRAIN,
        rng=5,
        executor=backend,
        workers=workers,
    )


class TestTiFLTierEvalThroughExecutor:
    def test_tier_accuracies_bit_identical_across_backends(self):
        results = {}
        for backend, workers in [("serial", 1), ("process", 2)]:
            with make_tifl(backend, workers) as server:
                server.run(2)
                results[backend] = [
                    r.tier_accuracies for r in server.history.records
                ]
        assert results["serial"] == results["process"]
        assert all(accs for accs in results["serial"])

    def test_empty_holdout_tier_excluded_and_logged_once(self, caplog):
        """Regression: a tier whose every member lacks a holdout is
        absent from the result (not a crash, not a zero), the remaining
        tiers' denominators only count contributing members, and the
        exclusion is logged exactly once per run."""
        # clients 0-3: fast, one sample each and hence no holdout
        clients = make_test_population(
            8, cpus=[4.0] * 4 + [0.25] * 4, n=[1] * 4 + [30] * 4, seed=3
        )
        assert not clients.holdout_size[:4].any()
        with TiFLServer(
            clients=clients,
            model=build_mlp((4, 4, 1), 3, hidden=(6,), rng=3),
            test_data=make_tiny_dataset(n=20, seed=997),
            clients_per_round=2,
            policy="uniform",
            num_tiers=2,
            sync_rounds=2,
            training=TRAIN,
            rng=5,
        ) as server:
            # the fast tier is exactly the holdout-less clients
            fast_tier = server.assignment.tier_of(0)
            assert all(
                server.assignment.tier_of(cid) == fast_tier for cid in range(4)
            )
            with caplog.at_level(logging.WARNING, logger="repro.tifl.server"):
                accs1 = server.evaluate_tiers()
                accs2 = server.evaluate_tiers()
            assert fast_tier not in accs1
            assert set(accs1) == set(accs2) != set()
            warnings = [
                rec for rec in caplog.records if "no holdout" in rec.getMessage()
            ]
            assert len(warnings) == 1, "empty-holdout warning must fire once"

    def test_all_tiers_empty_holdout_yields_empty_result(self, caplog):
        clients = make_test_population(
            6, cpus=[1.0 / (1 + i) for i in range(6)], n=1, seed=3
        )
        with TiFLServer(
            clients=clients,
            model=build_mlp((4, 4, 1), 3, hidden=(6,), rng=3),
            test_data=make_tiny_dataset(n=20, seed=997),
            clients_per_round=2,
            policy="uniform",
            num_tiers=2,
            sync_rounds=2,
            training=TRAIN,
            rng=5,
        ) as server:
            with caplog.at_level(logging.WARNING, logger="repro.tifl.server"):
                assert server.evaluate_tiers() == {}
            assert any("no holdout" in rec.getMessage() for rec in caplog.records)
