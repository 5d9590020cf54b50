"""Cost-balanced cohorts: any worker trains any client, bit for bit.

Every pool worker holds the whole population, every batch is dealt over
the live workers by cost, and every TRAIN job carries its client's RNG
state from the coordinator's ledger.  So a cohort that a pin by id would
have put on one worker trains on both, and a client trains on worker 0
in one round and on worker 1 in the next -- and on both backends and
both codecs the updates equal serial's bit for bit.  The pool is a
store, so first trainings carry no state (the ledger has none yet) and
later ones carry the merged state -- also on a worker that rejoined
from a clean session.
"""

import io

import numpy as np
import pytest

from repro.config import TrainingConfig
from repro.distributed import (
    DistributedExecutor,
    ProcessExecutor,
    spawn_local_workers,
    terminate_workers,
)
from repro.distributed import protocol as proto
from repro.distributed.worker import WorkerAgent
from repro.execution import SerialExecutor, TrainRequest
from repro.fl.aggregator import fedavg
from repro.nn import build_mlp
from tests.conftest import make_test_population
from tests.distributed.test_reconnect import FAST, RejoinBeforeQueuedUpdatesMerge

TRAIN = TrainingConfig(optimizer="rmsprop", lr=0.05, lr_decay=0.99)
FAST_TIMEOUTS = dict(result_timeout=90.0)


def _recording(base):
    class Recording(base):
        """Notes which worker each merged update came from, per round."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.round_idx = 0
            self.trained_on = {}

        def _on_update_received(self, worker_id, client_id):
            self.trained_on[(self.round_idx, client_id)] = worker_id

    return Recording


def _train(executor, cohorts, codec):
    """Each cohort through ``executor`` on a fresh store, folding the
    updates into the next round's weights; every update's bytes."""
    model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=7)
    executor.bind(make_test_population(6, seed=7), model, TRAIN.with_(codec=codec))
    g = model.get_flat_weights()
    seen = []
    for r, cohort in enumerate(cohorts):
        executor.round_idx = r
        ups = executor.train_cohort(r, [TrainRequest(cid) for cid in cohort], g)
        seen.append([(u.client_id, u.num_samples, u.flat_weights.tobytes()) for u in ups])
        g = fedavg([u.flat_weights for u in ups], [float(u.num_samples) for u in ups])
    return seen


def run(backend, cohorts, codec):
    """``(updates, trained_on)``: serial runs in-process (no workers)."""
    if backend == "serial":
        with SerialExecutor() as ex:
            return _train(ex, cohorts, codec), {}
    if backend == "process":
        with _recording(ProcessExecutor)(workers=2, **FAST_TIMEOUTS) as ex:
            return _train(ex, cohorts, codec), ex.trained_on
    ex = _recording(DistributedExecutor)(workers=2, accept_timeout=60.0, **FAST_TIMEOUTS)
    procs = spawn_local_workers(ex.listen(), 2)
    try:
        return _train(ex, cohorts, codec), ex.trained_on
    finally:
        ex.close()
        terminate_workers(procs)


@pytest.mark.parametrize("codec", ["raw", "delta"])
@pytest.mark.parametrize("backend", ["process", "distributed"])
class TestAnyWorkerTrainsAnyClient:
    def test_a_cohort_a_pin_by_id_kept_on_one_worker_trains_on_both(self, backend, codec):
        """Clients 0, 2 and 4: a round-robin pin over sorted ids put all
        three on worker 0, leaving worker 1 idle for the round."""
        cohorts = [[0, 2, 4], [4, 0, 2]]
        updates, trained_on = run(backend, cohorts, codec)
        assert updates == run("serial", cohorts, codec)[0]
        for r in range(len(cohorts)):
            assert {w for (rnd, _), w in trained_on.items() if rnd == r} == {0, 1}

    def test_a_client_trains_on_worker_0_then_on_worker_1(self, backend, codec):
        """Client 2 is dealt to worker 0 beside client 4, then to worker
        1 behind client 0: the second worker trains it from the state
        the first one shipped home, not from where it last saw it."""
        cohorts = [[2, 4], [0, 2], [2, 3]]
        updates, trained_on = run(backend, cohorts, codec)
        assert updates == run("serial", cohorts, codec)[0]
        assert (trained_on[(0, 2)], trained_on[(1, 2)], trained_on[(2, 2)]) == (0, 1, 0)
        assert np.unique([w for w in trained_on.values()]).tolist() == [0, 1]


@pytest.mark.parametrize("codec", ["raw", "delta"])
def test_a_rejoined_worker_trains_first_jobs_from_a_clean_store(codec):
    """Round 0, the forced rejoin schedule: one worker's connection drops
    with the cohort's other results queued, which are merged, and its
    agent rejoins as worker 2 with a store rebuilt from the assignment.
    Round 1 deals it clients the ledger has no state for yet, whose jobs
    carry none: it trains them from where its new store found them."""
    cohorts = [[0, 1, 2], list(range(6))]
    ex = RejoinBeforeQueuedUpdatesMerge(workers=2, **FAST)
    ex.queued = 2
    procs = spawn_local_workers(ex.listen(), 2)
    try:
        updates = _train(ex, cohorts, codec)
        workers_up = ex.num_workers_started
    finally:
        ex.close()
        terminate_workers(procs)
    assert ex._events.joins == 1 and workers_up == 2
    assert 2 in {ex.trained_on[(1, cid)] for cid in (3, 4, 5)}
    assert updates == run("serial", cohorts, codec)[0]


class TestOneAssignmentPerSession:
    """A worker is assigned the population once, with the model shell."""

    def _agent(self, model):
        agent = WorkerAgent("unused", 1, log=io.StringIO())
        agent._expected_signature = proto.model_signature(model)
        return agent

    def test_a_second_assignment_is_a_protocol_error(self):
        model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=7)
        agent = self._agent(model)
        frame = proto.encode_assign({}, TRAIN, agent._expected_signature, model=model)
        agent._handle_assign(frame)
        with pytest.raises(proto.ProtocolError, match="a second assignment"):
            agent._handle_assign(frame)

    def test_an_assignment_without_the_model_shell_is_a_protocol_error(self):
        model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=7)
        agent = self._agent(model)
        with pytest.raises(proto.ProtocolError, match="without the model shell"):
            agent._handle_assign(proto.encode_assign({}, TRAIN, agent._expected_signature))
