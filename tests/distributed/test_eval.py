"""Batched evaluation over the wire: codecs, versioning, loopback parity.

Protocol v2 added EVAL / EVAL_RESULT.  These tests pin the codec
round-trips (including the exact float64 round-trip of the accuracy),
assert that a protocol-v1 worker can no longer join, and clear the same
bar the in-process backends clear: ``evaluate_cohort`` through real
worker subprocesses on 127.0.0.1 is bit-identical to serial.
"""

import os
import signal
import socket

import numpy as np
import pytest

from repro.config import TrainingConfig
from repro.distributed import (
    DistributedExecutor,
    spawn_local_workers,
    terminate_workers,
)
from repro.distributed import protocol as proto
from repro.distributed.transport import Connection
from repro.execution import EvalRequest, SerialExecutor, TrainRequest
from repro.fl.aggregator import fedavg
from repro.fl.selection import RandomSelector
from repro.fl.server import FLServer
from repro.nn import build_mlp
from tests.conftest import make_test_client, make_test_population, make_tiny_dataset
from tests.distributed.test_broadcast_fanout import _RecordingConn

TRAIN = TrainingConfig(optimizer="rmsprop", lr=0.05, lr_decay=0.99)
FAST_TIMEOUTS = dict(accept_timeout=60.0, result_timeout=90.0)


class TestEvalCodecs:
    def test_eval_round_trip(self):
        seq, cids = proto.decode_eval(proto.encode_eval(7, [3, 1, 4]))
        assert seq == 7 and cids == [3, 1, 4]

    def test_eval_result_accuracy_round_trips_float64_exactly(self):
        # an awkward, non-representable-in-decimal accuracy
        acc = float(np.float64(2.0) / 3.0)
        seq, cids, got, errs = proto.decode_eval_result(
            proto.encode_eval_result(5, [12], [acc], [None])
        )
        assert (seq, cids, errs) == (5, [12], [None])
        assert got == [acc]  # bit-exact through the JSON text

    def test_eval_result_error_round_trip(self):
        seq, cids, accs, errs = proto.decode_eval_result(
            proto.encode_eval_result(2, [9], [None], ["Traceback: boom"])
        )
        assert (seq, cids, accs) == (2, [9], [None])
        assert "boom" in errs[0]

    def test_eval_result_requires_exactly_one_of_accuracy_error(self):
        with pytest.raises(ValueError, match="exactly one"):
            proto.encode_eval_result(1, [1], [None], [None])
        with pytest.raises(ValueError, match="exactly one"):
            proto.encode_eval_result(1, [1], [0.5], ["also an error"])
        bad = b'{"seq": 1, "client_ids": [1], "accuracies": [null], "errors": [null]}'
        with pytest.raises(proto.ProtocolError, match="exactly one"):
            proto.decode_eval_result(bad)

    def test_eval_rejects_malformed_payload(self):
        with pytest.raises(proto.ProtocolError, match="missing"):
            proto.decode_eval(b'{"seq": 1}')


class TestVersioning:
    def test_protocol_version_is_10(self):
        """v10 drops resumable sessions: HELLO has no ``resume``, WELCOME
        no session token, and a dropped worker rejoins as a new one (v9
        carried each TRAIN job's RNG state and UPDATE's as checked PCG64
        rows; v8 answered an EVAL order with one EVAL_RESULT and shipped
        BIND_EVAL as raw buffers; v7 made the delta payload plane-wise
        and added the alias BROADCAST; v6 added the ASSIGN_SHARD frame;
        v5 the worker TELEMETRY frame; v4 widened the BROADCAST/UPDATE
        headers and added resumable sessions); regressing the constant
        would let workers join that still present a resume."""
        assert proto.PROTOCOL_VERSION == 10
        assert proto.MsgType.EVAL == 13
        assert proto.MsgType.EVAL_RESULT == 14
        assert proto.MsgType.BIND_EVAL == 15
        assert proto.MsgType.EVAL_MODEL == 16
        assert proto.MsgType.EVAL_MODEL_RESULT == 17
        assert proto.MsgType.TELEMETRY == 18
        assert proto.MsgType.ASSIGN_SHARD == 19

    @pytest.mark.parametrize("stale_version", [1, 2, 4])
    def test_stale_worker_is_rejected_naming_both_versions(self, stale_version):
        """The REJECT reason must name BOTH peer versions ("worker speaks
        v2, coordinator requires v3") so either side's log says exactly
        which binary to upgrade."""
        ex = DistributedExecutor(workers=1)
        a, b = socket.socketpair()
        coord_side, worker_side = Connection(a), Connection(b)
        worker_side.send(
            proto.MsgType.HELLO, proto.encode_hello(stale_version, 1, 123)
        )
        assert ex._handshake(coord_side) is None
        msg_type, payload = worker_side.recv(timeout=5.0)
        assert msg_type == proto.MsgType.REJECT
        reason = proto.decode_reject(payload)
        assert "version mismatch" in reason
        assert f"worker speaks v{stale_version}" in reason
        assert f"coordinator requires v{proto.PROTOCOL_VERSION}" in reason
        worker_side.close()
        ex.close()

    def test_v9_worker_is_rejected_naming_9_and_10(self):
        """The worker one release behind: it would try to resume a
        dropped session instead of rejoining, so it never gets past
        HELLO."""
        ex = DistributedExecutor(workers=1)
        a, b = socket.socketpair()
        coord_side, worker_side = Connection(a), Connection(b)
        worker_side.send(proto.MsgType.HELLO, proto.encode_hello(9, 1, 123))
        assert ex._handshake(coord_side) is None
        msg_type, payload = worker_side.recv(timeout=5.0)
        assert msg_type == proto.MsgType.REJECT
        reason = proto.decode_reject(payload)
        assert "worker speaks v9" in reason
        assert "coordinator requires v10" in reason
        worker_side.close()
        ex.close()

    def test_rejected_worker_logs_reason_before_exiting(self):
        """The worker side of the satellite: a REJECTed agent logs the
        coordinator's reason (naming both versions) before exiting with
        EXIT_REJECTED."""
        import io
        import threading

        from repro.distributed.worker import EXIT_REJECTED, WorkerAgent

        a, b = socket.socketpair()
        coord_side, worker_side = Connection(a), Connection(b)
        reason = (
            "protocol version mismatch: worker speaks v2, "
            "coordinator requires v3"
        )

        def rejecting_coordinator():
            coord_side.recv(timeout=5.0)  # the worker's HELLO
            coord_side.send(proto.MsgType.REJECT, proto.encode_reject(reason))

        t = threading.Thread(target=rejecting_coordinator)
        t.start()
        log = io.StringIO()
        agent = WorkerAgent("unused", 1, log=log)
        try:
            assert agent._handshake(worker_side) == EXIT_REJECTED
        finally:
            t.join(timeout=5.0)
            worker_side.close()
            coord_side.close()
        out = log.getvalue()
        assert "rejected by coordinator" in out
        assert "worker speaks v2" in out
        assert "coordinator requires v3" in out


class TestWorkerLoadsOncePerFrame:
    """The worker half of cohort-granular evaluation, driven in-process
    so the counting patch sees the agent's calls."""

    @pytest.fixture
    def agent(self, monkeypatch):
        from repro.distributed.worker import WorkerAgent
        from repro.nn.model import Sequential

        agent = WorkerAgent("unused", 1)
        agent._workspace = build_mlp((4, 4, 1), 3, hidden=(8,), rng=7)
        agent._clients = {
            i: make_test_client(client_id=i, seed=7) for i in range(4)
        }
        agent._clients[4] = make_test_client(  # one sample: no holdout
            client_id=4, seed=7, n=1, holdout_fraction=0.0
        )
        self.weights = agent._workspace.get_flat_weights()
        agent._store_broadcast(proto.encode_broadcast(3, self.weights))
        self.loads = []
        real = Sequential.set_flat_weights
        monkeypatch.setattr(
            Sequential,
            "set_flat_weights",
            lambda model, flat: (self.loads.append(1), real(model, flat))[1],
        )
        return agent

    def test_eval_frame_loads_once_and_answers_per_client(self, agent):
        conn = _RecordingConn()
        agent._handle_eval(conn, proto.encode_eval(3, [2, 4, 0, 3, 1]))
        assert len(self.loads) == 1
        assert [t for t, _ in conn.sent] == [proto.MsgType.EVAL_RESULT]
        seq, cids, accs, errs = proto.decode_eval_result(conn.sent[0][1])
        assert (seq, cids) == (3, [2, 4, 0, 3, 1])
        scratch = build_mlp((4, 4, 1), 3, hidden=(8,), rng=1)
        for cid, acc, err in zip(cids, accs, errs):
            if cid == 4:  # the empty holdout fails alone, by traceback
                assert acc is None and "no holdout" in err
            else:
                assert err is None
                assert acc == agent._clients[cid].evaluate(scratch, self.weights)

    def test_eval_model_frame_loads_once_across_shards(self, agent):
        test = make_tiny_dataset(n=600, seed=5)
        agent._eval_data = (test.x, test.y)
        conn = _RecordingConn()
        shards = [(0, 256), (256, 512), (512, 600)]
        agent._handle_eval_model(conn, proto.encode_eval_model(3, shards))
        assert len(self.loads) == 1
        counts = [proto.decode_eval_model_result(p) for _, p in conn.sent]
        assert [c[:3] for c in counts] == [(3, a, b) for a, b in shards]
        assert all(c[4] is None for c in counts)
        agent._workspace.set_flat_weights(self.weights)
        direct = agent._workspace.evaluate(test.x, test.y)
        assert sum(c[3] for c in counts) / 600 == direct


def run_server(executor):
    """A full FLServer run whose 600-sample test set makes every round's
    global evaluation a sharded ``evaluate_model``."""
    clients = make_test_population(6, seed=7)
    model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=7)
    with FLServer(
        clients=clients,
        model=model,
        selector=RandomSelector(3, rng=7),
        test_data=make_tiny_dataset(n=600, seed=999),
        training=TRAIN,
        rng=7,
        executor=executor,
    ) as server:
        history = server.run(4)
        records = [
            (r.round_idx, r.round_latency, r.sim_time, r.accuracy, r.selected, r.dropped)
            for r in history.records
        ]
        return server.global_weights.copy(), records


class TestLoopbackEvalEquivalence:
    def test_distributed_eval_bit_identical_to_serial(self):
        """Train two rounds then evaluate every holdout -- through real
        worker subprocesses -- and compare accuracies (and the training
        weights they were computed from) bit-for-bit with serial."""

        def run(executor):
            pool = {
                c.client_id: c
                for c in [make_test_client(client_id=i, seed=7) for i in range(6)]
            }
            model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=7)
            executor.bind(pool, model, TRAIN)
            g = model.get_flat_weights()
            reqs = [TrainRequest(cid) for cid in sorted(pool)]
            evals = [EvalRequest(cid) for cid in sorted(pool)]
            accs_per_round = []
            for r in range(2):
                ups = executor.train_cohort(r, reqs, g)
                g = fedavg(
                    [u.flat_weights for u in ups],
                    [float(u.num_samples) for u in ups],
                )
                accs_per_round.append(executor.evaluate_cohort(evals, g))
            return g, accs_per_round

        with SerialExecutor() as serial:
            ref_w, ref_accs = run(serial)

        ex = DistributedExecutor(workers=2, **FAST_TIMEOUTS)
        procs = spawn_local_workers(ex.listen(), 2)
        try:
            w, accs = run(ex)
        finally:
            ex.close()
            codes = terminate_workers(procs)
        assert np.array_equal(ref_w, w), "distributed training diverged"
        assert accs == ref_accs, "distributed evaluation diverged"
        assert list(accs[0]) == list(ref_accs[0])  # request-order keys
        assert codes == [0, 0], "workers did not exit cleanly"

    def test_eval_only_session_needs_no_prior_training(self):
        """evaluate_cohort may be the executor's first cohort: assignment
        and broadcast must bootstrap exactly as train_cohort does."""
        pool = {
            c.client_id: c
            for c in [make_test_client(client_id=i, seed=11) for i in range(4)]
        }
        model = build_mlp((4, 4, 1), 3, hidden=(6,), rng=11)

        with SerialExecutor() as serial:
            serial.bind(pool, model, TRAIN)
            ref = serial.evaluate_cohort(
                [EvalRequest(cid) for cid in sorted(pool)],
                model.get_flat_weights(),
            )

        ex = DistributedExecutor(workers=2, **FAST_TIMEOUTS)
        ex.bind(pool, model, TRAIN)
        procs = spawn_local_workers(ex.listen(), 2)
        try:
            got = ex.evaluate_cohort(
                [EvalRequest(cid) for cid in sorted(pool)],
                model.get_flat_weights(),
            )
        finally:
            ex.close()
            terminate_workers(procs)
        assert got == ref

    def test_staged_distributed_matches_too(self):
        """The staged path over the v3 protocol (BIND_EVAL + sharded
        evaluate_model) stays bit-identical as well."""
        ref_w, ref_h = run_server("serial")
        ex = DistributedExecutor(workers=2, **FAST_TIMEOUTS)
        procs = spawn_local_workers(ex.listen(), 2)
        try:
            w, h = run_server(ex)
        finally:
            ex.close()
            terminate_workers(procs)
        assert np.array_equal(ref_w, w)
        assert h == ref_h


class TestDistributedShardedEvalModel:
    def test_bit_identical_after_single_bind_eval_ship(self):
        pool = {
            c.client_id: c
            for c in [make_test_client(client_id=i, seed=7) for i in range(6)]
        }
        model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=7)
        test = make_tiny_dataset(n=1100, seed=5)
        flat = model.get_flat_weights()

        with SerialExecutor() as serial:
            serial.bind(pool, model, TRAIN)
            direct = serial.evaluate_model(flat, test.x, test.y)

        ex = DistributedExecutor(workers=2, **FAST_TIMEOUTS)
        ex.bind(pool, model, TRAIN)
        ex.bind_eval_data(test.x, test.y)
        procs = spawn_local_workers(ex.listen(), 2)
        try:
            first = ex.evaluate_model(flat, test.x, test.y)
            shipped_after_first = ex.bytes_sent
            second = ex.evaluate_model(flat, test.x, test.y)
            resend = ex.bytes_sent - shipped_after_first
        finally:
            ex.close()
            terminate_workers(procs)
        assert first == direct and second == direct
        # Ship-once: the second pass moves only weights + shard bounds,
        # never the dataset again (weights blob ~ num_params * 8 bytes).
        assert resend < test.x.nbytes, (
            f"second evaluate_model resent {resend} bytes -- the eval "
            f"set ({test.x.nbytes} bytes) must ship exactly once"
        )

    def test_worker_loss_mid_sharded_eval_redistributes(self):
        pool = {
            c.client_id: c
            for c in [make_test_client(client_id=i, seed=7) for i in range(6)]
        }
        model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=7)
        test = make_tiny_dataset(n=1100, seed=5)
        flat = model.get_flat_weights()
        with SerialExecutor() as serial:
            serial.bind(pool, model, TRAIN)
            direct = serial.evaluate_model(flat, test.x, test.y)

        ex = DistributedExecutor(
            workers=2, heartbeat_interval=0.5, **FAST_TIMEOUTS
        )
        ex.bind(pool, model, TRAIN)
        ex.bind_eval_data(test.x, test.y)
        procs = spawn_local_workers(ex.listen(), 2)
        try:
            assert ex.evaluate_model(flat, test.x, test.y) == direct
            os.kill(ex.worker_pid(0), signal.SIGKILL)
            # The survivor inherits the dead worker's shards; the result
            # must not move a bit.
            assert ex.evaluate_model(flat, test.x, test.y) == direct
            assert ex.num_workers_started == 1
        finally:
            ex.close()
            terminate_workers(procs)
