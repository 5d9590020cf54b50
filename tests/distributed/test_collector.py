"""The one collector's contract, for every kind of batch it drives.

``DistributedExecutor._collect`` is the single event loop under
``train_cohort``, ``evaluate_cohort`` and the sharded ``evaluate_model``.
Each test runs one public operation against recording connections whose
peers are in-process ``WorkerAgent`` objects (the fixtures of
``test_broadcast_fanout.py``): a frame the coordinator "sends" is served
synchronously and the replies land on the collector's queue the way a
reader thread would put them -- wrapped, per reply, in a straggler from
another seq, stragglers of every *other* kind (all batches share the one
queue) and a tampered duplicate, or replaced by a frame that does not
decode -- so every rule is asserted on the frames a real worker
produces.
"""

import io
import json

import numpy as np
import pytest

from repro.distributed import DistributedExecutor
from repro.distributed import protocol as proto
from repro.distributed.coordinator import _InFlight, _WorkerHandle
from repro.distributed.worker import WorkerAgent
from repro.execution import EvalRequest, ExecutorError, TrainRequest, create_executor
from repro.nn import build_mlp
from tests.conftest import make_test_client, make_tiny_dataset
from tests.distributed.test_broadcast_fanout import TRAIN, _RecordingConn

MT = proto.MsgType
TEST_SET = make_tiny_dataset(n=600, seed=5)

#: A result frame of each kind, for a seq of the caller's choosing.
RESULTS = {
    "train": lambda seq: (MT.UPDATE, proto.encode_update(seq, 0, 1, None, np.zeros(3))),
    "eval": lambda seq: (MT.EVAL_RESULT, proto.encode_eval_result(seq, [0], [0.5], [None])),
    "eval_model": lambda seq: (
        MT.EVAL_MODEL_RESULT, proto.encode_eval_model_result(seq, 0, 512, 1)
    ),
}

#: Per kind: the work-order frame, the agent method serving it, the unit
#: a timeout names, and a result frame of another kind.
KINDS = {
    "train": (
        MT.TRAIN, "_handle_train", "4 client update(s)",
        RESULTS["eval"],
    ),
    "eval": (
        MT.EVAL, "_handle_eval", "4 evaluation result(s)",
        RESULTS["eval_model"],
    ),
    "eval_model": (
        MT.EVAL_MODEL, "_handle_eval_model", "2 evaluation shard(s)",
        RESULTS["eval"],
    ),
}

#: Per kind: a frame of the order's own result type whose fields do not
#: decode (a string seq, a list client id, not JSON at all).
GARBLED = {
    "train": (MT.TRAINFAIL, b'{"seq": "x", "client_id": 0, "traceback": ""}'),
    "eval": (
        MT.EVAL_RESULT, b'{"seq": 1, "client_ids": [[0]], "accuracies": [0.5], "errors": [null]}'
    ),
    "eval_model": (MT.EVAL_MODEL_RESULT, b"not json"),
}


def _retagged(msg_type, payload, seq):
    """The same unit's result under ``seq``, carrying a bogus value."""
    if msg_type == MT.UPDATE:
        _seq, cid, n, rng_state, w = proto.decode_update(payload)
        return proto.encode_update(seq, cid, n, rng_state, np.zeros_like(w))
    if msg_type == MT.EVAL_RESULT:
        ids = proto.decode_eval_result(payload)[1]
        return proto.encode_eval_result(seq, ids, [-1.0] * len(ids), [None] * len(ids))
    _seq, a, b, _correct, _err = proto.decode_eval_model_result(payload)
    return proto.encode_eval_model_result(seq, a, b, 0)


class _AgentConn(_RecordingConn):
    """A recording connection served by an in-process ``WorkerAgent``."""

    bytes_sent = bytes_received = 0

    def __init__(self, serve):
        super().__init__()
        self._serve = serve
        self.frames_sent, self.frames_received = {}, {}
        self.bytes_sent_by_type, self.bytes_received_by_type = {}, {}

    def send(self, msg_type, payload=b""):
        super().send(msg_type, payload)
        self._serve(msg_type, payload)


class _Harness:
    """Two in-process workers, each holding the pool, behind one
    never-listening executor.

    ``replies(ex, wid, frames)`` turns the frames an agent answered a
    work order with into the ``(msg_type, payload)`` events to queue.
    """

    def __init__(self, kind, replies, **timeouts):
        self.kind = kind
        self.order, self.handler, self.unit, self.wrong_kind = KINDS[kind]
        self.model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=7)
        self.pool = {i: make_test_client(client_id=i, seed=7) for i in range(4)}
        self.merged = []
        harness = self

        class Recording(DistributedExecutor):
            def _on_update_received(self, worker_id, client_id):
                harness.merged.append(client_id)

        ex = self.ex = Recording(workers=2, heartbeat_misses=10**6, **timeouts)
        ex.bind(self.pool, self.model, TRAIN)
        ex.bind_eval_data(TEST_SET.x, TEST_SET.y)
        ex._signature = proto.model_signature(self.model)
        ex._num_params = self.model.num_params()
        assignment = ex._assignment()
        self.agents = {}
        for wid in (0, 1):
            agent = self.agents[wid] = WorkerAgent("unused", 1, log=io.StringIO())
            agent._expected_signature = ex._signature
            agent._eval_data = (TEST_SET.x, TEST_SET.y)
            conn = _AgentConn(lambda t, p, wid=wid: self._serve(wid, t, p, replies))
            ex._handles[wid] = _WorkerHandle(wid, conn, 1, 0)
            conn.send(*assignment)
        ex._assigned = ex._eval_shipped = True
        self.weights = self.model.get_flat_weights()

    def _serve(self, wid, msg_type, payload, replies):
        agent = self.agents[wid]
        if msg_type == MT.ASSIGN:
            agent._handle_assign(payload)
        elif msg_type == MT.BROADCAST:
            agent._store_broadcast(payload)
        elif msg_type == self.order:
            answered = _RecordingConn()
            getattr(agent, self.handler)(answered, payload)
            for event in replies(self.ex, wid, answered.sent):
                self.ex._events.put((wid, 0, *event))

    def orders_sent_to(self, wid):
        return [p for t, p in self.ex._handles[wid].conn.sent if t == self.order]

    def run(self, executor=None):
        ex = executor or self.ex
        ids = sorted(self.pool)
        if self.kind == "train":
            updates = ex.train_cohort(0, [TrainRequest(cid) for cid in ids], self.weights)
            return [(u.client_id, u.num_samples, u.flat_weights.tobytes()) for u in updates]
        if self.kind == "eval":
            return ex.evaluate_cohort([EvalRequest(cid) for cid in ids], self.weights)
        return ex.evaluate_model(self.weights, TEST_SET.x, TEST_SET.y)

    def serial_reference(self):
        with create_executor("serial") as serial:
            serial.bind(
                {i: make_test_client(client_id=i, seed=7) for i in range(4)},
                build_mlp((4, 4, 1), 3, hidden=(8,), rng=7),
                TRAIN,
            )
            return self.run(serial)


@pytest.mark.parametrize("kind", sorted(KINDS))
class TestCollectorContract:
    def test_stragglers_duplicates_and_wrong_kind_frames(self, kind):
        def replies(ex, wid, frames):
            if wid == 1:
                # Worker 1 never answers its order: it breaks protocol with
                # a result frame of another kind for the live seq.
                return [harness.wrong_kind(ex._seq)]
            # Stragglers of the other kinds, from a batch abandoned before
            # this one opened: dropped, and worker 0 is not retired.
            events = [RESULTS[other](ex._seq - 1) for other in RESULTS if other != kind]
            for msg_type, payload in frames:
                events += [
                    (msg_type, _retagged(msg_type, payload, ex._seq + 100)),  # straggler
                    (msg_type, payload),
                    (msg_type, _retagged(msg_type, payload, ex._seq)),  # duplicate
                ]
            return events

        harness = _Harness(kind, replies, result_timeout=30.0)
        ex = harness.ex
        try:
            result = harness.run()
            # Stragglers settled nothing and duplicates lost to the first
            # copy: only the workers' own values were merged.
            assert result == harness.serial_reference()
            # The wrong-kind frame retired its sender; worker 0 was sent
            # the outstanding jobs as a second order.
            assert ex._handles[1].state == "retired"
            assert ex._handles[0].state == "up"
            assert len(harness.orders_sent_to(0)) == 2
            assert len(harness.orders_sent_to(1)) == 1
            # One hook call per merged update, however many copies arrived.
            assert sorted(harness.merged) == (
                sorted(harness.pool) if kind == "train" else []
            )
        finally:
            ex.close()

    @pytest.mark.parametrize("garbled", ["result", "reject"])
    def test_a_frame_that_does_not_decode_retires_its_sender(self, kind, garbled):
        """Worker 1 answers its order with a result frame of the right
        type whose fields do not decode -- or with an undecodable REJECT:
        it is retired like any protocol violation, worker 0 inherits its
        jobs, and the result still equals serial bit for bit."""
        frame = GARBLED[kind] if garbled == "result" else (MT.REJECT, b'{"reason": ')
        harness = _Harness(
            kind, lambda ex, wid, frames: [frame] if wid == 1 else frames,
            result_timeout=30.0,
        )
        ex = harness.ex
        try:
            assert harness.run() == harness.serial_reference()
            assert ex._handles[1].state == "retired"
            assert ex._handles[0].state == "up"
            assert len(harness.orders_sent_to(0)) == 2
        finally:
            ex.close()

    def test_timeout_names_the_outstanding_unit(self, kind):
        harness = _Harness(
            kind, lambda ex, wid, frames: [], result_timeout=0.3, heartbeat_interval=0.05
        )
        try:
            with pytest.raises(ExecutorError) as excinfo:
                harness.run()
            assert str(excinfo.value) == f"timed out after 0s waiting for {harness.unit}"
        finally:
            harness.ex.close()


#: Batched EVAL_RESULTs (v8) for the live seq that break the row's rules:
#: ``(live seq, share size) -> (seq, accuracies, errors)``.
MALFORMED_EVAL_RESULTS = {
    "list lengths differ": lambda seq, n: (seq, [0.5] * n, [None]),
    "an entry has both": lambda seq, n: (seq, [0.5] * n, ["boom"] + [None] * (n - 1)),
    "an entry has neither": lambda seq, n: (seq, [None] + [0.5] * (n - 1), [None] * n),
    "the seq is not an int": lambda seq, n: (str(seq), [0.5] * n, [None] * n),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_EVAL_RESULTS))
def test_a_malformed_batched_eval_result_retires_its_sender(case):
    """Worker 1 answers its EVAL order with one EVAL_RESULT that breaks
    the row: it is retired, worker 0 inherits its clients and jobs, and
    the cohort still scores exactly what serial scores."""

    def replies(ex, wid, frames):
        if wid == 0:
            return frames
        ids = proto.decode_eval_result(frames[0][1])[1]
        seq, accs, errors = MALFORMED_EVAL_RESULTS[case](ex._seq, len(ids))
        payload = {"seq": seq, "client_ids": ids, "accuracies": accs, "errors": errors}
        return [(MT.EVAL_RESULT, json.dumps(payload).encode())]

    harness = _Harness("eval", replies, result_timeout=30.0)
    ex = harness.ex
    try:
        assert harness.run() == harness.serial_reference()
        assert ex._handles[1].state == "retired"
        assert ex._handles[0].state == "up"
        assert len(harness.orders_sent_to(0)) == 2
    finally:
        ex.close()


class TestReaderPostsOnce:
    def test_each_frame_and_the_connection_loss_reach_the_queue_once(self):
        """One queue: a result frame of any kind is posted once, and one
        connection loss yields exactly one loss event."""
        from repro.distributed.transport import ConnectionClosed

        frames = [RESULTS[kind](4) for kind in sorted(RESULTS)]

        class Conn(_RecordingConn):
            def recv(self):
                if not frames:
                    raise ConnectionClosed("peer went away")
                return frames.pop(0)

        expected = [(5, 0, *frame) for frame in frames] + [(5, 0, None, None)]
        ex = DistributedExecutor(workers=1)
        try:
            ex._reader(_WorkerHandle(5, Conn(), 1, 0), 0)
            posted = [ex._events.get_nowait() for _ in range(ex._events.qsize())]
            assert posted == expected
        finally:
            ex.close()


class TestInFlightSettle:
    def test_clears_the_key_under_every_worker_and_dedupes(self):
        state = _InFlight(1, 0, np.zeros(3), "train")
        # Client 7's job was re-dispatched: both workers still list it.
        state.pending = {0: [(7, 1), (8, 1)], 1: [(7, 1)]}
        assert state.settle(7) is True
        assert state.pending == {0: [(8, 1)], 1: []}
        assert state.settle(7) is False  # the replica's copy: not merged
        assert state.outstanding() == 1

        shards = _InFlight(2, 0, np.zeros(3), "eval_model")
        shards.pending = {0: [(0, 256)], 1: [(256, 512), (0, 256)]}
        assert shards.settle((0, 256)) is True
        assert shards.pending == {0: [], 1: [(256, 512)]}
        assert shards.settle((0, 256)) is False
