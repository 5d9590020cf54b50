"""Rejoin: a dropped worker is retired at once and comes back as a new one.

These tests drop a worker's *connection* (or kill its process) in the
middle of a run and assert the v10 contract: the coordinator retires the
worker at once and re-deals its outstanding jobs over the live workers;
the agent dials again and registers through the one handshake as a new
worker, from a clean session; any fresh agent may join a running
federation the same way; and every run stays bit-identical to serial,
on the raw and the delta codec.  A batch that loses its last live worker
waits ``reconnect_grace`` for a join, and fails naming the loss without
one.  A worker that breaks the protocol is refused, not re-joined.
"""

import io
import os
import queue
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro import telemetry
from repro.config import TrainingConfig
from repro.distributed import (
    DistributedExecutor,
    spawn_local_workers,
    terminate_workers,
)
from repro.distributed import protocol as proto
from repro.distributed.coordinator import _EVT_JOINED
from repro.distributed.transport import Connection
from repro.distributed.worker import EXIT_OK, EXIT_REJECTED, WorkerAgent
from repro.execution import ExecutorError, TrainRequest, create_executor
from repro.fl.aggregator import fedavg
from tests.conftest import make_test_client, make_tiny_dataset, subprocess_env

TRAIN = TrainingConfig(optimizer="rmsprop", lr=0.05, lr_decay=0.99)
FAST = dict(
    accept_timeout=60.0, result_timeout=90.0, heartbeat_interval=0.5
)
CODECS = ["raw", "delta"]


def make_pool(num_clients=6, seed=31):
    return {
        i: make_test_client(client_id=i, seed=seed) for i in range(num_clients)
    }


def _model(seed):
    from repro.nn import build_mlp

    return build_mlp((4, 4, 1), 3, hidden=(8,), rng=seed)


def serial_reference(seed=31, rounds=4, num_clients=6, codec="raw"):
    pool = make_pool(num_clients=num_clients, seed=seed)
    model = _model(seed)
    g = model.get_flat_weights()
    reqs = [TrainRequest(cid) for cid in sorted(pool)]
    with create_executor("serial") as ex:
        ex.bind(pool, model, TRAIN.with_(codec=codec))
        for r in range(rounds):
            ups = ex.train_cohort(r, reqs, g)
            g = fedavg(
                [u.flat_weights for u in ups],
                [float(u.num_samples) for u in ups],
            )
    return g


class Recording(DistributedExecutor):
    """Notes the worker each merged update came from, per round."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.round_idx = 0
        self.trained_on = {}

    def _on_update_received(self, worker_id, client_id):
        self.trained_on[(self.round_idx, client_id)] = worker_id

    def workers_of(self, round_idx):
        return {w for (r, _), w in self.trained_on.items() if r == round_idx}


def run_distributed(ex, rounds=4, seed=31, codec="raw", workers=2, between=None):
    """Train ``rounds`` full cohorts through ``workers`` real loopback
    workers; ``between(round_idx, procs)`` runs after each round.
    Returns the final weights and the workers' exit codes."""
    pool = make_pool(seed=seed)
    model = _model(seed)
    ex.bind(pool, model, TRAIN.with_(codec=codec))
    procs = spawn_local_workers(ex.listen(), workers)
    g = model.get_flat_weights()
    reqs = [TrainRequest(cid) for cid in sorted(pool)]
    try:
        for r in range(rounds):
            ex.round_idx = r
            ups = ex.train_cohort(r, reqs, g)
            g = fedavg(
                [u.flat_weights for u in ups],
                [float(u.num_samples) for u in ups],
            )
            if between is not None:
                between(r, procs)
    finally:
        ex.close()
        codes = terminate_workers(procs)
    return g, codes


def _wait_until(condition, what):
    deadline = time.monotonic() + 30.0
    while not condition():
        assert time.monotonic() < deadline, f"forced schedule stuck: {what}"
        time.sleep(0.01)


class _Scripted(queue.Queue):
    """The coordinator's event queue with a scripted schedule:
    ``on_put(event)`` runs after each event is posted, and once ``hold``
    is set the collector's next blocking ``get`` first waits until
    ``hold()`` is true."""

    hold = None

    def __init__(self, on_put=lambda event: None):
        super().__init__()
        self.on_put = on_put
        self.joins = 0

    def put(self, item, block=True, timeout=None):
        super().put(item, block, timeout)
        if item[2] == _EVT_JOINED:
            self.joins += 1
        self.on_put(item)

    def get(self, block=True, timeout=None):
        if block and self.hold is not None:
            hold, self.hold = self.hold, None
            _wait_until(hold, "the scripted event never came")
        return super().get(block, timeout)


class DropAtDispatch(Recording):
    """Severs worker 0's TCP connection (NOT its process) as its TRAIN
    order of round ``drop_round`` is about to leave: the send fails, so
    every job of the order is outstanding, and the agent dials back in."""

    drop_round = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.dropped = False

    def _dispatch_to(self, handle, state, jobs):
        if not self.dropped and state.kind == "train" and state.round_idx == self.drop_round:
            self.dropped = True
            self._dropped(handle)
            handle.conn.close()
        super()._dispatch_to(handle, state, jobs)

    def _dropped(self, handle):
        """Hook: runs just before the drop."""


class RejoinBeforeQueuedUpdatesMerge(Recording):
    """A forced schedule: the first UPDATE of round 0 is merged, the
    cohort's other ``queued`` results wait *queued*, that worker's
    connection is severed, and the collector looks at the queue again
    only once the agent's join is queued behind them."""

    queued = 5

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._events = _Scripted()
        self.dropped = None

    def _on_update_received(self, worker_id, client_id):
        super()._on_update_received(worker_id, client_id)
        if self.dropped is not None:
            return
        self.dropped = worker_id
        _wait_until(
            lambda: self._events.qsize() >= self.queued, "the cohort's other results never queued"
        )
        self._handles[worker_id].conn.close()
        self._events.hold = lambda: self._events.joins == 1


class TestRejoinMidBatch:
    @pytest.mark.parametrize("codec", CODECS)
    def test_a_rejoin_takes_the_work_of_a_worker_killed_before_its_join_is_taken(
        self, codec
    ):
        """The schedule that waited out ``result_timeout`` under resume.
        Worker A (0) drops mid-batch with its jobs outstanding, and they
        are re-dealt to worker B (1), which is stopped so it holds them.
        A's agent rejoins as worker 2; B is SIGKILLed once that join is
        queued and before the collector takes it.  The collector files
        the join, then re-deals B's jobs to worker 2: the batch finishes
        at once, bit-identical to serial."""
        events = None

        class Schedule(DropAtDispatch):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._events = events
                self.armed = False

            def _dropped(self, handle):
                os.kill(self.worker_pid(1), signal.SIGSTOP)

            def _handle_worker_death(self, wid, state, reason):
                super()._handle_worker_death(wid, state, reason)
                if wid == 0 and not self.armed:
                    # A's jobs now wait on B: hold the collector until
                    # B's loss is queued behind A's join.
                    self.armed = True
                    events.hold = lambda: b_lost

        b_lost = False

        def on_put(event):
            nonlocal b_lost
            if event[2] == _EVT_JOINED:
                _wait_until(lambda: ex.armed, "A's loss was never taken")
                os.kill(ex.worker_pid(1), signal.SIGKILL)
            elif event[0] == 1 and event[2] is None:
                b_lost = True

        events = _Scripted(on_put)
        ex = Schedule(workers=2, reconnect_grace=0.0, **dict(FAST, result_timeout=600.0))
        t0 = time.monotonic()
        timings = []
        g, codes = run_distributed(
            ex, codec=codec,
            between=lambda r, procs: timings.append(time.monotonic() - t0) if r == 0 else None,
        )
        assert ex.dropped and b_lost
        assert timings[0] < 10.0, f"round 0 took {timings[0]:.1f}s"
        assert 2 in ex.workers_of(0), "the joined worker took none of the stranded work"
        assert all(ex.workers_of(r) == {2} for r in (1, 2, 3))
        assert sorted(codes) == [-signal.SIGKILL, EXIT_OK]
        assert np.array_equal(serial_reference(codec=codec), g)

    @pytest.mark.parametrize("codec", CODECS)
    def test_rejoin_before_queued_updates_are_merged(self, codec):
        """The retired worker's queued results are merged (first result
        wins: each trained from the RNG state its job carried), and the
        joined worker 2 -- whose first broadcast is raw, its mirror empty
        -- shares the later rounds."""
        sent = []  # (worker id, mirror was empty, alias?, codec id)

        class Schedule(RejoinBeforeQueuedUpdatesMerge):
            def _broadcast_frame(self, handle, state):
                empty = not handle.baselines
                frame, retained = super()._broadcast_frame(handle, state)
                sent.append((
                    handle.id, empty, proto.broadcast_is_alias(frame),
                    proto._BROADCAST_HEADER.unpack_from(frame)[2],
                ))
                return frame, retained

        ex = Schedule(workers=2, **FAST)
        g, codes = run_distributed(ex, codec=codec)
        assert ex._events.joins == 1
        assert ex.workers_of(3) == {1 - ex.dropped, 2}
        assert codes == [EXIT_OK, EXIT_OK]
        first = next(rec for rec in sent if rec[0] == 2)
        assert first[1:] == (True, False, 1), "a joined worker's first broadcast is raw"
        assert np.array_equal(serial_reference(codec=codec), g)


class TestJoinRunningFederation:
    @pytest.mark.parametrize("codec", CODECS)
    def test_a_fresh_cli_worker_replaces_a_killed_one_from_the_next_batch(self, codec):
        """Round 0 on workers 0 and 1; then worker 0's process is
        SIGKILLed and a fresh ``python -m repro.cli worker`` joins.  The
        next batch takes both events before it is dealt: worker 0 is
        retired and the newcomer, worker 2, trains in every later round."""
        fresh = []

        def kill_and_join(r, procs):
            if r == 0:
                os.kill(ex.worker_pid(0), signal.SIGKILL)
                cmd = [sys.executable, "-m", "repro.cli", "worker", "--connect", ex.endpoint]
                fresh.append(subprocess.Popen(cmd, env=subprocess_env(), stderr=subprocess.DEVNULL))
                _wait_until(lambda: ex._events.joins == 1, "the fresh worker never joined")

        ex = Recording(workers=2, **FAST)
        ex._events = _Scripted()
        try:
            g, codes = run_distributed(ex, codec=codec, between=kill_and_join)
        finally:
            for proc in fresh:
                try:
                    proc.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        assert ex.workers_of(0) == {0, 1}
        assert all(ex.workers_of(r) == {1, 2} for r in (1, 2, 3))
        assert sorted(codes) == [-signal.SIGKILL, EXIT_OK]
        assert [proc.returncode for proc in fresh] == [EXIT_OK]
        assert np.array_equal(serial_reference(codec=codec), g)


class TestJoinerSetUp:
    @pytest.mark.parametrize("codec", CODECS)
    def test_a_joined_worker_holds_the_eval_set_and_scores_its_shard(self, codec):
        """The accept thread sends a joiner the bound eval set before its
        assignment: once it is live, the sharded global evaluation cuts
        the set over it and the survivor and scores what serial scores."""
        test_set = make_tiny_dataset(n=600, seed=5)
        weights = _model(31).get_flat_weights()
        ex = DropAtDispatch(workers=2, **FAST)
        ex.bind_eval_data(test_set.x, test_set.y)
        wait_for_join = _wait_for_join(ex)
        scores, joiner_orders = [], []

        def between(r, procs):
            wait_for_join(r, procs)
            if r == 1:  # round 1 took the join: workers 1 and 2 are live
                scores.append(ex.evaluate_model(weights, test_set.x, test_set.y))
                joiner = ex._handles[2].conn
                joiner_orders.append(joiner.frames_sent.get(int(proto.MsgType.EVAL_MODEL), 0))

        _g, codes = run_distributed(ex, rounds=2, codec=codec, between=between)
        assert ex.workers_of(1) == {1, 2}
        assert joiner_orders == [1], "the joined worker was dealt no eval shard"
        assert codes == [EXIT_OK, EXIT_OK]
        with create_executor("serial") as serial:
            serial.bind(make_pool(), _model(31), TRAIN)
            expected = serial.evaluate_model(weights, test_set.x, test_set.y)
        assert scores == [expected]


class TestLastWorkerLost:
    @pytest.mark.parametrize("codec", CODECS)
    def test_the_batch_waits_for_a_join_within_the_grace(self, codec):
        """One worker, dropped right after round 1's order left: every job
        of the batch is stranded until the agent rejoins as worker 1,
        which is dealt them all and carries the run, bit-identically."""
        ex = type("Drop", (DropAtDispatch,), {"drop_round": 1})(
            workers=1, reconnect_grace=30.0, **FAST
        )
        g, codes = run_distributed(ex, codec=codec, workers=1)
        assert ex.dropped
        assert ex.workers_of(0) == {0}
        assert all(ex.workers_of(r) == {1} for r in (1, 2, 3))
        assert codes == [EXIT_OK]
        assert np.array_equal(serial_reference(codec=codec), g)

    @pytest.mark.parametrize("codec", CODECS)
    def test_without_grace_the_batch_fails_naming_the_loss(self, codec):
        class DropThenClose(DropAtDispatch):
            drop_round = 1

            def close(self):
                # The agent still rejoins: it is shut down, not left dialling.
                _wait_until(lambda: self._events.joins == 1, "the agent never rejoined")
                super().close()

        ex = DropThenClose(workers=1, **FAST)
        ex._events = _Scripted()
        with pytest.raises(
            ExecutorError,
            match=r"all distributed workers are gone \(last failure: worker 0: send failed: ",
        ):
            run_distributed(ex, codec=codec, workers=1)

    def test_the_grace_is_not_negative(self):
        with pytest.raises(ValueError, match="reconnect_grace must be >= 0"):
            DistributedExecutor(reconnect_grace=-1.0)

    def test_a_grace_without_a_join_fails_naming_the_loss_and_the_wait(self):
        """The grace runs out: the round fails by name, not by
        ``result_timeout``."""

        class DropAndKill(DropAtDispatch):
            drop_round = 1

            def _dropped(self, handle):
                os.kill(handle.pid, signal.SIGKILL)

        ex = DropAndKill(workers=1, reconnect_grace=0.5, **dict(FAST, result_timeout=600.0))
        t0 = time.monotonic()
        with pytest.raises(
            ExecutorError, match=r"worker 0: send failed: .*; no worker joined within 0.5s"
        ):
            run_distributed(ex, workers=1)
        assert time.monotonic() - t0 < 30.0


#: A frame that breaks the protocol, sent in answer to a TRAIN order for
#: ``seq``, and the violation the coordinator's REJECT names.
VIOLATIONS = {
    "wrong kind": (
        lambda seq: (proto.MsgType.EVAL_RESULT, proto.encode_eval_result(seq, [], [], [])),
        "unexpected message type 14",
    ),
    "malformed": (
        lambda seq: (proto.MsgType.TRAINFAIL, b'{"seq": "x"}'),
        "malformed TRAINFAIL",
    ),
    "unknown": (lambda seq: (200, b""), "unexpected message type 200"),
}


class TestProtocolViolation:
    @pytest.mark.parametrize("violation", sorted(VIOLATIONS))
    def test_a_refused_worker_exits_rejected_and_never_registers_again(self, violation):
        """A worker answering TRAIN with a frame of another kind, one
        that does not decode, or one of no known type is sent REJECT
        naming the violation and retired; its agent exits
        ``EXIT_REJECTED`` instead of dialling back, and the survivor
        carries the cohort bit-identically."""
        frame, named = VIOLATIONS[violation]

        class Violator(WorkerAgent):
            def _handle_train(self, conn, payload):
                conn.send(*frame(proto.decode_train(payload)[0]))

        pool = make_pool()
        model = _model(31)
        ex = Recording(workers=2, **FAST)
        ex.bind(pool, model, TRAIN)
        host, port = proto.parse_endpoint(ex.listen())
        log = io.StringIO()
        codes = {}
        agents = {
            "bad": Violator(host, port, log=log),
            "good": WorkerAgent(host, port, log=io.StringIO()),
        }
        threads = [
            threading.Thread(target=lambda k=k, a=a: codes.__setitem__(k, a.run()), daemon=True)
            for k, a in agents.items()
        ]
        for thread in threads:
            thread.start()
        g = model.get_flat_weights()
        reqs = [TrainRequest(cid) for cid in sorted(pool)]
        try:
            for r in range(2):
                ups = ex.train_cohort(r, reqs, g)
                g = fedavg([u.flat_weights for u in ups], [float(u.num_samples) for u in ups])
            _wait_until(lambda: "bad" in codes, "the refused agent never exited")
            registered = ex._next_id
        finally:
            ex.close()
            for thread in threads:
                thread.join(timeout=10.0)
        assert codes == {"bad": EXIT_REJECTED, "good": EXIT_OK}
        assert registered == 2, "the refused agent registered again"
        assert f"refused by coordinator: {named}" in log.getvalue()
        assert np.array_equal(serial_reference(rounds=2), g)


def _wait_for_join(ex):
    """``between``: after round 0, wait until the dropped agent's join is queued."""
    ex._events = _Scripted()
    return lambda r, procs: r == 0 and _wait_until(
        lambda: ex._events.joins == 1, "the dropped worker never rejoined"
    )


def test_a_traced_rejoin_counts_one_retirement_and_one_join(tmp_path):
    """``distributed.worker_retired`` and ``distributed.worker_joined``
    are lifecycle counters: one each for a drop and its rejoin, and
    ``cli report`` prints both."""
    from repro.telemetry.report import report_main

    trace = str(tmp_path / "rejoin.jsonl")
    telemetry.reset()
    telemetry.configure(enabled=True, trace_path=trace)
    try:
        ex = DropAtDispatch(workers=2, **FAST)
        g, _codes = run_distributed(ex, rounds=2, between=_wait_for_join(ex))
    finally:
        telemetry.flush()
        telemetry.shutdown()
    counters = telemetry.snapshot()["counters"]
    telemetry.reset()
    assert counters["distributed.worker_retired"] == 1
    assert counters["distributed.worker_joined"] == 1
    report = report_main(trace)
    assert "distributed.worker_retired = 1" in report
    assert "distributed.worker_joined = 1" in report
    assert np.array_equal(serial_reference(rounds=2), g)


def test_a_wrong_typed_hello_is_rejected_and_a_rejoin_still_works():
    """A HELLO whose fields have the wrong type gets a REJECT, like any
    bad handshake, and leaves the accept thread alive: a worker whose
    connection is severed afterwards still rejoins, bit-identically."""
    replies = []

    class ProbeThenDrop(DropAtDispatch):
        def _dropped(self, handle):
            host, port = proto.parse_endpoint(self.endpoint)
            with Connection(socket.create_connection((host, port), timeout=10.0)) as conn:
                conn.send(proto.MsgType.HELLO, b'{"version": "x", "capacity": 1, "pid": 1}')
                replies.append(conn.recv(timeout=10.0))

    ex = ProbeThenDrop(workers=2, **FAST)
    g, codes = run_distributed(ex, between=_wait_for_join(ex))
    [(msg_type, payload)] = replies
    assert msg_type == proto.MsgType.REJECT
    assert "malformed HELLO" in proto.decode_reject(payload)
    assert ex.dropped and ex.workers_of(1) == {1, 2}, "the severed worker did not rejoin"
    assert codes == [EXIT_OK, EXIT_OK]
    assert np.array_equal(serial_reference(), g)


def test_close_shuts_down_a_worker_whose_join_is_still_queued():
    """An agent that joins after the last batch is never taken by a
    collector: ``close()`` files it anyway, so it is sent SHUTDOWN and
    exits cleanly with its summary collected."""
    pool = make_pool(num_clients=3)
    model = _model(31)
    ex = DistributedExecutor(workers=1, **FAST)
    ex._events = _Scripted()
    ex.bind(pool, model, TRAIN)
    procs = spawn_local_workers(ex.listen(), 1)
    host, port = proto.parse_endpoint(ex.endpoint)
    codes = []
    late = threading.Thread(
        target=lambda: codes.append(WorkerAgent(host, port, log=io.StringIO()).run()), daemon=True
    )
    try:
        ex.train_cohort(0, [TrainRequest(0)], model.get_flat_weights())
        late.start()
        _wait_until(lambda: ex._events.joins == 1, "the late agent never joined")
    finally:
        ex.close()
        late.join(timeout=10.0)
        proc_codes = terminate_workers(procs)
    assert codes == [EXIT_OK] and proc_codes == [EXIT_OK]
    assert sorted(ex.worker_summaries) == [0, 1]


def test_a_settled_job_leaves_the_stranded_ones():
    """A result from a retired worker can settle a job that was stranded
    when it died: the batch must not wait for a join to redo it."""
    from repro.distributed.coordinator import _InFlight

    state = _InFlight(1, 0, np.zeros(3), "train")
    state.pending = {0: [(8, 1, None)]}
    state.stranded = {7: (7, 1, None)}
    assert state.outstanding() == 2
    assert state.settle(7) is True
    assert state.stranded == {} and state.outstanding() == 1


class TestCleanSessions:
    def test_a_new_session_forgets_the_last_ones_state(self):
        """The store, the retained broadcasts, the origins and the eval
        set belong to a session; the process-wide counters do not."""
        model = _model(7)
        agent = WorkerAgent("unused", 1, log=io.StringIO())
        agent.worker_id = 3
        agent._expected_signature = proto.model_signature(model)
        agent._handle_assign(
            proto.encode_assign(make_pool(2), TRAIN, agent._expected_signature, model=model)
        )
        agent._store_broadcast(proto.encode_broadcast(1, model.get_flat_weights()))
        agent._origins[0] = {}
        agent._eval_data = (np.zeros((1, 4, 4, 1)), np.zeros(1))
        agent._stats["rejoins"] = 1
        agent._new_session()
        assert agent.worker_id is None and agent._expected_signature is None
        assert agent._clients is None and agent._workspace is None
        assert not agent._broadcasts and not agent._origins and agent._eval_data is None
        assert agent._stats["rejoins"] == 1

    def test_a_paired_agent_has_no_second_socket_to_dial(self):
        """A ``process`` pool worker whose socketpair drops after WELCOME
        dials again like any agent, finds nothing, and exits
        ``EXIT_CONNECTION_LOST``."""
        from repro.distributed.launch import _PairedAgent
        from repro.distributed.worker import EXIT_CONNECTION_LOST

        ours, theirs = socket.socketpair()
        agent = _PairedAgent(theirs)
        codes = []
        thread = threading.Thread(target=lambda: codes.append(agent.run()), daemon=True)
        thread.start()
        with Connection(ours) as coordinator:
            assert coordinator.recv(timeout=10.0)[0] == proto.MsgType.HELLO
            coordinator.send(
                proto.MsgType.WELCOME, proto.encode_welcome(proto.PROTOCOL_VERSION, 0, "sig", 1)
            )
        thread.join(timeout=10.0)
        assert codes == [EXIT_CONNECTION_LOST]
        assert agent.worker_id == 0

    def test_a_zero_dial_window_still_dials_once(self, monkeypatch):
        """``--connect-timeout 0`` means no retry, not no attempt: the agent
        dials a closed port once and logs the refusal it got."""
        from repro.distributed.worker import EXIT_CONNECTION_LOST

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        dials = []
        dial = socket.create_connection

        def counting(address, *args, **kwargs):
            dials.append(address)
            return dial(address, *args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", counting)
        log = io.StringIO()
        agent = WorkerAgent("127.0.0.1", port, connect_timeout=0, log=log)
        assert agent.run() == EXIT_CONNECTION_LOST
        assert dials == [("127.0.0.1", port)]
        assert "Connection refused" in log.getvalue()
