"""Reconnect-and-resume: a dropped TCP connection is not a dead worker.

These tests sever the *connection* -- never the worker process -- and
assert the v4 resume contract: within the coordinator's grace window the
worker re-handshakes with its session token, gets its clients re-pinned
with authoritative RNG state, is resynced by a raw broadcast, and the
run's outcome is bit-identical to serial.  The pre-v4 retire path
remains the fallback: a worker that cannot come back (killed process)
is retired once the grace window expires, and resume attempts with a
bad token -- or against a coordinator that disabled resume -- are
REJECTed.
"""

import os
import queue
import signal
import socket
import time

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
from repro.execution import TrainRequest, create_executor
from repro.fl.aggregator import fedavg
from tests.conftest import make_test_client

TRAIN = TrainingConfig(optimizer="rmsprop", lr=0.05, lr_decay=0.99)
FAST = dict(
    accept_timeout=60.0, result_timeout=90.0, heartbeat_interval=0.5
)


def make_pool(num_clients=6, seed=31):
    return {
        i: make_test_client(client_id=i, seed=seed) for i in range(num_clients)
    }


def serial_reference(seed=31, rounds=4, num_clients=6):
    from repro.nn import build_mlp

    pool = make_pool(num_clients=num_clients, seed=seed)
    model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=seed)
    g = model.get_flat_weights()
    reqs = [TrainRequest(cid) for cid in sorted(pool)]
    with create_executor("serial") as ex:
        ex.bind(pool, model, TRAIN)
        for r in range(rounds):
            ups = ex.train_cohort(r, reqs, g)
            g = fedavg(
                [u.flat_weights for u in ups],
                [float(u.num_samples) for u in ups],
            )
    return g


def run_distributed(executor_cls, rounds=4, seed=31, codec="raw", **kwargs):
    """Train ``rounds`` full cohorts through real loopback workers."""
    from repro.nn import build_mlp

    pool = make_pool(seed=seed)
    model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=seed)
    opts = dict(FAST)
    opts.update(kwargs)
    ex = executor_cls(workers=2, **opts)
    ex.bind(pool, model, TRAIN.with_(codec=codec))
    procs = spawn_local_workers(ex.listen(), 2)
    g = model.get_flat_weights()
    reqs = [TrainRequest(cid) for cid in sorted(pool)]
    try:
        for r in range(rounds):
            ups = ex.train_cohort(r, reqs, g)
            g = fedavg(
                [u.flat_weights for u in ups],
                [float(u.num_samples) for u in ups],
            )
        workers_up = ex.num_workers_started
    finally:
        ex.close()
        codes = terminate_workers(procs)
    return g, workers_up, codes, ex


class DropConnOnUpdate(DistributedExecutor):
    """Severs one worker's TCP connection (NOT its process) the moment
    its ``drop_at``-th update arrives -- i.e. mid-round, with that
    worker's remaining jobs still in flight."""

    drop_at = 1

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.dropped = False
        self.updates_seen = 0

    def _on_update_received(self, worker_id, client_id):
        self.updates_seen += 1
        if not self.dropped and self.updates_seen == self.drop_at:
            self.dropped = True
            # Both sides observe EOF; the worker process survives and
            # re-dials with its session token.
            self._handles[worker_id].conn.close()


def _wait_until(condition, what):
    deadline = time.monotonic() + 30.0
    while not condition():
        assert time.monotonic() < deadline, f"forced schedule stuck: {what}"
        time.sleep(0.01)


class _GatedQueue(queue.Queue):
    """The coordinator's event queue with one forced pause: once
    ``ready`` is set, the next ``get`` -- which the collector makes
    holding no lock -- first waits until ``ready()`` is true."""

    ready = None

    def get(self, block=True, timeout=None):
        ready, self.ready = self.ready, None
        if ready is not None:
            _wait_until(ready, "the severed worker never resumed")
        return super().get(block, timeout)


class ResumeBeforeQueuedUpdatesMerge(DropConnOnUpdate):
    """The resume race as a forced schedule: the first UPDATE is merged,
    the other five of the cohort are left *queued* (read off the wire,
    not yet merged), the first worker's connection is severed, and the
    collector does not look at the queue again until that worker has
    resumed -- so the resume re-ships its clients while two of their
    results sit un-merged behind it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._events = _GatedQueue()

    def _on_update_received(self, worker_id, client_id):
        if self.dropped:
            return
        _wait_until(
            lambda: self._events.qsize() >= 5, "the cohort's other results never queued"
        )
        handle = self._handles[worker_id]
        self._events.ready = lambda: handle.gen == 1
        super()._on_update_received(worker_id, client_id)


class TestResumeMidRound:
    def test_connection_drop_mid_round_resumes_bit_identical(self):
        """The acceptance bar: kill the TCP connection mid-round; the
        worker resumes within the grace window, nobody is retired, and
        the history is bit-identical to serial."""
        g, workers_up, codes, ex = run_distributed(
            DropConnOnUpdate, reconnect_grace=30.0
        )
        assert ex.dropped, "the connection-drop hook never fired"
        assert workers_up == 2, "a resumable worker was retired"
        assert codes == [0, 0], "workers did not exit cleanly after SHUTDOWN"
        assert np.array_equal(serial_reference(), g), (
            "reconnect-and-resume broke bit-identity"
        )

    def test_connection_drop_resumes_under_delta_codec(self):
        """The resume resyncs with a RAW broadcast (delta baselines do
        not survive a reconnect), then later broadcasts go back to
        delta -- still bit-identical to serial end to end."""
        g, workers_up, codes, ex = run_distributed(
            DropConnOnUpdate, reconnect_grace=30.0, codec="delta"
        )
        assert ex.dropped
        assert workers_up == 2
        assert np.array_equal(serial_reference(), g)

    @pytest.mark.parametrize("codec", ["raw", "delta"])
    def test_resume_resyncs_raw_never_alias_or_cached_delta(self, codec):
        """v7: the resume clears the worker's baseline mirror, so the
        re-broadcast of the in-flight seq must carry the vector raw --
        never an alias (nothing is retained on the new connection) and
        never the delta frame cached for that seq."""
        sent = []  # (worker gen, mirror was empty, alias?, codec id)

        class Recording(DropConnOnUpdate):
            def _broadcast_frame(self, handle, state):
                empty = not handle.baselines
                frame, retained = super()._broadcast_frame(handle, state)
                sent.append((
                    handle.gen,
                    empty,
                    proto.broadcast_is_alias(frame),
                    proto._BROADCAST_HEADER.unpack_from(frame)[2],
                ))
                return frame, retained

        g, workers_up, codes, ex = run_distributed(
            Recording, reconnect_grace=30.0, codec=codec
        )
        assert ex.dropped and workers_up == 2
        assert np.array_equal(serial_reference(), g)
        raw_id = 1
        resyncs = [rec for rec in sent if rec[0] >= 1 and rec[1]]
        assert resyncs, "no broadcast was sent on the resumed connection"
        for _gen, empty, alias, codec_id in sent:
            if empty:
                assert not alias and codec_id == raw_id

    @pytest.mark.parametrize("codec", ["raw", "delta"])
    def test_resume_before_queued_updates_are_merged(self, codec):
        """A result read off a connection that a resume has since
        replaced must not be merged: the resumed worker was just handed
        the *pre-training* RNG state of that client, so merging the old
        result (and advancing the ledger) would make it re-draw this
        round's shuffles in the next one.  The job stays pending and the
        resume re-dispatches it."""
        g, workers_up, codes, ex = run_distributed(
            ResumeBeforeQueuedUpdatesMerge, reconnect_grace=30.0, codec=codec
        )
        assert ex.dropped and workers_up == 2
        assert codes == [0, 0]
        assert np.array_equal(serial_reference(), g), (
            "a result from the replaced connection was merged after the resume"
        )

    def test_connection_drop_between_rounds_resumes(self):
        """A drop after a round completes: the resume happens with no
        collector in flight, and the stale resume event must not make
        the next round double-dispatch (which would advance worker-side
        RNG streams twice and silently diverge)."""

        class DropAfterRoundOne(DropConnOnUpdate):
            drop_at = 6  # last update of round 0's full cohort

        g, workers_up, codes, ex = run_distributed(
            DropAfterRoundOne, reconnect_grace=30.0
        )
        assert ex.dropped
        assert workers_up == 2
        assert np.array_equal(serial_reference(), g)


class TestGraceExpiryFallback:
    def test_killed_process_is_retired_after_grace(self):
        """A worker that cannot come back (SIGKILLed process) rides the
        pre-v4 path once the window expires: retire, re-pin with
        replayed RNG state, bit-identical completion."""

        class KillProcessOnUpdate(DistributedExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.killed = False

            def _on_update_received(self, worker_id, client_id):
                if not self.killed:
                    self.killed = True
                    os.kill(self.worker_pid(worker_id), signal.SIGKILL)

        g, workers_up, codes, ex = run_distributed(
            KillProcessOnUpdate, reconnect_grace=1.0
        )
        assert ex.killed
        assert workers_up == 1, "the dead worker should have been retired"
        assert np.array_equal(serial_reference(), g)


class TestResumeHandshakeRejection:
    def _register_one_worker(self, reconnect_grace):
        """A started coordinator with one real worker, plus its endpoint."""
        from repro.nn import build_mlp

        pool = make_pool(num_clients=3)
        model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=31)
        ex = DistributedExecutor(
            workers=1, reconnect_grace=reconnect_grace, **FAST
        )
        ex.bind(pool, model, TRAIN)
        procs = spawn_local_workers(ex.listen(), 1)
        # First cohort forces registration + ASSIGN + accept thread.
        ex.train_cohort(
            0, [TrainRequest(0)], model.get_flat_weights()
        )
        return ex, procs

    def _resume_hello(self, endpoint, worker_id, token):
        host, port = proto.parse_endpoint(endpoint)
        conn = Connection(socket.create_connection((host, port), timeout=10.0))
        try:
            conn.send(
                proto.MsgType.HELLO,
                proto.encode_hello(
                    proto.PROTOCOL_VERSION, 1, 999,
                    resume=(worker_id, token),
                ),
            )
            msg_type, payload = conn.recv(timeout=10.0)
        finally:
            conn.close()
        return msg_type, payload

    def test_bad_token_is_rejected(self):
        ex, procs = self._register_one_worker(reconnect_grace=30.0)
        try:
            msg_type, payload = self._resume_hello(
                ex.endpoint, 0, "not-the-token"
            )
            assert msg_type == proto.MsgType.REJECT
            assert "token mismatch" in proto.decode_reject(payload)
            # The impostor must not have displaced the real worker.
            assert ex.num_workers_started == 1
        finally:
            ex.close()
            terminate_workers(procs)

    def test_resume_disabled_is_rejected(self):
        ex, procs = self._register_one_worker(reconnect_grace=0.0)
        try:
            token = ex._handles[0].token
            msg_type, payload = self._resume_hello(ex.endpoint, 0, token)
            assert msg_type == proto.MsgType.REJECT
            assert "resume disabled" in proto.decode_reject(payload)
        finally:
            ex.close()
            terminate_workers(procs)

    def test_unknown_worker_is_rejected(self):
        ex, procs = self._register_one_worker(reconnect_grace=30.0)
        try:
            msg_type, payload = self._resume_hello(ex.endpoint, 42, "whatever")
            assert msg_type == proto.MsgType.REJECT
            assert "cannot resume" in proto.decode_reject(payload)
        finally:
            ex.close()
            terminate_workers(procs)

    def test_fresh_registration_after_start_is_rejected(self):
        """Clients are pinned for the federation's lifetime: a brand-new
        worker knocking after start-up is refused, not half-adopted."""
        ex, procs = self._register_one_worker(reconnect_grace=30.0)
        try:
            host, port = proto.parse_endpoint(ex.endpoint)
            conn = Connection(
                socket.create_connection((host, port), timeout=10.0)
            )
            try:
                conn.send(
                    proto.MsgType.HELLO,
                    proto.encode_hello(proto.PROTOCOL_VERSION, 1, 999),
                )
                msg_type, payload = conn.recv(timeout=10.0)
            finally:
                conn.close()
            assert msg_type == proto.MsgType.REJECT
            assert "already running" in proto.decode_reject(payload)
        finally:
            ex.close()
            terminate_workers(procs)


class TestReassignCandidates:
    """A terminal worker loss must not abort the run while other workers
    are merely mid-blip: clients re-pin onto a parked-lost worker (whose
    resume re-ships everything) rather than raising 'all workers gone'."""

    def _executor_with_handles(self, grace=30.0):
        import time as time_mod

        from repro.distributed.coordinator import _WorkerHandle

        ex = DistributedExecutor(workers=2, reconnect_grace=grace, **FAST)
        handles = {}
        socks = []
        for wid in range(2):
            a, b = socket.socketpair()
            socks.extend([a, b])
            handles[wid] = _WorkerHandle(wid, Connection(a), capacity=1, pid=0)
        ex._handles = handles
        return ex, handles, time_mod

    def test_up_workers_win(self):
        ex, handles, _ = self._executor_with_handles()
        assert ex._reassign_candidates() == [0, 1]
        handles[0].state = "retired"
        assert ex._reassign_candidates() == [1]

    def test_unexpired_lost_workers_are_the_fallback(self):
        ex, handles, time_mod = self._executor_with_handles()
        handles[0].state = "retired"
        handles[1].state = "lost"
        handles[1].lost_at = time_mod.monotonic()
        assert ex._reassign_candidates() == [1]

    def test_expired_lost_workers_are_not(self):
        ex, handles, time_mod = self._executor_with_handles(grace=5.0)
        handles[0].state = "retired"
        handles[1].state = "lost"
        handles[1].lost_at = time_mod.monotonic() - 60.0
        assert ex._reassign_candidates() == []


class TestProtocolResumeFrames:
    def test_hello_resume_round_trip(self):
        hello = proto.decode_hello(
            proto.encode_hello(4, 2, 123, resume=(7, "tok-abc"))
        )
        assert hello["resume"] == {"worker_id": 7, "token": "tok-abc"}
        assert proto.decode_hello(proto.encode_hello(4, 2, 123)).get(
            "resume"
        ) is None

    def test_hello_resume_missing_fields_rejected(self):
        bad = b'{"version": 4, "capacity": 1, "pid": 1, "resume": {"token": "x"}}'
        with pytest.raises(proto.ProtocolError, match="resume"):
            proto.decode_hello(bad)

    def test_welcome_carries_session_token(self):
        welcome = proto.decode_welcome(
            proto.encode_welcome(4, 0, "sig", 17, "secret")
        )
        assert welcome["session_token"] == "secret"
