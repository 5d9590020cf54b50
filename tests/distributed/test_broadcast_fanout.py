"""Encode-once fan-out, the alias BROADCAST and the shared mirror (v7).

The coordinator picks one of three forms for every BROADCAST it owes a
worker: a header-only *alias* (the worker's newest retained vector is
bit-identical), a *cached frame* (another worker already paid for this
``(seq, codec, baseline_seq)`` encode) or a *fresh encode*.  The unit
tests below drive ``_send_broadcast`` against recording connections, so
every choice is asserted on the exact bytes that would hit the wire; the
loopback test runs real ``WorkerAgent`` loops in threads of this process
so one counting codec sees both peers.
"""

import threading
from collections import Counter

import numpy as np
import pytest

from repro.codec import CODEC_NAMES, DeltaCodec, RawCodec, get_codec
from repro.config import TrainingConfig
from repro.distributed import DistributedExecutor
from repro.distributed import protocol as proto
from repro.distributed.coordinator import _InFlight, _WorkerHandle
from repro.distributed.worker import BROADCAST_RETAIN, WorkerAgent
from repro.execution import TrainRequest, create_executor
from repro.fl.aggregator import fedavg
from repro.nn import build_mlp
from tests.conftest import make_test_client, make_tiny_dataset

TRAIN = TrainingConfig(optimizer="rmsprop", lr=0.05, lr_decay=0.99)
FAST_TIMEOUTS = dict(accept_timeout=60.0, result_timeout=90.0)


class _RecordingConn:
    """Stands in for a ``Connection``: keeps every frame 'sent'."""

    def __init__(self):
        self.sent = []

    def send(self, msg_type, payload=b""):
        self.sent.append((msg_type, payload))

    def close(self):
        pass


@pytest.fixture
def codec_calls(monkeypatch):
    """Count every raw/delta encode and decode, keyed by
    ``(thread name, codec, operation)``."""
    calls = Counter()
    lock = threading.Lock()

    def counted(cls, op):
        original = getattr(cls, op)

        def wrapper(self, *args, **kwargs):
            with lock:
                calls[(threading.current_thread().name, cls.name, op)] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, op, wrapper)

    for cls in (RawCodec, DeltaCodec):
        counted(cls, "encode")
        counted(cls, "decode")
    return calls


def _total(calls, op, thread_prefix=""):
    return sum(
        count
        for (thread, _codec, called), count in calls.items()
        if called == op and thread.startswith(thread_prefix)
    )


def _bound_executor(codec, num_handles=2):
    """A bound (never listening) executor with recording-conn handles."""
    model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=7)
    pool = {0: make_test_client(client_id=0, seed=7)}
    ex = DistributedExecutor(workers=num_handles)
    ex.bind(pool, model, TRAIN.with_(codec=codec))
    handles = [
        _WorkerHandle(wid, _RecordingConn(), 1, 0) for wid in range(num_handles)
    ]
    return ex, handles, model.get_flat_weights()


def _start_agents(ex, count=2):
    """Real ``WorkerAgent`` loops in threads of this process (so the
    counting codec sees their calls); returns the threads to join."""
    host, port = proto.parse_endpoint(ex.listen())
    threads = [
        threading.Thread(
            target=WorkerAgent(host, port, reconnect_grace=0.0).run,
            name=f"agent-{i}",
            daemon=True,
        )
        for i in range(count)
    ]
    for thread in threads:
        thread.start()
    return threads


def _send(ex, handle, state):
    with handle.lock:
        ex._send_broadcast(handle, state)
    msg_type, frame = handle.conn.sent[-1]
    assert msg_type == proto.MsgType.BROADCAST
    return frame


def _codec_id(frame):
    return proto._BROADCAST_HEADER.unpack_from(frame)[2]


def _drift(weights, step):
    """A nearby, distinct vector (what a round of training produces)."""
    return weights * (1.0 + 1e-9 * step) + 1e-12 * step


class TestEncodeOnceFanOut:
    def test_same_baseline_one_encode_byte_identical_frames(self, codec_calls):
        ex, (a, b), w0 = _bound_executor("delta")
        first = _InFlight(1, 0, w0, "train")
        # Empty mirrors: one raw encode serves both workers.
        assert _send(ex, a, first) is _send(ex, b, first)
        assert _codec_id(a.conn.sent[-1][1]) == get_codec("raw").codec_id
        assert _total(codec_calls, "encode") == 1

        second = _InFlight(2, 1, _drift(w0, 1), "train")
        frame_a = _send(ex, a, second)
        frame_b = _send(ex, b, second)
        assert frame_a is frame_b, "second worker must be handed the same bytes"
        assert _codec_id(frame_a) == get_codec("delta").codec_id
        assert codec_calls[("MainThread", "delta", "encode")] == 1
        assert ex.broadcast_stats == {
            "encodes": 2, "frames_reused": 2, "aliases": 0,
        }
        # The frame decodes against what each worker retains.
        seq, back = proto.decode_broadcast(frame_b, baselines={1: w0})
        assert seq == 2 and back.tobytes() == second.weights.tobytes()
        ex.close()

    def test_lagging_mirror_gets_its_own_encode(self, codec_calls):
        ex, (a, b), w0 = _bound_executor("delta")
        first = _InFlight(1, 0, w0, "train")
        for handle in (a, b):
            _send(ex, handle, first)
        # Worker b sits round 1 out: its mirror keeps naming seq 1.
        _send(ex, a, _InFlight(2, 1, _drift(w0, 1), "train"))
        third = _InFlight(3, 2, _drift(w0, 2), "train")
        frame_a, frame_b = _send(ex, a, third), _send(ex, b, third)
        header = proto._BROADCAST_HEADER
        assert header.unpack_from(frame_a)[3] == 2
        assert header.unpack_from(frame_b)[3] == 1
        assert frame_a != frame_b
        assert sorted(third.frames) == [
            (get_codec("delta").codec_id, 1), (get_codec("delta").codec_id, 2),
        ]
        # raw(seq 1) + delta(seq 2) + two deltas for seq 3.
        assert _total(codec_calls, "encode") == 4
        assert ex.broadcast_stats["frames_reused"] == 1
        ex.close()

    @pytest.mark.parametrize("codec", CODEC_NAMES)
    def test_resident_vector_is_aliased_for_every_codec(self, codec, codec_calls):
        ex, (a, _b), w0 = _bound_executor(codec)
        _send(ex, a, _InFlight(1, 0, w0, "eval_model"))
        before = _total(codec_calls, "encode")
        frame = _send(ex, a, _InFlight(2, 0, w0.copy(), "train"))
        assert proto.broadcast_is_alias(frame)
        assert len(frame) == proto._BROADCAST_HEADER.size
        assert proto._BROADCAST_HEADER.unpack_from(frame)[3] == 1
        assert _total(codec_calls, "encode") == before
        assert ex.broadcast_stats["aliases"] == 1
        # One array now serves both seqs in the mirror.
        assert a.baselines[2] is a.baselines[1]
        ex.close()

    def test_alias_compares_bits_not_floats(self):
        """NaN != NaN and -0.0 == 0.0 as floats; the alias check must
        say the opposite on both counts."""
        ex, (a, _b), w0 = _bound_executor("raw")
        nan_vector = w0.copy()
        nan_vector[0] = np.nan
        _send(ex, a, _InFlight(1, 0, nan_vector, "eval_model"))
        assert proto.broadcast_is_alias(
            _send(ex, a, _InFlight(2, 0, nan_vector.copy(), "train"))
        )
        zeros = np.zeros_like(w0)
        _send(ex, a, _InFlight(3, 0, zeros, "eval_model"))
        negative_zero = zeros.copy()
        negative_zero[0] = -0.0
        assert not proto.broadcast_is_alias(
            _send(ex, a, _InFlight(4, 0, negative_zero, "train"))
        )
        ex.close()

    def test_alias_never_sent_on_an_empty_mirror(self):
        """First round and post-resume: nothing is retained, so the frame
        carries the vector raw -- whatever the cache holds for the seq."""
        ex, (a, b), w0 = _bound_executor("delta")
        state = _InFlight(1, 0, w0, "train")
        first = _send(ex, a, state)
        assert not proto.broadcast_is_alias(first)
        assert _codec_id(first) == get_codec("raw").codec_id

        second = _InFlight(2, 1, _drift(w0, 1), "train")
        for handle in (a, b):
            _send(ex, handle, second)
        third = _InFlight(3, 2, _drift(w0, 2), "train")
        assert _codec_id(_send(ex, a, third)) == get_codec("delta").codec_id
        # Worker b's connection is resumed mid-cohort: what _try_resume
        # does to its mirror.  The re-broadcast of seq 3 must be a raw
        # resync, not the cached delta frame and not an alias.
        with b.lock:
            b.baselines.clear()
        resync = _send(ex, b, third)
        assert not proto.broadcast_is_alias(resync)
        assert _codec_id(resync) == get_codec("raw").codec_id
        seq, back = proto.decode_broadcast(resync)
        assert seq == 3 and back.tobytes() == third.weights.tobytes()
        ex.close()


class TestSharedMirror:
    def test_mirrors_share_one_read_only_array_per_seq(self):
        ex, (a, b), w0 = _bound_executor("delta")
        caller_owned = w0.copy()
        state = _InFlight(1, 0, caller_owned, "train")
        _send(ex, a, state)
        _send(ex, b, state)
        assert a.baselines[1] is b.baselines[1] is state.weights
        assert not a.baselines[1].flags.writeable
        with pytest.raises(ValueError):
            a.baselines[1][0] = 1.0
        # The one copy is the coordinator's own: the server may reuse
        # its buffer without corrupting a retained baseline.
        caller_owned[:] = 0.0
        assert a.baselines[1].tobytes() == w0.tobytes()
        ex.close()

    def test_mirror_kept_for_every_codec_and_bounded(self):
        ex, (a, _b), w0 = _bound_executor("raw")
        for seq in range(1, BROADCAST_RETAIN + 4):
            _send(ex, a, _InFlight(seq, seq, _drift(w0, seq), "train"))
        assert list(a.baselines) == list(
            range(4, BROADCAST_RETAIN + 4)
        )
        ex.close()


class TestWorkerSideAlias:
    def test_alias_of_an_evicted_seq_names_the_retained_seqs(self):
        agent = WorkerAgent("127.0.0.1", 1)
        w = np.linspace(-1, 1, 5)
        for seq in range(1, BROADCAST_RETAIN + 2):  # evicts seq 1
            agent._store_broadcast(proto.encode_broadcast(seq, w + seq))
        retained = list(range(2, BROADCAST_RETAIN + 2))
        with pytest.raises(proto.ProtocolError) as excinfo:
            agent._store_broadcast(proto.encode_broadcast_alias(99, w.size, 1))
        assert str(retained) in str(excinfo.value)
        with pytest.raises(proto.ProtocolError, match="retained"):
            agent._store_broadcast(proto.encode_broadcast_alias(99, w.size, 77))

    def test_alias_files_the_retained_array_under_the_new_seq(self):
        agent = WorkerAgent("127.0.0.1", 1)
        w = np.linspace(-1, 1, 5)
        agent._store_broadcast(proto.encode_broadcast(4, w))
        agent._store_broadcast(proto.encode_broadcast_alias(5, w.size, 4))
        assert agent._broadcasts[5] is agent._broadcasts[4]
        assert not agent._broadcasts[5].flags.writeable
        assert agent._stats["broadcast_aliases"] == 1
        assert agent._stats["broadcasts_received"] == 2


class TestLoopbackAlias:
    def test_train_after_evaluate_model_costs_no_codec_call(self, codec_calls):
        """Round shape of every FL run: the global evaluation ships the
        new weights, then the next training cohort starts from the same
        vector.  The second broadcast must be an alias on the wire with
        zero codec calls on either side, and training must stay
        bit-identical to serial."""
        pool = {
            i: make_test_client(client_id=i, seed=11) for i in range(4)
        }
        model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=11)
        test = make_tiny_dataset(n=600, seed=5)
        weights = model.get_flat_weights()
        requests = [TrainRequest(cid) for cid in sorted(pool)]

        with create_executor("serial") as serial:
            serial.bind(
                {i: make_test_client(client_id=i, seed=11) for i in range(4)},
                build_mlp((4, 4, 1), 3, hidden=(8,), rng=11),
                TRAIN,
            )
            ref_acc = serial.evaluate_model(weights, test.x, test.y)
            ref_updates = serial.train_cohort(0, requests, weights)

        ex = DistributedExecutor(workers=2, **FAST_TIMEOUTS)
        ex.bind(pool, model, TRAIN.with_(codec="delta"))
        ex.bind_eval_data(test.x, test.y)
        threads = _start_agents(ex)
        try:
            acc = ex.evaluate_model(weights, test.x, test.y)
            encodes = _total(codec_calls, "encode", "MainThread")
            worker_decodes = _total(codec_calls, "decode", "agent-")
            updates = ex.train_cohort(0, requests, weights)
            assert _total(codec_calls, "encode", "MainThread") == encodes
            assert _total(codec_calls, "decode", "agent-") == worker_decodes
            assert ex.broadcast_stats["aliases"] == 2
            broadcast_frames = ex.frames_sent_by_type[int(proto.MsgType.BROADCAST)]
            broadcast_bytes = ex.bytes_sent_by_type[int(proto.MsgType.BROADCAST)]
        finally:
            ex.close()
            for thread in threads:
                thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in threads)
        assert acc == ref_acc
        for ours, ref in zip(updates, ref_updates):
            assert ours.flat_weights.tobytes() == ref.flat_weights.tobytes()
        # 2 raw evaluation broadcasts + 2 header-only aliases.
        assert broadcast_frames == 4
        assert broadcast_bytes < 2 * (weights.nbytes + 64) + 2 * 64
        for summary in ex.worker_summaries.values():
            assert summary["broadcast_aliases"] == 1
            assert summary["broadcasts_received"] == 2

    def test_multi_round_alias_and_fanout_stay_bit_identical(self):
        """Evaluate-then-train for several rounds under both lossless
        codecs: every training broadcast is an alias, every evaluation
        broadcast is encoded once for both workers, and the trajectory
        equals serial's bit for bit."""
        test = make_tiny_dataset(n=600, seed=5)

        def run(executor, codec, rounds=3):
            pool = {i: make_test_client(client_id=i, seed=13) for i in range(4)}
            model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=13)
            executor.bind(pool, model, TRAIN.with_(codec=codec))
            executor.bind_eval_data(test.x, test.y)
            g = model.get_flat_weights()
            requests = [TrainRequest(cid) for cid in sorted(pool)]
            accs = []
            for r in range(rounds):
                accs.append(executor.evaluate_model(g, test.x, test.y))
                updates = executor.train_cohort(r, requests, g)
                g = fedavg(
                    [u.flat_weights for u in updates],
                    [float(u.num_samples) for u in updates],
                )
            return g, accs

        with create_executor("serial") as serial:
            ref_g, ref_accs = run(serial, "raw")

        for codec in ("raw", "delta"):
            ex = DistributedExecutor(workers=2, **FAST_TIMEOUTS)
            threads = _start_agents(ex)
            try:
                g, accs = run(ex, codec)
                stats = ex.broadcast_stats
            finally:
                ex.close()
                for thread in threads:
                    thread.join(timeout=10.0)
            assert g.tobytes() == ref_g.tobytes(), codec
            assert accs == ref_accs
            assert stats == {"encodes": 3, "frames_reused": 3, "aliases": 6}
