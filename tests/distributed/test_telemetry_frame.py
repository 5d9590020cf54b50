"""The v5 TELEMETRY frame: codec round-trip and end-to-end collection.

A worker ships one compact telemetry summary between SHUTDOWN and BYE;
the coordinator stores it during its BYE wait, so ``close()`` collects
every summary with zero extra round trips.  Telemetry is observability
only: a malformed summary must never fail a shutdown.
"""

import numpy as np
import pytest

from repro.config import TrainingConfig
from repro.distributed import (
    DistributedExecutor,
    protocol as proto,
    spawn_local_workers,
    terminate_workers,
)
from repro.execution import TrainRequest
from repro.nn import build_mlp
from tests.conftest import make_test_client

TRAIN = TrainingConfig(optimizer="rmsprop", lr=0.05, lr_decay=0.99)
FAST_TIMEOUTS = dict(accept_timeout=60.0, result_timeout=90.0)


class TestTelemetryCodec:
    def test_round_trip_preserves_summary(self):
        summary = {
            "train_requests": 4,
            "busy_s": 0.125,
            "frames_sent": {"UPDATE": 4, "BYE": 1},
            "future_key_v6": "coordinators must preserve unknown keys",
        }
        worker_id, decoded = proto.decode_telemetry(
            proto.encode_telemetry(3, summary)
        )
        assert worker_id == 3
        assert decoded == summary

    def test_encode_rejects_non_mapping(self):
        with pytest.raises(ValueError, match="mapping"):
            proto.encode_telemetry(1, ["not", "a", "mapping"])

    def test_decode_rejects_malformed(self):
        with pytest.raises(proto.ProtocolError, match="missing"):
            proto.decode_telemetry(b'{"worker_id": 1}')
        with pytest.raises(proto.ProtocolError, match="JSON object"):
            proto.decode_telemetry(b'{"worker_id": 1, "summary": [1]}')


class TestEndToEndCollection:
    def test_close_collects_one_summary_per_worker(self):
        """Real worker subprocesses on loopback: after a train round and
        a clean close(), the coordinator holds a summary per worker whose
        counters reflect the work each one actually did."""
        clients = [make_test_client(client_id=i, seed=7) for i in range(4)]
        pool = {c.client_id: c for c in clients}
        model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=7)

        ex = DistributedExecutor(workers=2, **FAST_TIMEOUTS)
        ex.bind(pool, model, TRAIN)
        procs = spawn_local_workers(ex.listen(), 2)
        try:
            weights = model.get_flat_weights()
            requests = [TrainRequest(cid, epochs=1) for cid in sorted(pool)]
            updates = ex.train_cohort(1, requests, weights)
            assert len(updates) == len(requests)
        finally:
            ex.close()
            codes = terminate_workers(procs)
        assert codes == [0, 0]

        summaries = ex.worker_summaries
        assert sorted(summaries) == [0, 1]
        total_trained = 0
        for wid, summary in summaries.items():
            assert summary["broadcasts_received"] >= 1
            assert summary["train_requests"] >= 1
            assert summary["busy_s"] > 0
            assert summary["codec_encode_s"] >= 0
            assert isinstance(summary["pid"], int)
            # wire tallies are keyed by frame NAME; the summary is built
            # just before the TELEMETRY/BYE sends, so neither appears in
            # frames_sent, but the training traffic must
            assert "BYE" not in summary["frames_sent"]
            assert summary["frames_sent"].get("UPDATE", 0) >= 1
            assert summary["frames_received"]["SHUTDOWN"] == 1
            assert summary["bytes_received"]["BROADCAST"] > 0
            total_trained += summary["clients_trained"]
        assert total_trained == len(requests)

        # the coordinator's folded per-type tallies mirror the workers'
        sent = ex.frames_sent_by_type
        received = ex.frames_received_by_type
        assert sent[proto.MsgType.SHUTDOWN] == 2
        assert received[proto.MsgType.TELEMETRY] == 2
        assert received[proto.MsgType.BYE] == 2
        assert ex.bytes_received_by_type[proto.MsgType.UPDATE] > 0

    def test_malformed_summary_never_fails_shutdown(self):
        """Feed the reader a TELEMETRY frame that does not decode; the
        reader must keep serving (BYE still routes) and no summary is
        recorded."""
        import socket
        import threading

        from repro.distributed.coordinator import _WorkerHandle
        from repro.distributed.transport import Connection

        ex = DistributedExecutor(workers=1, **FAST_TIMEOUTS)
        a, b = socket.socketpair()
        coord_side, worker_side = Connection(a), Connection(b)
        handle = _WorkerHandle(0, coord_side, capacity=1, pid=123)
        t = threading.Thread(
            target=ex._reader, args=(handle, handle.gen), daemon=True
        )
        t.start()
        try:
            worker_side.send(proto.MsgType.TELEMETRY, b"not json at all")
            valid = proto.encode_telemetry(0, {"train_requests": 1})
            worker_side.send(proto.MsgType.TELEMETRY, valid)
            worker_side.send(proto.MsgType.BYE)
            # BYE must still route to the event queue despite the bad frame
            wid, _gen, msg_type, _ = ex._events.get(timeout=5.0)
            assert (wid, msg_type) == (0, proto.MsgType.BYE)
            t.join(timeout=5.0)
            # the bad frame was dropped; the good one right after it stuck
            assert ex.worker_summaries == {0: {"train_requests": 1}}
            assert handle.summary == {"train_requests": 1}
        finally:
            worker_side.close()
            coord_side.close()
            ex.close()
