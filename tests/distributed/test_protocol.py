"""Tests for the distributed wire protocol: framing, codecs, handshakes.

The framing layer is property-tested (any frame sequence survives any
chunking of the byte stream); the codec tests pin bit-exact weight
round-trips; the handshake tests check that version and model-signature
mismatches are *rejected*, never silently tolerated.
"""

import socket
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TrainingConfig
from repro.distributed import protocol as proto
from repro.distributed.coordinator import DistributedExecutor
from repro.distributed.transport import (
    FRAME_HEADER,
    MAX_FRAME_PAYLOAD,
    Connection,
    ConnectionClosed,
    FrameError,
)
from repro.distributed.worker import EXIT_PROTOCOL_ERROR, WorkerAgent
from repro.nn import build_mlp
from repro.serialization import flat_weights_from_bytes, flat_weights_to_bytes
from tests.conftest import make_test_client


# ----------------------------------------------------------------------
# framing: Connection is the only frame parser, so it is tested at the
# socket -- raw bytes go in one end of a socketpair, frames come out of
# the Connection on the other.
# ----------------------------------------------------------------------
def _frame(msg_type, payload=b""):
    """The wire form of one frame, built without Connection.send."""
    return FRAME_HEADER.pack(len(payload), int(msg_type)) + payload


def _drain(conn):
    """Every frame readable right now (non-blocking), checking the byte
    counters at each frame boundary."""
    out = []
    while True:
        try:
            msg_type, payload = conn.recv(timeout=0)
        except BlockingIOError:
            return out
        assert conn.bytes_received == sum(conn.bytes_received_by_type.values())
        out.append((msg_type, bytes(payload)))


def _deliver(stream, chunk):
    """Write ``stream`` to a socketpair ``chunk`` bytes at a time, reading
    after every write: the frames out, and the receiving Connection."""
    raw, peer = socket.socketpair()
    out = []
    with raw, Connection(peer) as conn:
        for start in range(0, len(stream), chunk):
            raw.sendall(stream[start : start + chunk])
            out.extend(_drain(conn))
        return out, conn


class TestFraming:
    @settings(max_examples=60, deadline=None)
    @given(
        frames=st.lists(
            st.tuples(
                st.integers(0, 255), st.binary(min_size=0, max_size=2048)
            ),
            min_size=0,
            max_size=8,
        ),
        chunk=st.integers(1, 64),
    )
    def test_round_trip_survives_any_chunking(self, frames, chunk):
        """Frames always decode intact no matter how TCP fragments them."""
        stream = b"".join(_frame(t, p) for t, p in frames)
        out, conn = _deliver(stream, chunk)
        assert out == frames
        assert conn.bytes_received == len(stream)
        assert sum(conn.frames_received.values()) == len(frames)

    def test_byte_at_a_time_delivery(self):
        frames = [(7, b"abcdef"), (9, b""), (255, bytes(range(256)))]
        stream = b"".join(_frame(t, p) for t, p in frames)
        out, conn = _deliver(stream, 1)
        assert out == frames
        assert conn.frames_received == {7: 1, 9: 1, 255: 1}

    @settings(max_examples=30, deadline=None)
    @given(t=st.integers(0, 255), payload=st.binary(max_size=512))
    def test_single_frame_identity(self, t, payload):
        a, b = socket.socketpair()
        with Connection(a) as ca, Connection(b) as cb:
            ca.send(t, payload)
            assert cb.recv(timeout=5.0) == (t, payload)

    def test_partial_frame_is_buffered_not_lost(self):
        """A ``socket.timeout`` mid-header, then another mid-payload,
        loses nothing: the next ``recv`` resumes the same frame."""
        frame = _frame(proto.MsgType.PING, b"abcdef")
        cuts = (3, FRAME_HEADER.size + 2)
        raw, peer = socket.socketpair()
        with raw, Connection(peer) as conn:
            for start, cut in zip((0,) + cuts, cuts):
                raw.sendall(frame[start:cut])
                with pytest.raises(socket.timeout):
                    conn.recv(timeout=0.05)
                assert conn.bytes_received == cut
                assert conn.frames_received == {}
            raw.sendall(frame[cut:] + _frame(proto.MsgType.PONG))
            assert conn.recv(timeout=5.0) == (proto.MsgType.PING, b"abcdef")
            assert conn.recv(timeout=5.0) == (proto.MsgType.PONG, b"")
            assert conn.bytes_received == sum(
                conn.bytes_received_by_type.values()
            )

    @pytest.mark.parametrize("cut", [2, FRAME_HEADER.size, FRAME_HEADER.size + 3])
    def test_eof_mid_frame_raises_connection_closed(self, cut):
        frame = _frame(proto.MsgType.PING, b"abcdef")
        raw, peer = socket.socketpair()
        with Connection(peer) as conn:
            raw.sendall(frame[:cut])
            raw.close()
            with pytest.raises(ConnectionClosed):
                conn.recv(timeout=5.0)

    def test_oversize_announcement_rejected(self):
        """Over the cap by one byte, header only: refused before a single
        payload byte arrives -- and before a payload buffer exists."""
        raw, peer = socket.socketpair()
        with raw, Connection(peer) as conn:
            assert conn.max_payload == MAX_FRAME_PAYLOAD
            raw.sendall(FRAME_HEADER.pack(MAX_FRAME_PAYLOAD + 1, 1))
            tracemalloc.start()
            try:
                with pytest.raises(FrameError, match="frame limit"):
                    conn.recv(timeout=5.0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, f"{peak} bytes allocated for a refused frame"

    def test_max_payload_is_configurable(self):
        """A deployment that knows its largest legitimate frame can
        reject an absurd ``!IB`` length announcement long before the
        default 1 GiB bound -- and before a single payload byte lands."""
        raw, peer = socket.socketpair()
        with raw, Connection(peer, max_payload=64) as conn:
            raw.sendall(_frame(proto.MsgType.PING, b"x" * 64))
            assert conn.recv(timeout=5.0) == (proto.MsgType.PING, b"x" * 64)
            raw.sendall(FRAME_HEADER.pack(65, 1))  # header only, no payload
            with pytest.raises(FrameError, match="64-byte frame limit"):
                conn.recv(timeout=5.0)
            with pytest.raises(ValueError, match="positive"):
                conn.max_payload = 0
            conn.max_payload = None
            assert conn.max_payload == MAX_FRAME_PAYLOAD

    def test_connection_honours_max_payload(self):
        a, b = socket.socketpair()
        with Connection(a) as ca, Connection(b, max_payload=8) as cb:
            ca.send(proto.MsgType.PING, b"way more than eight bytes")
            with pytest.raises(FrameError, match="frame limit"):
                cb.recv(timeout=5.0)

    def test_encode_rejects_bad_type(self):
        a, b = socket.socketpair()
        with Connection(a) as ca, Connection(b):
            with pytest.raises(FrameError, match="one byte"):
                ca.send(300, b"")
            assert ca.bytes_sent == 0

    def test_connection_over_socketpair(self):
        a, b = socket.socketpair()
        with Connection(a) as ca, Connection(b) as cb:
            ca.send(proto.MsgType.PING, b"payload")
            assert cb.recv(timeout=5.0) == (proto.MsgType.PING, b"payload")
            assert ca.bytes_sent == cb.bytes_received > 0

    def test_connection_eof_raises_connection_closed(self):
        a, b = socket.socketpair()
        with Connection(b) as cb:
            a.close()
            with pytest.raises(ConnectionClosed):
                cb.recv(timeout=5.0)

    def test_concurrent_large_sends_stay_whole(self):
        """Frames far larger than the socket buffer, from two threads, on
        a socket with a timeout (so the gathered write comes back short
        and the remainder path runs): every frame arrives intact, on the
        wire exactly as ``header + payload``."""
        a, b = socket.socketpair()
        a.settimeout(30.0)
        size, per_thread = 1 << 20, 6
        with Connection(a) as ca, Connection(b) as cb:

            def sender(tag):
                for i in range(per_thread):
                    ca.send(tag, bytes([tag, i]) * (size // 2))

            threads = [
                threading.Thread(target=sender, args=(tag,), daemon=True)
                for tag in (1, 2)
            ]
            for thread in threads:
                thread.start()
            seen = {1: [], 2: []}
            for _ in range(2 * per_thread):
                tag, payload = cb.recv(timeout=30.0)
                assert len(payload) == size
                assert payload == bytes(payload[:2]) * (size // 2)
                assert payload[0] == tag
                seen[tag].append(payload[1])
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
            assert seen == {1: list(range(per_thread)), 2: list(range(per_thread))}
            framed = 2 * per_thread * (FRAME_HEADER.size + size)
            assert ca.bytes_sent == cb.bytes_received == framed


# ----------------------------------------------------------------------
# codecs
# ----------------------------------------------------------------------
class TestCodecs:
    def test_hello_welcome_reject_round_trip(self):
        hello = proto.decode_hello(proto.encode_hello(1, 3, 4242))
        assert hello == {"version": 1, "capacity": 3, "pid": 4242}
        welcome = proto.decode_welcome(proto.encode_welcome(1, 7, "sig", 163))
        assert welcome["worker_id"] == 7 and welcome["num_params"] == 163
        assert proto.decode_reject(proto.encode_reject("nope")) == "nope"

    def test_hello_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            proto.encode_hello(1, 0, 1)
        bad = b'{"version": 1, "capacity": 0, "pid": 1}'
        with pytest.raises(proto.ProtocolError, match="capacity"):
            proto.decode_hello(bad)

    def test_malformed_json_raises_protocol_error(self):
        with pytest.raises(proto.ProtocolError, match="malformed"):
            proto.decode_hello(b"\xff\xfe not json")
        with pytest.raises(proto.ProtocolError, match="missing"):
            proto.decode_hello(b'{"version": 1}')

    def test_train_round_trip(self):
        seq, rnd, jobs = proto.decode_train(
            proto.encode_train(9, 4, [(3, 1), (1, 2)])
        )
        assert (seq, rnd, jobs) == (9, 4, [(3, 1), (1, 2)])

    def test_assign_shard_round_trip(self):
        """v6: ASSIGN_SHARD carries an opaque shard blob + signature."""
        blob = b"PSH1\x00\x00\x00\x02{}"
        payload = proto.encode_assign_shard(blob, None, "sig-abc", model=None)
        out = proto.decode_assign_shard(payload)
        assert out["shard"] == blob
        assert out["signature"] == "sig-abc"
        assert out["model"] is None

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=True, allow_infinity=True, width=64),
            min_size=0,
            max_size=64,
        )
    )
    def test_weights_bytes_round_trip_bit_exact(self, values):
        """NaNs, infs, signed zeros, subnormals: all bits survive the wire."""
        arr = np.asarray(values, dtype=np.float64)
        back = flat_weights_from_bytes(flat_weights_to_bytes(arr), arr.size)
        assert arr.tobytes() == back.tobytes()

    def test_broadcast_round_trip_and_truncation_guard(self):
        w = np.array([1.5, -0.0, np.pi], dtype=np.float64)
        seq, back = proto.decode_broadcast(proto.encode_broadcast(5, w))
        assert seq == 5 and w.tobytes() == back.tobytes()
        with pytest.raises(proto.ProtocolError):
            proto.decode_broadcast(proto.encode_broadcast(5, w)[:-3])

    def test_broadcast_delta_codec_round_trip(self):
        """v4: a delta BROADCAST names its baseline seq; the decoder
        resolves it from the retained-broadcast map, bit-exactly."""
        baseline = np.linspace(-1, 1, 32)
        w = baseline + 1e-9
        blob = proto.encode_broadcast(
            6, w, codec="delta", baseline=baseline, baseline_seq=5
        )
        seq, back = proto.decode_broadcast(blob, baselines={5: baseline})
        assert seq == 6 and back.tobytes() == w.tobytes()

    def test_broadcast_delta_missing_baseline_names_retained_seqs(self):
        baseline = np.zeros(4)
        blob = proto.encode_broadcast(
            2, np.ones(4), codec="delta", baseline=baseline, baseline_seq=1
        )
        with pytest.raises(proto.ProtocolError, match=r"retained .* \[7\]"):
            proto.decode_broadcast(blob, baselines={7: baseline})
        with pytest.raises(proto.ProtocolError, match="retained"):
            proto.decode_broadcast(blob)  # no baselines at all

    def test_broadcast_alias_resolves_to_the_retained_array(self):
        """v7: a header-only BROADCAST names a retained seq; the decoder
        hands back that very array (no payload, no codec, no copy)."""
        retained = np.array([np.nan, -0.0, 1.5])
        blob = proto.encode_broadcast_alias(9, retained.size, 8)
        assert len(blob) == proto._BROADCAST_HEADER.size
        assert proto.broadcast_is_alias(blob)
        assert not proto.broadcast_is_alias(proto.encode_broadcast(9, retained))
        seq, back = proto.decode_broadcast(blob, baselines={8: retained})
        assert seq == 9 and back is retained

    def test_broadcast_alias_of_unknown_seq_names_retained_seqs(self):
        blob = proto.encode_broadcast_alias(9, 3, 8)
        with pytest.raises(proto.ProtocolError, match=r"retained .* \[5, 7\]"):
            proto.decode_broadcast(blob, baselines={7: np.zeros(3), 5: np.zeros(3)})
        with pytest.raises(proto.ProtocolError, match=r"retained .* \[\]"):
            proto.decode_broadcast(blob)  # nothing retained at all

    def test_broadcast_alias_must_be_header_only_and_size_consistent(self):
        retained = np.zeros(3)
        blob = proto.encode_broadcast_alias(9, 3, 8)
        with pytest.raises(proto.ProtocolError, match="carries a 2-byte payload"):
            proto.decode_broadcast(blob + b"xx", baselines={8: retained})
        wrong_size = proto.encode_broadcast_alias(9, 4, 8)
        with pytest.raises(proto.ProtocolError, match="claims 4"):
            proto.decode_broadcast(wrong_size, baselines={8: retained})
        with pytest.raises(proto.ProtocolError, match="truncated"):
            proto.broadcast_is_alias(blob[:-1])

    def test_corrupt_delta_payload_is_a_protocol_error(self):
        """Codec-level corruption surfaces as ProtocolError on both
        weight frames -- the only exception a frame handler catches."""
        baseline = np.linspace(-1, 1, 32)
        good = proto.encode_broadcast(
            6, baseline + 1e-9, codec="delta", baseline=baseline, baseline_seq=5
        )
        header = proto._BROADCAST_HEADER.size
        unknown_mode = bytearray(good)
        unknown_mode[header] = 9  # plane 0's mode byte
        for bad in (bytes(unknown_mode), good + b"\x00", good[:-1], good[: header + 7]):
            with pytest.raises(proto.ProtocolError, match="malformed BROADCAST"):
                proto.decode_broadcast(bad, baselines={5: baseline})
        update = proto.encode_update(
            5, 2, 30, None, baseline + 1e-9, codec="delta",
            baseline=baseline, baseline_seq=5,
        )
        with pytest.raises(proto.ProtocolError, match="malformed UPDATE"):
            proto.decode_update(
                update + b"\x00", baselines={5: baseline}, expected_size=32
            )

    def test_broadcast_unknown_codec_id_rejected(self):
        blob = bytearray(proto.encode_broadcast(1, np.zeros(2)))
        blob[12] = 200  # codec id byte of the !IQBI header
        with pytest.raises(proto.ProtocolError, match="unknown weight codec"):
            proto.decode_broadcast(bytes(blob))

    def test_broadcast_absurd_count_rejected_early(self):
        header = proto._BROADCAST_HEADER.pack(
            1, proto.MAX_WEIGHT_COUNT + 1, 1, 0
        )
        with pytest.raises(proto.ProtocolError, match="limit"):
            proto.decode_broadcast(header)

    def test_update_round_trip_carries_rng_state(self):
        rng = np.random.default_rng(3)
        rng.normal(size=10)  # advance so the state is non-trivial
        state = rng.bit_generator.state
        w = np.linspace(-1, 1, 17)
        payload = proto.encode_update(2, 11, 30, state, w)
        seq, cid, n, state_back, w_back = proto.decode_update(payload)
        assert (seq, cid, n) == (2, 11, 30)
        assert state_back == state
        assert w.tobytes() == w_back.tobytes()

    def test_update_delta_codec_round_trip_and_seq_peek(self):
        """v4: delta UPDATEs resolve against the broadcast they trained
        from (baseline_seq == seq); ``update_seq`` reads the header so a
        stale, undecodable frame can be identified without its baseline."""
        baseline = np.linspace(0, 1, 9)
        w = baseline * 1.0000001
        payload = proto.encode_update(
            4, 2, 30, None, w, codec="delta", baseline=baseline,
            baseline_seq=4,
        )
        assert proto.update_seq(payload) == 4
        seq, cid, n, state, back = proto.decode_update(
            payload, baselines={4: baseline}, expected_size=9
        )
        assert (seq, cid, n, state) == (4, 2, 30, None)
        assert back.tobytes() == w.tobytes()
        with pytest.raises(proto.ProtocolError, match="retained"):
            proto.decode_update(payload, baselines={}, expected_size=9)

    def test_update_non_raw_requires_expected_size(self):
        payload = proto.encode_update(
            1, 0, 5, None, np.zeros(4), codec="quantized"
        )
        with pytest.raises(proto.ProtocolError, match="expected weight count"):
            proto.decode_update(payload)
        _, _, _, _, back = proto.decode_update(payload, expected_size=4)
        assert back.size == 4

    def test_assign_round_trip_ships_clients_and_config(self):
        client = make_test_client(client_id=4, seed=1)
        cfg = TrainingConfig(lr=0.02)
        model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=0)
        sig = proto.model_signature(model)
        payload = proto.encode_assign({4: client}, cfg, sig, model=model)
        out = proto.decode_assign(payload)
        assert out["signature"] == sig
        assert out["training"] == cfg
        assert out["clients"][4].client_id == 4
        assert out["model"].num_params() == model.num_params()
        with pytest.raises(proto.ProtocolError):
            proto.decode_assign(b"not a pickle")

    def test_parse_endpoint(self):
        assert proto.parse_endpoint("127.0.0.1:0") == ("127.0.0.1", 0)
        assert proto.parse_endpoint("host.example:65535") == ("host.example", 65535)
        for bad in ("nohost", ":123", "h:notaport", "h:70000"):
            with pytest.raises(ValueError):
                proto.parse_endpoint(bad)


# ----------------------------------------------------------------------
# model signature
# ----------------------------------------------------------------------
class TestModelSignature:
    def test_same_architecture_same_signature(self):
        a = build_mlp((4, 4, 1), 3, hidden=(8,), rng=0)
        b = build_mlp((4, 4, 1), 3, hidden=(8,), rng=99)  # different weights
        assert proto.model_signature(a) == proto.model_signature(b)

    def test_different_architecture_different_signature(self):
        a = build_mlp((4, 4, 1), 3, hidden=(8,), rng=0)
        b = build_mlp((4, 4, 1), 3, hidden=(16,), rng=0)
        c = build_mlp((4, 4, 1), 4, hidden=(8,), rng=0)
        sigs = {proto.model_signature(m) for m in (a, b, c)}
        assert len(sigs) == 3


# ----------------------------------------------------------------------
# handshake rejection
# ----------------------------------------------------------------------
def _coordinator_pair():
    """A DistributedExecutor and a raw Connection posing as its peer."""
    ex = DistributedExecutor(workers=1)
    a, b = socket.socketpair()
    return ex, Connection(a), Connection(b)


class TestHandshakeRejection:
    def test_version_mismatch_is_rejected(self):
        ex, coord_side, worker_side = _coordinator_pair()
        worker_side.send(
            proto.MsgType.HELLO,
            proto.encode_hello(proto.PROTOCOL_VERSION + 1, 1, 123),
        )
        assert ex._handshake(coord_side) is None
        msg_type, payload = worker_side.recv(timeout=5.0)
        assert msg_type == proto.MsgType.REJECT
        assert "version mismatch" in proto.decode_reject(payload)
        worker_side.close()
        ex.close()

    def test_non_hello_first_frame_is_rejected(self):
        ex, coord_side, worker_side = _coordinator_pair()
        worker_side.send(proto.MsgType.PING)
        assert ex._handshake(coord_side) is None
        msg_type, payload = worker_side.recv(timeout=5.0)
        assert msg_type == proto.MsgType.REJECT
        worker_side.close()
        ex.close()

    def test_valid_hello_is_accepted(self):
        ex, coord_side, worker_side = _coordinator_pair()
        worker_side.send(
            proto.MsgType.HELLO,
            proto.encode_hello(proto.PROTOCOL_VERSION, 2, 77),
        )
        hello = ex._handshake(coord_side)
        assert hello is not None
        assert (hello["capacity"], hello["pid"]) == (2, 77)
        assert hello.get("resume") is None
        coord_side.close()
        worker_side.close()
        ex.close()

    def test_oversize_announcement_before_hello_is_refused_at_once(self):
        """The receiver allocates at the announcement, so a stranger's
        first header is held to the handshake cap, not to
        ``max_frame_payload``: a port scanner announcing 1 GiB gets
        REJECT + close immediately (not a reserved gigabyte and a 10 s
        wait for bytes that never come) and the registration window
        keeps accepting."""
        model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=7)
        ex = DistributedExecutor(workers=1, accept_timeout=30.0)
        ex.bind({0: make_test_client(client_id=0, seed=7)}, model, TrainingConfig())
        host, port = proto.parse_endpoint(ex.listen())
        # Queued in the listener's backlog ahead of the real worker.
        scanner = socket.create_connection((host, port), timeout=10.0)
        scanner.sendall(FRAME_HEADER.pack(1 << 30, proto.MsgType.HELLO))
        agent = threading.Thread(
            target=WorkerAgent(host, port, reconnect_grace=0.0).run, daemon=True
        )
        agent.start()
        try:
            t0 = time.monotonic()
            ex._ensure_started()
            assert time.monotonic() - t0 < 8.0, "the scanner stalled registration"
            assert ex.num_workers_started == 1
            with Connection(scanner) as conn:
                msg_type, payload = conn.recv(timeout=5.0)
                assert msg_type == proto.MsgType.REJECT
                assert (
                    f"{proto.HANDSHAKE_MAX_PAYLOAD}-byte frame limit"
                    in proto.decode_reject(payload)
                )
                with pytest.raises(ConnectionClosed):
                    conn.recv(timeout=5.0)
            # Registered, so the worker's connection left the handshake cap.
            assert ex._handles[0].conn.max_payload == MAX_FRAME_PAYLOAD
        finally:
            ex.close()
            agent.join(timeout=10.0)
        assert not agent.is_alive()

    def test_worker_holds_the_reply_to_the_handshake_cap(self):
        """The same cap on the dialling side: whatever answers HELLO with
        an oversize announcement is not a coordinator."""
        a, b = socket.socketpair()
        agent = WorkerAgent("127.0.0.1", 1, connect_timeout=5.0)
        with b, Connection(a, max_payload=proto.HANDSHAKE_MAX_PAYLOAD) as conn:
            b.sendall(FRAME_HEADER.pack(1 << 30, proto.MsgType.WELCOME))
            assert agent._handshake(conn) == EXIT_PROTOCOL_ERROR

    def test_worker_raises_the_cap_once_welcomed(self):
        a, b = socket.socketpair()
        agent = WorkerAgent(
            "127.0.0.1", 1, connect_timeout=5.0, max_frame_payload=1 << 22
        )
        conn = Connection(a, max_payload=proto.HANDSHAKE_MAX_PAYLOAD)
        with conn, Connection(b) as coordinator:
            coordinator.send(
                proto.MsgType.WELCOME,
                proto.encode_welcome(proto.PROTOCOL_VERSION, 0, "sig", 163, "token"),
            )
            assert agent._handshake(conn) is None
            assert conn.max_payload == 1 << 22
            assert coordinator.recv(timeout=5.0)[0] == proto.MsgType.HELLO

    def test_worker_refuses_signature_mismatch(self):
        agent = WorkerAgent("127.0.0.1", 1, capacity=1)
        model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=0)
        agent._expected_signature = proto.model_signature(model)
        # Signature string that does not match the handshake commitment.
        with pytest.raises(proto.ProtocolError, match="does not match"):
            agent._verify_assignment(model, "deadbeef" * 8)
        # Shipped model whose architecture differs from the commitment.
        other = build_mlp((4, 4, 1), 3, hidden=(16,), rng=0)
        with pytest.raises(proto.ProtocolError, match="promised"):
            agent._verify_assignment(other, agent._expected_signature)
        # The matching pair passes.
        agent._verify_assignment(model, agent._expected_signature)
