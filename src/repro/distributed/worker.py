"""The worker side: a standalone agent process that serves any client.

Launched as ``python -m repro.cli worker --connect HOST:PORT`` on any
machine that can reach the coordinator, or forked by the ``process``
pool onto one end of a socketpair (:mod:`repro.distributed.launch`).
The agent owns no configuration of its own -- everything (clients,
model shell, training hyperparameters) arrives over the wire, so a
fleet of identical agents can serve any federation.

Every agent holds the whole population (one ASSIGN_SHARD, or ASSIGN for
a hand-built dict pool), so the coordinator may deal it any client.  A
TRAIN frame is served by :func:`repro.execution.pool.serve_train` (one
optimizer factory for the round, clients trained in dispatch order
inside the single workspace model, each from the RNG state its job
carries), an EVAL frame by :func:`repro.execution.base.evaluate_holdouts`
(answered by one EVAL_RESULT) and an EVAL_MODEL frame by
:func:`repro.execution.pool.count_shards`.  Every UPDATE ships the
client's advanced training-RNG state back so the coordinator's ledger
remains the single source of truth.

A dedicated reader thread answers PING with PONG even while a long
local pass is running, so a busy worker is never mistaken for a dead
one; only a killed or genuinely hung process trips the coordinator's
heartbeat limit.

Rejoin (v10): every session starts from nothing -- the store is
rebuilt from the session's ASSIGN_SHARD, and the retained broadcasts,
the ``origins`` and the eval set belong to the session.  A worker whose
session drops dials the coordinator again and registers as a new worker
(the coordinator has re-dealt the old session's jobs, which carry their
clients' RNG states).  A REJECT, at the handshake or mid-session (a
protocol violation the coordinator refused), ends the agent with
:data:`EXIT_REJECTED` instead.

Weight transport is codec-pluggable (v4): broadcasts decode through the
codec named in their header (delta frames resolve against the retained
BROADCAST cache), and UPDATEs are encoded with ``TrainingConfig.codec``
-- for ``delta``, against the broadcast the client just trained from,
which both peers hold by construction.  A header-only *alias* BROADCAST
(v7) names a retained seq instead of carrying weights: the retained
vector is filed under the new seq too, with no codec call at all.

Telemetry (v5): the agent keeps plain always-on counters (requests
served, codec encode/decode seconds, busy seconds, rejoins) -- not
the in-process telemetry registry, which belongs to the coordinator's
process -- and ships them back as one compact TELEMETRY frame after
SHUTDOWN, before BYE.  Log lines go through
:func:`repro.telemetry.log.stream_logger`, so every line carries a
timestamp and the worker id of its session.
"""

from __future__ import annotations

import os
import queue as queue_mod
import socket
import sys
import threading
import time
from collections import OrderedDict
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.codec import get_codec
from repro.config import TrainingConfig
from repro.distributed import protocol as proto
from repro.distributed.transport import Connection, ConnectionClosed, FrameError
from repro.execution.base import evaluate_holdouts
from repro.execution.pool import count_shards, serve_train
from repro.nn.model import Sequential
from repro.serialization import shard_from_bytes
from repro.simcluster.population import PopulationStore
from repro.telemetry.log import stream_logger

__all__ = ["WorkerAgent"]

#: How many BROADCASTs a worker retains, keyed by seq.  The coordinator
#: has one batch in flight, so the newest entry is the live one; the
#: slack keeps an abandoned (timed-out) batch's weights resolvable for a
#: worker still serving it, absorbs redispatch races, and keeps delta
#: baselines and alias targets resolvable without unbounded memory.  The
#: coordinator mirrors this constant for its per-worker baseline caches;
#: the two retention policies must match or delta frames could name an
#: evicted baseline.
BROADCAST_RETAIN = 8

#: Seconds between two attempts to reach the coordinator.
RETRY_INTERVAL = 0.2

#: Worker process exit codes (asserted by the test-suite).
EXIT_OK = 0
EXIT_CONNECTION_LOST = 1
EXIT_REJECTED = 2
EXIT_PROTOCOL_ERROR = 3


class WorkerAgent:
    """One distributed training agent.

    Parameters
    ----------
    host / port:
        Coordinator endpoint to connect to.
    capacity:
        Relative share of each batch's cost this worker should be dealt
        (advertised in the handshake; a capacity-2 worker takes about
        twice the work of a capacity-1 worker).
    connect_timeout:
        The agent retries the TCP connect every :data:`RETRY_INTERVAL`
        seconds until ``connect_timeout`` elapses: at start, so workers
        may be launched slightly before the coordinator listens, and
        after a session drops, to rejoin.
    max_frame_payload:
        Optional cap on incoming frame payloads (see
        :mod:`repro.distributed.transport`), in force once WELCOME has
        arrived; the handshake reply itself is held to
        :data:`~repro.distributed.protocol.HANDSHAKE_MAX_PAYLOAD`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        capacity: int = 1,
        connect_timeout: float = 30.0,
        max_frame_payload: Optional[int] = None,
        log=None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.host = host
        self.port = int(port)
        self.capacity = int(capacity)
        self.connect_timeout = float(connect_timeout)
        self.max_frame_payload = max_frame_payload
        self._log_stream = log if log is not None else sys.stderr
        self._logger = stream_logger(
            "repro.distributed.worker", self._log_stream
        )
        # Plain Python counters, deliberately not the telemetry registry:
        # the agent is its own process, so registry state here would be
        # invisible to the coordinator.  Shipped once as a TELEMETRY
        # frame (after SHUTDOWN, before BYE) and folded into the
        # coordinator's per-worker summaries.
        self._stats: Dict[str, float] = {
            "train_requests": 0,
            "clients_trained": 0,
            "eval_requests": 0,
            "eval_model_requests": 0,
            "broadcasts_received": 0,
            "broadcast_aliases": 0,
            "shards_received": 0,
            "rejoins": 0,
            "codec_encode_s": 0.0,
            "codec_decode_s": 0.0,
            "busy_s": 0.0,
        }

        self._new_session()

    def _new_session(self) -> None:
        """Forget everything a session learnt: the next one starts from
        nothing, whatever the last one held."""
        self.worker_id: Optional[int] = None
        self._expected_signature: Optional[str] = None
        self._expected_num_params: Optional[int] = None
        # The population, assigned once a session: a plain dict of
        # pickled clients (ASSIGN) or a store rebuilt from its columns
        # (ASSIGN_SHARD).
        self._clients: Optional[Mapping[int, object]] = None
        # Client id -> its train-RNG position as this session first found
        # it, for jobs whose client the ledger has no position for yet
        # (see repro.execution.pool.serve_train).
        self._origins: Dict[int, dict] = {}
        self._workspace: Optional[Sequential] = None
        self._training: Optional[TrainingConfig] = None
        # seq -> weights, the last BROADCAST_RETAIN of them.  Doubles as
        # the baseline cache for decoding delta broadcasts and encoding
        # delta updates (v4).
        self._broadcasts: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._eval_data: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def _log(self, msg: str) -> None:
        wid = "?" if self.worker_id is None else self.worker_id
        self._logger.info("[worker %s] %s", wid, msg)

    # ------------------------------------------------------------------
    # connection + handshake
    # ------------------------------------------------------------------
    def _connect(self) -> Connection:
        window = self.connect_timeout
        deadline = time.monotonic() + window
        last_err: Optional[Exception] = None
        while time.monotonic() < deadline:
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=window
                )
                sock.settimeout(None)
                return Connection(sock, max_payload=proto.HANDSHAKE_MAX_PAYLOAD)
            except OSError as exc:
                last_err = exc
                time.sleep(RETRY_INTERVAL)
        raise ConnectionError(
            f"could not reach coordinator at {self.host}:{self.port} within "
            f"{window:.0f}s: {last_err}"
        )

    def _handshake(self, conn: Connection) -> Optional[int]:
        """HELLO/WELCOME exchange; returns an exit code on failure."""
        conn.send(
            proto.MsgType.HELLO,
            proto.encode_hello(proto.PROTOCOL_VERSION, self.capacity, os.getpid()),
        )
        try:
            msg_type, payload = conn.recv(timeout=self.connect_timeout)
        except FrameError as exc:
            # Whatever listens there does not speak the protocol.
            self._log(f"handshake reply is not a protocol frame: {exc}")
            return EXIT_PROTOCOL_ERROR
        if msg_type == proto.MsgType.REJECT:
            self._log(f"rejected by coordinator: {proto.decode_reject(payload)}")
            return EXIT_REJECTED
        if msg_type != proto.MsgType.WELCOME:
            self._log(f"expected WELCOME, got message type {msg_type}")
            return EXIT_PROTOCOL_ERROR
        welcome = proto.decode_welcome(payload)
        if welcome["version"] != proto.PROTOCOL_VERSION:
            self._log(
                f"coordinator speaks protocol {welcome['version']}, "
                f"this worker speaks {proto.PROTOCOL_VERSION}"
            )
            return EXIT_PROTOCOL_ERROR
        self.worker_id = welcome["worker_id"]
        self._expected_signature = welcome["model_signature"]
        self._expected_num_params = welcome["num_params"]
        conn.max_payload = self.max_frame_payload  # handshake done
        self._log(
            f"registered with coordinator (capacity {self.capacity}, "
            f"model {self._expected_signature[:12]}..., "
            f"{self._expected_num_params} params)"
        )
        return None

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------
    def _verify_assignment(self, model: Optional[Sequential], signature: str) -> None:
        """Refuse to train on an architecture the handshake did not promise."""
        if signature != self._expected_signature:
            raise proto.ProtocolError(
                f"ASSIGN signature {signature[:12]}... does not match the "
                f"handshake signature {str(self._expected_signature)[:12]}..."
            )
        if model is not None:
            actual = proto.model_signature(model)
            if actual != self._expected_signature:
                raise proto.ProtocolError(
                    f"shipped model has signature {actual[:12]}... but the "
                    f"handshake promised {str(self._expected_signature)[:12]}..."
                )

    def _take_assignment(
        self, assignment: Dict[str, object], clients: Mapping[int, object]
    ) -> None:
        """Adopt the population, the model shell and the training config:
        once per session, after the handshake promised the model."""
        model = assignment["model"]
        self._verify_assignment(model, assignment["signature"])
        if self._clients is not None:
            raise proto.ProtocolError("a second assignment on one session")
        if model is None:
            raise proto.ProtocolError("an assignment without the model shell")
        self._workspace = model
        self._training = assignment["training"]
        self._clients = clients

    def _handle_assign(self, payload: bytes) -> None:
        assignment = proto.decode_assign(payload)
        self._take_assignment(assignment, assignment["clients"])
        self._log(f"assigned {len(self._clients)} client(s)")

    def _handle_assign_shard(self, payload: bytes) -> None:
        """Rebuild the population store from its columns (v6): clients
        materialise lazily under this worker's own bounded LRU, and the
        per-round frames reference client ids only."""
        assignment = proto.decode_assign_shard(payload)
        try:
            shard = shard_from_bytes(assignment["shard"])
        except Exception as exc:
            raise proto.ProtocolError(
                f"malformed ASSIGN_SHARD column slice: {exc}"
            ) from exc
        self._take_assignment(assignment, PopulationStore.from_columns(shard))
        self._stats["shards_received"] += 1
        self._log(f"assigned a store of {len(self._clients)} client(s)")

    def _store_broadcast(self, payload: bytes) -> None:
        # The retained broadcasts double as the delta-codec baseline
        # cache and as what an alias frame resolves against; a
        # re-broadcast of a seq moves it to the young end, exactly as
        # the coordinator's mirror does.
        alias = proto.broadcast_is_alias(payload)
        t0 = time.perf_counter()
        seq, weights = proto.decode_broadcast(payload, baselines=self._broadcasts)
        if alias:
            # No codec ran: the retained vector now serves both seqs.
            self._stats["broadcast_aliases"] += 1
        else:
            self._stats["codec_decode_s"] += time.perf_counter() - t0
            # Retained vectors are shared between seqs and read by every
            # later delta decode/encode: never written.
            weights.setflags(write=False)
        self._stats["broadcasts_received"] += 1
        self._broadcasts[seq] = weights
        self._broadcasts.move_to_end(seq)
        while len(self._broadcasts) > BROADCAST_RETAIN:
            self._broadcasts.popitem(last=False)

    def _weights_for(self, seq: int, what: str, client_ids=()):
        """The BROADCAST weights a work order references, once the order is
        known to be servable: weights retained, ASSIGN seen, clients held."""
        if seq not in self._broadcasts:
            have = sorted(self._broadcasts)
            raise proto.ProtocolError(
                f"{what} for seq {seq} but the retained BROADCASTs are {have}"
            )
        if self._workspace is None:  # ASSIGN sets it together with _training
            raise proto.ProtocolError(f"{what} before ASSIGN")
        unknown = [cid for cid in client_ids if cid not in self._clients]
        if unknown:
            raise proto.ProtocolError(
                f"{what} for clients {unknown} this worker does not hold"
            )
        return self._broadcasts[seq]

    def _handle_bind_eval(self, payload: bytes) -> None:
        """Receive the ship-once server-held eval set (v3)."""
        x, y = proto.decode_bind_eval(payload)
        self._eval_data = (x, y)
        self._log(
            f"eval dataset resident: {int(x.shape[0])} samples "
            f"({x.nbytes + np.asarray(y).nbytes} bytes, shipped once)"
        )

    def _handle_train(self, conn: Connection, payload: bytes) -> None:
        seq, round_idx, jobs, rng = proto.decode_train(payload)
        global_flat = self._weights_for(seq, "TRAIN", [cid for cid, _ in jobs])
        states = dict(rng)
        # Updates travel through the configured codec; for delta the
        # baseline is the broadcast this cohort trains from -- both
        # peers hold it by construction, first round included.
        codec = get_codec(self._training.codec)
        baseline = global_flat if codec.requires_baseline else None
        baseline_seq = seq if codec.requires_baseline else 0
        self._stats["train_requests"] += 1

        def reply(client_id, w, num_samples, state) -> None:
            t0 = time.perf_counter()
            frame = proto.encode_update(
                seq, client_id, num_samples, state, w,
                codec=codec, baseline=baseline, baseline_seq=baseline_seq,
            )
            self._stats["codec_encode_s"] += time.perf_counter() - t0
            self._stats["clients_trained"] += 1
            conn.send(proto.MsgType.UPDATE, frame)

        def fail(client_id, tb) -> None:
            conn.send(proto.MsgType.TRAINFAIL, proto.encode_trainfail(seq, client_id, tb))

        serve_train(
            self._clients, self._workspace, global_flat, self._training, round_idx,
            [(cid, epochs, states.get(cid)) for cid, epochs in jobs], reply, fail, self._origins,
        )

    def _handle_eval(self, conn: Connection, payload: bytes) -> None:
        """Evaluate the listed clients' holdouts against the matching BROADCAST."""
        seq, client_ids = proto.decode_eval(payload)
        global_flat = self._weights_for(seq, "EVAL", client_ids)
        self._stats["eval_requests"] += 1
        # One weight load per EVAL frame and one EVAL_RESULT frame back
        # (v8), sent once the whole share is scored.
        accs, failures = evaluate_holdouts(self._workspace, self._clients, client_ids, global_flat)
        accuracies = [accs.get(c) for c in client_ids]
        errors = [failures.get(c) for c in client_ids]
        conn.send(
            proto.MsgType.EVAL_RESULT,
            proto.encode_eval_result(seq, client_ids, accuracies, errors),
        )

    def _handle_eval_model(self, conn: Connection, payload: bytes) -> None:
        """Count correct predictions over shards of the resident eval set."""
        seq, shards = proto.decode_eval_model(payload)
        eval_flat = self._weights_for(seq, "EVAL_MODEL")
        if self._eval_data is None:
            raise proto.ProtocolError("EVAL_MODEL before BIND_EVAL")
        x, y = self._eval_data
        n = int(x.shape[0])
        self._stats["eval_model_requests"] += 1
        for a, b in shards:
            if b > n:
                raise proto.ProtocolError(
                    f"EVAL_MODEL shard [{a}, {b}) exceeds the resident "
                    f"eval set of {n} samples"
                )
        # One weight load per EVAL_MODEL frame, one result frame per shard
        # (a failure fails the frame's shards together).
        for (a, b), correct, error in count_shards(self._workspace, x, y, shards, eval_flat):
            conn.send(
                proto.MsgType.EVAL_MODEL_RESULT,
                proto.encode_eval_model_result(seq, a, b, correct, error),
            )

    # ------------------------------------------------------------------
    # telemetry summary
    # ------------------------------------------------------------------
    def _telemetry_summary(self, conn: Connection) -> Dict[str, object]:
        """The compact per-worker summary shipped on the TELEMETRY frame.

        Flat-ish JSON: plain request/time counters plus this
        connection's per-frame-type wire tallies (keyed by frame name so
        the report stays readable without a MsgType table at hand).
        """
        summary: Dict[str, object] = dict(self._stats)
        summary["pid"] = os.getpid()
        for key, by_type in (
            ("frames_sent", conn.frames_sent),
            ("frames_received", conn.frames_received),
            ("bytes_sent", conn.bytes_sent_by_type),
            ("bytes_received", conn.bytes_received_by_type),
        ):
            summary[key] = {proto.frame_name(t): n for t, n in by_type.items()}
        return summary

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def _reader(self, conn: Connection, inbox: "queue_mod.Queue") -> None:
        """Receive loop: PONG immediately, queue everything else."""
        while True:
            try:
                msg_type, payload = conn.recv()
            except (ConnectionClosed, OSError, FrameError):
                # FrameError included: a corrupt stream must surface as a
                # lost connection, not strand the main loop on inbox.get().
                inbox.put((None, None))
                return
            if msg_type == proto.MsgType.PING:
                try:
                    conn.send(proto.MsgType.PONG)
                except OSError:
                    inbox.put((None, None))
                    return
                continue
            inbox.put((msg_type, payload))
            if msg_type == proto.MsgType.SHUTDOWN:
                return

    def run(self) -> int:
        """Connect, register, and serve until shutdown; returns exit code.

        A welcomed session whose connection drops ends, and the agent
        dials again (for up to ``connect_timeout``) to register as a new
        worker from a clean session.  A connection lost before WELCOME, a
        REJECT, a protocol error or a dial window that closes ends the
        agent.
        """
        while True:
            try:
                conn = self._connect()
            except ConnectionError as exc:
                self._log(str(exc))
                return EXIT_CONNECTION_LOST
            self._new_session()
            try:
                code = self._handshake(conn)
                if code is None:
                    code = self._serve(conn)
            except (ConnectionClosed, OSError) as exc:
                self._log(f"connection error: {exc}")
                code = None
            finally:
                conn.close()
            if code is not None:
                return code
            if self.worker_id is None:
                self._log("coordinator connection lost before registration")
                return EXIT_CONNECTION_LOST
            self._stats["rejoins"] += 1
            self._log("coordinator connection lost; dialling again to rejoin")

    def _serve(self, conn: Connection) -> Optional[int]:
        """Serve one session; ``None`` means the connection was lost (the
        caller dials again), an int is a final exit code."""
        inbox: "queue_mod.Queue" = queue_mod.Queue()
        reader = threading.Thread(
            target=self._reader, args=(conn, inbox), daemon=True,
            name="repro-dist-worker-reader",
        )
        reader.start()
        while True:
            msg_type, payload = inbox.get()
            if msg_type is None:
                return None
            if msg_type == proto.MsgType.SHUTDOWN:
                # v5 contract: TELEMETRY exactly once, after SHUTDOWN and
                # before BYE, so the coordinator's wait-for-BYE in
                # close() collects it with no extra round trip.
                conn.send(
                    proto.MsgType.TELEMETRY,
                    proto.encode_telemetry(
                        self.worker_id or 0, self._telemetry_summary(conn)
                    ),
                )
                conn.send(proto.MsgType.BYE)
                self._log("shutdown requested; exiting cleanly")
                return EXIT_OK
            t0 = time.perf_counter()
            try:
                if msg_type == proto.MsgType.ASSIGN:
                    self._handle_assign(payload)
                elif msg_type == proto.MsgType.ASSIGN_SHARD:
                    self._handle_assign_shard(payload)
                elif msg_type == proto.MsgType.BROADCAST:
                    self._store_broadcast(payload)
                elif msg_type == proto.MsgType.TRAIN:
                    self._handle_train(conn, payload)
                elif msg_type == proto.MsgType.EVAL:
                    self._handle_eval(conn, payload)
                elif msg_type == proto.MsgType.BIND_EVAL:
                    self._handle_bind_eval(payload)
                elif msg_type == proto.MsgType.EVAL_MODEL:
                    self._handle_eval_model(conn, payload)
                elif msg_type == proto.MsgType.REJECT:
                    # The coordinator refused this worker (a protocol
                    # violation): dialling back would repeat it.
                    self._log(f"refused by coordinator: {proto.decode_reject(payload)}")
                    return EXIT_REJECTED
                else:
                    raise proto.ProtocolError(
                        f"unexpected message type {msg_type}"
                    )
            except proto.ProtocolError as exc:
                self._log(f"protocol error: {exc}")
                try:
                    conn.send(proto.MsgType.REJECT, proto.encode_reject(str(exc)))
                except OSError:
                    pass
                return EXIT_PROTOCOL_ERROR
            self._stats["busy_s"] += time.perf_counter() - t0
