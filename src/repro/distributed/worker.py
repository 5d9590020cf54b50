"""The worker side: a standalone agent process that trains pinned clients.

Launched as ``python -m repro.cli worker --connect HOST:PORT`` on any
machine that can reach the coordinator.  The agent owns no configuration
of its own -- everything (clients, model shell, training hyperparameters)
arrives over the wire, so a fleet of identical agents can serve any
federation.

Determinism mirrors :func:`repro.execution.process._worker_main` because
both run the same worker ops (:func:`repro.execution.pool.train_client`,
:func:`repro.execution.base.evaluate_holdouts`,
:func:`repro.execution.base.count_correct`): each TRAIN message builds
one optimizer factory for the round, clients train sequentially in
dispatch order inside the single workspace model, and every UPDATE ships
the client's advanced training-RNG state back so the coordinator's pool
remains the single source of truth.

A dedicated reader thread answers PING with PONG even while a long
local pass is running, so a busy worker is never mistaken for a dead
one; only a killed or genuinely hung process trips the coordinator's
heartbeat limit.

Reconnect-and-resume (v4): a worker that loses its TCP connection keeps
its state (clients, workspace, resident eval data) and re-dials the
coordinator, presenting its ``worker_id`` + ``session_token`` in the
HELLO's ``resume`` field.  Within the coordinator's grace window the
session resumes -- the coordinator replays authoritative client RNG
state via a fresh ASSIGN and re-dispatches the in-flight round's
outstanding jobs -- so a transient network blip costs a retransmit, not
a permanent retirement.  A REJECTed resume (grace expired, token
mismatch) exits with :data:`EXIT_REJECTED`, the v3 behaviour.

Weight transport is codec-pluggable (v4): broadcasts decode through the
codec named in their header (delta frames resolve against the retained
BROADCAST cache), and UPDATEs are encoded with ``TrainingConfig.codec``
-- for ``delta``, against the broadcast the client just trained from,
which both peers hold by construction.  A header-only *alias* BROADCAST
(v7) names a retained seq instead of carrying weights: the retained
vector is filed under the new seq too, with no codec call at all.

Telemetry (v5): the agent keeps plain always-on counters (requests
served, codec encode/decode seconds, busy seconds, reconnects) -- not
the in-process telemetry registry, which belongs to the coordinator's
process -- and ships them back as one compact TELEMETRY frame after
SHUTDOWN, before BYE.  Log lines go through
:func:`repro.telemetry.log.stream_logger`, so every line carries a
timestamp and the session token that ties it to one coordinator
incarnation.
"""

from __future__ import annotations

import os
import queue as queue_mod
import socket
import sys
import threading
import time
import traceback
from collections import OrderedDict
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.codec import get_codec
from repro.config import TrainingConfig
from repro.distributed import protocol as proto
from repro.distributed.transport import Connection, ConnectionClosed, FrameError
from repro.execution.base import count_correct, evaluate_holdouts
from repro.execution.pool import train_client
from repro.nn.model import Sequential
from repro.serialization import shard_from_bytes
from repro.simcluster.population import PopulationStore, ShardClients
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
        Relative share of clients this worker should be pinned
        (advertised in the handshake; a capacity-2 worker owns roughly
        twice the clients of a capacity-1 worker).
    connect_timeout / retry_interval:
        The agent retries the initial TCP connect until
        ``connect_timeout`` elapses, so workers may be launched slightly
        before the coordinator listens.
    reconnect_grace:
        How long (seconds) to keep re-dialling the coordinator after an
        established connection drops, presenting the session token for a
        resume.  ``0`` disables reconnection (a lost connection exits
        immediately, the pre-v4 behaviour).  The coordinator enforces
        its own grace window; a worker that outlives it is REJECTed.
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
        retry_interval: float = 0.2,
        reconnect_grace: float = 30.0,
        max_frame_payload: Optional[int] = None,
        log=None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if reconnect_grace < 0:
            raise ValueError(
                f"reconnect_grace must be >= 0, got {reconnect_grace}"
            )
        self.host = host
        self.port = int(port)
        self.capacity = int(capacity)
        self.connect_timeout = float(connect_timeout)
        self.retry_interval = float(retry_interval)
        self.reconnect_grace = float(reconnect_grace)
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
            "reconnects": 0,
            "codec_encode_s": 0.0,
            "codec_decode_s": 0.0,
            "busy_s": 0.0,
        }

        self.worker_id: Optional[int] = None
        self._session_token: Optional[str] = None
        self._expected_signature: Optional[str] = None
        self._expected_num_params: Optional[int] = None
        # Eager federations ship pickled clients into a plain dict;
        # population-scale ones ship column slices rebuilt into a
        # ShardClients mapping (one mode per session, never mixed).
        self._clients: Union[Dict[int, object], ShardClients] = {}
        self._workspace: Optional[Sequential] = None
        self._training: Optional[TrainingConfig] = None
        # seq -> weights, the last BROADCAST_RETAIN of them.  Doubles as
        # the baseline cache for decoding delta broadcasts and encoding
        # delta updates (v4).
        self._broadcasts: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._eval_data: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def _log(self, msg: str) -> None:
        wid = "?" if self.worker_id is None else self.worker_id
        token = self._session_token[:8] if self._session_token else "-"
        self._logger.info("[worker %s session=%s] %s", wid, token, msg)

    # ------------------------------------------------------------------
    # connection + handshake
    # ------------------------------------------------------------------
    def _connect(self, timeout: Optional[float] = None) -> Connection:
        window = self.connect_timeout if timeout is None else timeout
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
                time.sleep(self.retry_interval)
        raise ConnectionError(
            f"could not reach coordinator at {self.host}:{self.port} within "
            f"{window:.0f}s: {last_err}"
        )

    def _handshake(self, conn: Connection, resume: bool = False) -> Optional[int]:
        """HELLO/WELCOME exchange; returns an exit code on failure.

        With ``resume=True`` the HELLO carries this agent's prior
        ``worker_id`` + session token, asking the coordinator to resume
        the session instead of registering a fresh worker.
        """
        resume_info = None
        if resume:
            assert self.worker_id is not None and self._session_token is not None
            resume_info = (self.worker_id, self._session_token)
        conn.send(
            proto.MsgType.HELLO,
            proto.encode_hello(
                proto.PROTOCOL_VERSION, self.capacity, os.getpid(),
                resume=resume_info,
            ),
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
        if resume and welcome["worker_id"] != self.worker_id:
            self._log(
                f"coordinator resumed the wrong session (worker "
                f"{welcome['worker_id']}, expected {self.worker_id})"
            )
            return EXIT_PROTOCOL_ERROR
        self.worker_id = welcome["worker_id"]
        self._session_token = welcome["session_token"] or None
        self._expected_signature = welcome["model_signature"]
        self._expected_num_params = welcome["num_params"]
        conn.max_payload = self.max_frame_payload  # handshake done
        if resume:
            self._stats["reconnects"] += 1
            self._log("session resumed with coordinator")
        else:
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

    def _handle_assign(self, payload: bytes) -> None:
        assignment = proto.decode_assign(payload)
        model = assignment["model"]
        self._verify_assignment(model, assignment["signature"])
        if model is not None:
            self._workspace = model
        if self._workspace is None:
            raise proto.ProtocolError(
                "received a model-less ASSIGN before the model shell arrived"
            )
        self._training = assignment["training"]
        if isinstance(self._clients, ShardClients):
            raise proto.ProtocolError(
                "eager ASSIGN after ASSIGN_SHARD on the same session"
            )
        self._clients.update(assignment["clients"])
        self._log(
            f"assigned {len(assignment['clients'])} client(s); "
            f"now own {sorted(self._clients)}"
        )

    def _handle_assign_shard(self, payload: bytes) -> None:
        """Rebuild a population store shard from its column slice (v6).

        The slice arrives once at pin time (and again only for re-deals
        after a peer's loss); clients materialise lazily under this
        worker's own bounded LRU, so memory stays O(shard) and the
        per-round frames keep referencing client ids only.
        """
        assignment = proto.decode_assign_shard(payload)
        model = assignment["model"]
        self._verify_assignment(model, assignment["signature"])
        if model is not None:
            self._workspace = model
        if self._workspace is None:
            raise proto.ProtocolError(
                "received a model-less ASSIGN_SHARD before the model "
                "shell arrived"
            )
        self._training = assignment["training"]
        if not isinstance(self._clients, ShardClients):
            if self._clients:
                raise proto.ProtocolError(
                    "ASSIGN_SHARD after eager ASSIGN on the same session"
                )
            self._clients = ShardClients()
        try:
            shard = shard_from_bytes(assignment["shard"])
        except Exception as exc:
            raise proto.ProtocolError(
                f"malformed ASSIGN_SHARD column slice: {exc}"
            ) from exc
        store = self._clients.add(PopulationStore.from_columns(shard))
        self._stats["shards_received"] += 1
        ids = store.client_ids
        self._log(
            f"assigned store shard of {store.num_clients} client(s) "
            f"[{int(ids[0])}..{int(ids[-1])}]; now own "
            f"{len(self._clients)} across "
            f"{len(self._clients.stores)} shard(s)"
        )

    def _store_broadcast(self, payload: bytes) -> None:
        # The retained broadcasts double as the delta-codec baseline
        # cache and as what an alias frame resolves against; a
        # re-broadcast of a seq (post-resume raw resync) moves it to the
        # young end, exactly as the coordinator's mirror does.
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
        known to be servable: weights retained, ASSIGN seen, clients owned."""
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
                f"{what} for clients {unknown} this worker does not own"
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
        seq, round_idx, jobs = proto.decode_train(payload)
        global_flat = self._weights_for(seq, "TRAIN", [cid for cid, _ in jobs])
        factory = self._training.optimizer_factory(round_idx)
        # Updates travel through the configured codec; for delta the
        # baseline is the broadcast this cohort trains from -- both
        # peers hold it by construction, first round included.
        codec = get_codec(self._training.codec)
        baseline = global_flat if codec.requires_baseline else None
        baseline_seq = seq if codec.requires_baseline else 0
        self._stats["train_requests"] += 1
        for client_id, epochs in jobs:
            try:
                w, num_samples, state = train_client(
                    self._clients[client_id],
                    self._workspace,
                    global_flat,
                    factory,
                    self._training,
                    epochs,
                )
                t0 = time.perf_counter()
                frame = proto.encode_update(
                    seq, client_id, num_samples, state, w,
                    codec=codec, baseline=baseline,
                    baseline_seq=baseline_seq,
                )
                self._stats["codec_encode_s"] += time.perf_counter() - t0
                self._stats["clients_trained"] += 1
                conn.send(proto.MsgType.UPDATE, frame)
            except Exception:
                # Per-client guard mirrors the process backend: a plain
                # training failure is reported and the worker lives on;
                # KeyboardInterrupt/SystemExit deliberately propagate.
                conn.send(
                    proto.MsgType.TRAINFAIL,
                    proto.encode_trainfail(seq, client_id, traceback.format_exc()),
                )

    def _handle_eval(self, conn: Connection, payload: bytes) -> None:
        """Evaluate owned clients' holdouts against the matching BROADCAST."""
        seq, client_ids = proto.decode_eval(payload)
        global_flat = self._weights_for(seq, "EVAL", client_ids)
        self._stats["eval_requests"] += 1
        # One weight load per EVAL frame; the wire stays one EVAL_RESULT
        # frame per client (v7), sent once the whole share is scored.
        accs, failures = evaluate_holdouts(self._workspace, self._clients, client_ids, global_flat)
        for client_id in client_ids:
            conn.send(
                proto.MsgType.EVAL_RESULT,
                proto.encode_eval_result(
                    seq, client_id, accs.get(client_id), failures.get(client_id)
                ),
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
        error = None
        try:
            counts = count_correct(self._workspace, x, y, shards, eval_flat)
        except Exception:
            counts, error = [None] * len(shards), traceback.format_exc()
        for (a, b), correct in zip(shards, counts):
            conn.send(
                proto.MsgType.EVAL_MODEL_RESULT,
                proto.encode_eval_model_result(seq, a, b, correct, error),
            )

    # ------------------------------------------------------------------
    # telemetry summary
    # ------------------------------------------------------------------
    @staticmethod
    def _name_keyed(by_type: Dict[int, int]) -> Dict[str, int]:
        """Re-key a per-frame-type tally from type bytes to frame names."""
        out: Dict[str, int] = {}
        for key, value in by_type.items():
            try:
                name = proto.MsgType(key).name
            except ValueError:
                name = str(key)
            out[name] = value
        return out

    def _telemetry_summary(self, conn: Connection) -> Dict[str, object]:
        """The compact per-worker summary shipped on the TELEMETRY frame.

        Flat-ish JSON: plain request/time counters plus this
        connection's per-frame-type wire tallies (keyed by frame name so
        the report stays readable without a MsgType table at hand).
        """
        summary: Dict[str, object] = dict(self._stats)
        summary["pid"] = os.getpid()
        summary["frames_sent"] = self._name_keyed(conn.frames_sent)
        summary["frames_received"] = self._name_keyed(conn.frames_received)
        summary["bytes_sent"] = self._name_keyed(conn.bytes_sent_by_type)
        summary["bytes_received"] = self._name_keyed(
            conn.bytes_received_by_type
        )
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

        A dropped connection is retried with a resume handshake within
        ``reconnect_grace`` seconds (state -- clients, workspace,
        resident eval data, retained broadcasts -- survives in this
        process); anything the coordinator REJECTs, or a window that
        closes without reaching it, ends the agent.
        """
        resume_deadline: Optional[float] = None
        while True:
            if resume_deadline is None:
                window = self.connect_timeout
            else:
                window = resume_deadline - time.monotonic()
                if window <= 0:
                    self._log(
                        f"reconnect window of {self.reconnect_grace:.0f}s "
                        "closed without reaching the coordinator"
                    )
                    return EXIT_CONNECTION_LOST
            try:
                conn = self._connect(timeout=window)
            except ConnectionError as exc:
                self._log(str(exc))
                return EXIT_CONNECTION_LOST
            code: Optional[int] = None
            try:
                code = self._handshake(conn, resume=resume_deadline is not None)
                if code is None:
                    resume_deadline = None  # session (re-)established
                    code = self._serve(conn)
            except (ConnectionClosed, OSError) as exc:
                self._log(f"connection error: {exc}")
                code = None
            finally:
                conn.close()
            if code is not None:
                return code
            if self.reconnect_grace <= 0 or self._session_token is None:
                self._log("coordinator connection lost")
                return EXIT_CONNECTION_LOST
            if resume_deadline is None:
                resume_deadline = time.monotonic() + self.reconnect_grace
                self._log(
                    f"coordinator connection lost; attempting resume for up "
                    f"to {self.reconnect_grace:.0f}s"
                )

    def _serve(self, conn: Connection) -> Optional[int]:
        """Serve one connection; ``None`` means the connection was lost
        (the caller decides whether to resume), an int is a final exit
        code."""
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
