"""The coordinator side: a :class:`ClientExecutor` over TCP workers.

:class:`DistributedExecutor` satisfies the PR 1 execution contract
(:mod:`repro.execution.base`) with worker *processes on other machines*:

* **Registration.**  :meth:`listen` binds the endpoint; the executor
  then waits (lazily, on the first cohort) until ``workers`` agents have
  completed the versioned handshake.  Each worker advertises a
  ``capacity`` used as its weight when clients are pinned.
* **Pinning.**  The sorted client-id list is dealt round-robin over a
  capacity-weighted worker cycle by :func:`repro.execution.pool.deal`
  -- the function the ``process`` backend pins with, so every client's
  training RNG stream advances in exactly one address space.  Cohorts,
  eval shards and a dead worker's jobs are bucketed per owner by
  :func:`repro.execution.pool.group_by_owner`.
* **Rounds.**  The global flat weight vector reaches each participating
  worker once per round -- encoded once and fanned out, or not sent at
  all when the worker already holds it (see below); jobs are
  dispatched per worker;
  updates stream back in completion order and are reordered into
  request order before the server sees them.  Every update carries the
  client's advanced RNG state, which
  :func:`repro.execution.pool.absorb_rng_state` applies to the
  coordinator's authoritative client pool immediately.
* **One collector, one queue.**  A training cohort, an evaluation
  cohort and a sharded model evaluation each open an :class:`_InFlight`
  batch and drive it with :meth:`DistributedExecutor._collect`, the one
  event loop; only the result handler differs.  The executor has one
  batch in flight, so the per-worker reader threads post every result
  frame and every loss / resume / ``BYE`` / ``REJECT`` event once, onto
  the one event queue that loop drains.
* **Codec-pluggable weight transport (v4).**  BROADCAST and UPDATE
  payloads travel through the :mod:`repro.codec` codec named by
  ``TrainingConfig.codec``: ``raw`` (bit-exact float64, the default),
  ``delta`` (lossless ULP-delta against the last broadcast the worker
  retains -- the coordinator mirrors each worker's retained-BROADCAST
  cache per connection, so encoder and decoder always agree on the
  baseline).  When no shared
  baseline exists -- first broadcast on a connection, or right after a
  reconnect -- the coordinator falls back to ``raw`` for that frame;
  the codec id in the header keeps every frame self-describing.
* **Encode once, alias when resident (v7).**  Each cohort seq holds one
  read-only copy of its weight vector, shared by every per-worker
  mirror.  A BROADCAST frame is encoded once per ``(seq, codec,
  baseline_seq)`` and the same bytes go to every worker whose mirror
  names that baseline; a worker whose mirror lags (it sat out a round)
  gets its own encode.  When the vector is bit-identical to the newest
  one a worker retains -- the training broadcast that follows a global
  evaluation of the same weights -- the coordinator sends a header-only
  *alias* frame instead, for any codec: no payload, no codec call on
  either side.  The always-on ``wire.broadcast_encodes`` /
  ``wire.broadcast_frames_reused`` / ``wire.broadcast_aliases``
  counters say which path each broadcast took.
* **Population sharding (v6).**  When the bound pool is a
  :class:`~repro.simcluster.population.PopulationStore` (every pool a
  server binds), pinning ships each worker an ASSIGN_SHARD *column
  slice*
  (:func:`repro.serialization.shard_to_bytes`: numpy buffers +
  ``SeedAddress`` coordinates + authoritative RNG snapshots -- never
  pickled ``SimClient`` graphs) instead of a pickled client dict.
  Workers rebuild a local store shard and materialise clients lazily
  under their own bounded LRU; the coordinator absorbs every UPDATE's
  shipped-back RNG state into the store's ledger without materialising
  the client, so neither side ever holds O(population) objects and the
  steady-state wire cost is O(cohort).
* **Worker loss.**  A dead worker (EOF, send failure, or heartbeat
  silence) has its pinned clients re-dealt over the survivors and
  re-shipped *with their current RNG state*; its unfinished jobs for the
  in-flight round are re-dispatched.  Because a client's state only
  advances when its UPDATE has been merged, replayed work is bit-identical
  to the serial schedule -- the worker-kill equivalence test in
  ``tests/distributed`` enforces this.  Retire-and-re-pin is idempotent
  and serialised by a lock against a resume arriving on the accept
  thread, so a death observed twice never double-ships.
* **Reconnect-and-resume (v4).**  With ``reconnect_grace > 0`` a lost
  *connection* is not a lost worker: the handle is parked in a ``lost``
  state and the worker may re-dial within the grace window, presenting
  the session token issued in its WELCOME.  On a valid resume the
  coordinator re-pins the worker's clients by re-shipping them with the
  authoritative RNG state (an ASSIGN), re-ships the resident eval set,
  clears the delta-baseline mirror (the next broadcast is a raw
  resync), and wakes any in-flight collector to re-dispatch the
  worker's outstanding jobs -- including any whose result was read off
  the old connection but not merged before the re-ship was built (the
  collector drops those).  A window that expires -- or an unknown /
  mismatched token -- falls back to the retire path above, exactly the
  pre-v4 behaviour.  ``reconnect_grace=0`` (default) disables parking.
* **Liveness.**  The coordinator PINGs quiet workers while waiting;
  workers answer PONG from a dedicated thread even mid-training, so
  only a truly hung or killed process trips the heartbeat limit.
* **Telemetry (v5).**  When :mod:`repro.telemetry` is enabled the
  coordinator records cohort spans (``executor.train_cohort`` etc. with
  ``backend="distributed"``), codec encode/decode histograms, heartbeat
  round-trip times, and worker lifecycle counters
  (``distributed.worker_lost/resumed/retired``).  Per-frame-type wire
  tallies come free from :class:`~repro.distributed.transport.Connection`
  and are folded into ``wire.*`` counters at :meth:`close`; each worker
  additionally ships a compact summary on the v5 TELEMETRY frame
  (between SHUTDOWN and BYE), exposed via :attr:`worker_summaries` and
  turned into ``distributed.worker.busy_s`` gauges.  All of it is
  observational: with telemetry disabled no extra clock reads or
  branches touch the dispatch path.
* **Resident eval set (v3).**  The server-held eval set ships once per
  worker (BIND_EVAL), after which
  :meth:`DistributedExecutor.evaluate_model` shards across workers on
  the same 256-sample boundaries as the process backend -- bit-exact.
"""

from __future__ import annotations

import queue as queue_mod
import secrets
import socket
import threading
import time
from collections import OrderedDict
from operator import itemgetter
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro import telemetry
from repro.codec import get_codec
from repro.distributed import protocol as proto
from repro.distributed.transport import Connection, ConnectionClosed, FrameError
from repro.distributed.worker import BROADCAST_RETAIN
from repro.execution.base import (
    ClientExecutor,
    EvalRequest,
    ExecutorError,
    TrainRequest,
    order_updates,
)
from repro.execution.pool import absorb_rng_state, deal, group_by_owner, owned_by
from repro.serialization import shard_to_bytes
from repro.simcluster.client import ClientUpdate
from repro.simcluster.population import PopulationStore

__all__ = ["DistributedExecutor"]

#: A train job is ``(client_id, epochs)``, an eval job a client id, an
#: eval-model job a ``(start, end)`` shard.
_Job = Hashable

#: Synthetic event-queue marker: a parked worker's connection resumed
#: (cannot collide with ``MsgType`` values, which are >= 1, or with
#: ``None``, which marks a lost connection).
_EVT_RESUMED = -1

#: The result frames that may settle a job of each :class:`_InFlight`
#: kind; any other result frame carrying the live seq is a protocol
#: violation by its sender.
_RESULT_FRAMES = {
    "train": (proto.MsgType.UPDATE, proto.MsgType.TRAINFAIL),
    "eval": (proto.MsgType.EVAL_RESULT,),
    "eval_model": (proto.MsgType.EVAL_MODEL_RESULT,),
}
_RESULT_TYPES = frozenset(t for types in _RESULT_FRAMES.values() for t in types)


class _WorkerHandle:
    """Coordinator-side bookkeeping for one registered worker.

    ``state`` walks ``up -> (lost -> up)* -> retired``: ``lost`` parks a
    dropped connection for the reconnect grace window, ``retired`` is
    final.  ``gen`` counts connections (bumped per resume) so events
    from a stale reader thread can be told from live ones.
    ``baselines`` mirrors the worker's retained-BROADCAST cache for the
    *current* connection -- what a delta frame may name as its baseline
    and what an alias frame may name at all -- and is cleared on every
    resume (the worker is resynced raw).  Its values are the per-seq
    read-only vectors of :class:`_InFlight`, shared across workers.
    """

    def __init__(
        self, worker_id: int, conn: Connection, capacity: int, pid: int
    ) -> None:
        self.id = worker_id
        self.conn = conn
        self.capacity = capacity
        self.pid = pid
        self.state = "up"  # "up" | "lost" | "retired"
        self.gen = 0
        self.lost_at: Optional[float] = None
        self.token = secrets.token_hex(16)
        self.last_seen = time.monotonic()
        self.reader: Optional[threading.Thread] = None
        #: When the last unanswered PING left (monotonic); the PONG turns
        #: it into one ``distributed.heartbeat_rtt_s`` observation.
        self.ping_sent_at: Optional[float] = None
        #: The worker's TELEMETRY summary (arrives during shutdown).
        self.summary: Optional[Dict[str, object]] = None
        # Serialises baseline-cache mutation with the frame send that
        # must agree with it (a resume on the accept thread swaps the
        # connection and clears the cache).
        self.lock = threading.Lock()
        self.baselines: "OrderedDict[int, np.ndarray]" = OrderedDict()

    @property
    def alive(self) -> bool:
        return self.state == "up"


class _InFlight:
    """One collector's in-flight batch (a training cohort, an eval
    cohort, or a sharded model evaluation).

    ``pending`` maps worker id -> outstanding jobs; ``broadcasted``
    tracks who already received this seq's weights; ``dispatch_gen``
    records the connection generation each worker's jobs were last sent
    on, so a resume re-dispatches exactly when the jobs were sent to a
    connection that no longer exists.

    ``weights`` is this seq's one immutable copy of the vector: every
    worker's baseline mirror and every encode read the same array.
    ``frames`` caches the encoded BROADCAST per ``(codec_id,
    baseline_seq)``; a seq names one vector, so the key identifies the
    bytes, and a resumed worker's empty mirror selects ``(raw, 0)`` --
    the raw resync can never be served a stale delta frame.

    ``done`` holds the keys already merged -- a client id, or an eval
    shard's ``(start, end)`` -- which :meth:`settle` dedupes through.
    """

    def __init__(
        self, seq: int, round_idx: int, weights: np.ndarray, kind: str
    ) -> None:
        self.seq = seq
        self.round_idx = round_idx
        self.weights = np.array(weights, dtype=np.float64, order="C")
        self.weights.setflags(write=False)
        self.frames: Dict[Tuple[int, int], bytes] = {}
        self.kind = kind  # "train" | "eval" | "eval_model"
        self.pending: Dict[int, List[_Job]] = {}
        self.broadcasted: Set[int] = set()
        self.dispatch_gen: Dict[int, int] = {}
        self.done: Set[Hashable] = set()

    def key_of(self, job: _Job) -> Hashable:
        """What a result names a job by: its client, else the job itself."""
        return job[0] if self.kind == "train" else job

    def outstanding(self) -> int:
        return sum(len(jobs) for jobs in self.pending.values())

    def settle(self, key: Hashable) -> bool:
        """Record the result for ``key``; ``True`` when it is the first.

        Clears the job from *every* worker's pending list: a dead
        worker's in-flight result can land after its job was already
        reassigned, and the replica's copy must not keep the batch open.
        A second result for the same key is a duplicate from such a
        reassignment race -- both workers computed from the same pinned
        state, so the copies are bit-identical -- and only the first is
        merged.
        """
        for wid, jobs in self.pending.items():
            self.pending[wid] = [j for j in jobs if self.key_of(j) != key]
        if key in self.done:
            return False
        self.done.add(key)
        return True


class DistributedExecutor(ClientExecutor):
    """Train cohorts across worker agents connected over TCP.

    Parameters
    ----------
    workers:
        How many worker agents must register before the first cohort runs.
    endpoint:
        ``"host:port"`` to listen on; port ``0`` picks an ephemeral port
        (read the bound address back from :attr:`endpoint` after
        :meth:`listen`).
    accept_timeout:
        Seconds to wait for all workers to register.
    result_timeout:
        Per-cohort ceiling on waiting for results: a *wall-clock
        deadline* for the whole batch, fixed when it is dispatched, so a
        cohort still making progress when it passes fails.
        (``ProcessExecutor.result_timeout`` instead counts only
        accumulated idle poll time.)
    heartbeat_interval / heartbeat_misses:
        A worker silent for ``interval`` seconds is PINGed; silent for
        ``interval * misses`` seconds it is declared dead and its clients
        are reassigned.
    reconnect_grace:
        Seconds a worker whose TCP connection dropped may take to
        reconnect-and-resume (see the module docstring) before it is
        retired and its clients reassigned.  ``0`` (default) retires on
        the first loss, the pre-v4 behaviour.
    max_frame_payload:
        Optional cap on incoming frame payloads (rejects corrupt length
        headers early; see :mod:`repro.distributed.transport`).  It
        applies once a peer has been welcomed; until then a connection
        accepts :data:`~repro.distributed.protocol.HANDSHAKE_MAX_PAYLOAD`.
    """

    name = "distributed"

    def __init__(
        self,
        workers: int = 2,
        endpoint: Optional[str] = None,
        accept_timeout: float = 60.0,
        result_timeout: float = 600.0,
        heartbeat_interval: float = 2.0,
        heartbeat_misses: int = 5,
        reconnect_grace: float = 0.0,
        max_frame_payload: Optional[int] = None,
    ) -> None:
        super().__init__()
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if accept_timeout <= 0 or result_timeout <= 0:
            raise ValueError("accept_timeout and result_timeout must be positive")
        if heartbeat_interval <= 0 or heartbeat_misses < 1:
            raise ValueError("heartbeat_interval/misses must be positive")
        if reconnect_grace < 0:
            raise ValueError(
                f"reconnect_grace must be >= 0, got {reconnect_grace}"
            )
        self.workers = int(workers)
        self._requested_endpoint = endpoint or "127.0.0.1:0"
        proto.parse_endpoint(self._requested_endpoint)  # validate early
        self.accept_timeout = float(accept_timeout)
        self.result_timeout = float(result_timeout)
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_misses = int(heartbeat_misses)
        self.reconnect_grace = float(reconnect_grace)
        self.max_frame_payload = max_frame_payload

        self._listener: Optional[socket.socket] = None
        self._bound_endpoint: Optional[str] = None
        self._handles: Dict[int, _WorkerHandle] = {}
        self._owner: Dict[int, int] = {}  # client_id -> worker_id
        # Every result frame and every loss/resume event, from every
        # reader thread: ``(worker_id, gen, msg_type, payload)``, ``gen``
        # being the connection generation the event was observed on.
        self._events: "queue_mod.Queue[Tuple[int, int, Optional[int], object]]" = (
            queue_mod.Queue()
        )
        self._seq = 0
        self._assigned = False
        self._signature: Optional[str] = None
        self._num_params = 0
        self._closed_bytes_sent = 0
        self._closed_bytes_received = 0
        # Per-frame-type tallies folded from closed connections, keyed
        # by the type byte (live connections are summed on read).
        self._closed_frames_sent: Dict[int, int] = {}
        self._closed_frames_received: Dict[int, int] = {}
        self._closed_bytes_sent_by_type: Dict[int, int] = {}
        self._closed_bytes_received_by_type: Dict[int, int] = {}
        # worker_id -> the summary its TELEMETRY frame carried.
        self._worker_summaries: Dict[int, Dict[str, object]] = {}
        self._eval_shipped = False
        # How each BROADCAST left: a fresh encode, a cached frame fanned
        # out again, or a header-only alias.  Always on (plain ints).
        self._broadcast_stats = {"encodes": 0, "frames_reused": 0, "aliases": 0}
        self._accept_thread: Optional[threading.Thread] = None
        # Serialises retire-and-re-pin and resume; RLock because a failed
        # re-ship recurses onto the next survivor.
        self._death_lock = threading.RLock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def listen(self) -> str:
        """Bind and listen on the endpoint; returns the bound ``host:port``.

        Idempotent.  Call this *before* launching workers when using an
        ephemeral port (``:0``) so they have a real address to connect to.
        """
        if self._closed:
            raise ExecutorError("distributed executor used after close()")
        if self._listener is None:
            host, port = proto.parse_endpoint(self._requested_endpoint)
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, port))
            sock.listen(max(self.workers, 8))
            self._listener = sock
            bound_host, bound_port = sock.getsockname()[:2]
            self._bound_endpoint = f"{bound_host}:{bound_port}"
        return self._bound_endpoint  # type: ignore[return-value]

    @property
    def endpoint(self) -> Optional[str]:
        """The bound ``host:port`` (``None`` before :meth:`listen`)."""
        return self._bound_endpoint

    def _started(self) -> bool:
        return self._assigned

    @property
    def num_workers_started(self) -> int:
        return sum(1 for h in self._handles.values() if h.alive)

    def owner_of(self, client_id: int) -> int:
        """Worker id a client is currently pinned to."""
        if not self._assigned:
            raise ExecutorError("executor not started yet")
        return self._owner[client_id]

    def worker_pid(self, worker_id: int) -> int:
        """OS pid the worker advertised at registration (for tooling/tests)."""
        return self._handles[worker_id].pid

    # ------------------------------------------------------------------
    # byte accounting (closed connections' totals + every live one's)
    # ------------------------------------------------------------------
    @property
    def bytes_sent(self) -> int:
        return self._closed_bytes_sent + sum(
            h.conn.bytes_sent for h in self._handles.values() if h.alive
        )

    @property
    def bytes_received(self) -> int:
        return self._closed_bytes_received + sum(
            h.conn.bytes_received for h in self._handles.values() if h.alive
        )

    def _by_type(self, closed: Dict[int, int], attr: str) -> Dict[int, int]:
        """Closed-connection tallies plus every live connection's."""
        total = dict(closed)
        for h in self._handles.values():
            if h.alive:
                for key, value in getattr(h.conn, attr).items():
                    total[key] = total.get(key, 0) + value
        return total

    @property
    def frames_sent_by_type(self) -> Dict[int, int]:
        return self._by_type(self._closed_frames_sent, "frames_sent")

    @property
    def frames_received_by_type(self) -> Dict[int, int]:
        return self._by_type(self._closed_frames_received, "frames_received")

    @property
    def bytes_sent_by_type(self) -> Dict[int, int]:
        return self._by_type(
            self._closed_bytes_sent_by_type, "bytes_sent_by_type"
        )

    @property
    def bytes_received_by_type(self) -> Dict[int, int]:
        return self._by_type(
            self._closed_bytes_received_by_type, "bytes_received_by_type"
        )

    @property
    def broadcast_stats(self) -> Dict[str, int]:
        """BROADCASTs by how they left: ``encodes`` (a codec ran),
        ``frames_reused`` (a cached frame fanned out to another worker),
        ``aliases`` (header-only, the worker already held the vector)."""
        return dict(self._broadcast_stats)

    @property
    def worker_summaries(self) -> Dict[int, Dict[str, object]]:
        """Per-worker TELEMETRY summaries (populated during close())."""
        return dict(self._worker_summaries)

    # ------------------------------------------------------------------
    # registration + resume handshakes
    # ------------------------------------------------------------------
    def _handshake(self, conn: Connection) -> Optional[Dict[str, object]]:
        """Run the coordinator side of the handshake on a new connection.

        Returns the decoded HELLO (version-checked) on success; on any
        mismatch sends ``REJECT``, closes the connection and returns
        ``None``.  The caller decides whether the HELLO registers a
        fresh worker or resumes a parked one (its ``resume`` key).
        """
        try:
            msg_type, payload = conn.recv(timeout=10.0)
            if msg_type != proto.MsgType.HELLO:
                conn.send(
                    proto.MsgType.REJECT,
                    proto.encode_reject(f"expected HELLO, got type {msg_type}"),
                )
                conn.close()
                return None
            hello = proto.decode_hello(payload)
        except (
            proto.ProtocolError,
            ConnectionClosed,
            FrameError,
            OSError,
            socket.timeout,
        ) as exc:
            # FrameError included: a non-protocol peer (port scanner,
            # stray HTTP probe) announces a garbage frame length; it
            # must be rejected here, not allowed to kill the accept
            # thread and silently disable reconnect-and-resume.
            try:
                conn.send(proto.MsgType.REJECT, proto.encode_reject(str(exc)))
            except OSError:
                pass
            conn.close()
            return None
        if hello["version"] != proto.PROTOCOL_VERSION:
            try:
                # Name BOTH peer versions so the operator reading either
                # side's log knows exactly which binary to upgrade; the
                # worker logs this reason before exiting.
                conn.send(
                    proto.MsgType.REJECT,
                    proto.encode_reject(
                        f"protocol version mismatch: worker speaks "
                        f"v{hello['version']}, coordinator requires "
                        f"v{proto.PROTOCOL_VERSION}"
                    ),
                )
            except OSError:
                pass
            conn.close()
            return None
        return hello

    def _welcome(self, conn: Connection, handle: _WorkerHandle) -> None:
        """Send WELCOME: the handshake has succeeded, so the connection
        leaves the pre-handshake frame cap for ``max_frame_payload``."""
        conn.send(
            proto.MsgType.WELCOME,
            proto.encode_welcome(
                proto.PROTOCOL_VERSION, handle.id, self._signature,
                self._num_params, handle.token,
            ),
        )
        conn.max_payload = self.max_frame_payload

    def _reject(self, conn: Connection, reason: str) -> None:
        try:
            conn.send(proto.MsgType.REJECT, proto.encode_reject(reason))
        except OSError:
            pass
        conn.close()

    def _accept_workers(self) -> None:
        """Block until ``self.workers`` agents have registered."""
        assert self._listener is not None
        deadline = time.monotonic() + self.accept_timeout
        while len(self._handles) < self.workers:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ExecutorError(
                    f"only {len(self._handles)}/{self.workers} workers "
                    f"registered within {self.accept_timeout:.0f}s"
                )
            self._listener.settimeout(min(remaining, 1.0))
            try:
                sock, _addr = self._listener.accept()
            except socket.timeout:
                continue
            conn = Connection(sock, max_payload=proto.HANDSHAKE_MAX_PAYLOAD)
            hello = self._handshake(conn)
            if hello is None:
                continue
            if hello.get("resume") is not None:
                self._reject(conn, "no session to resume: registration is open")
                continue
            wid = len(self._handles)
            handle = _WorkerHandle(wid, conn, hello["capacity"], hello["pid"])
            try:
                self._welcome(conn, handle)
            except OSError:
                # Peer vanished between HELLO and WELCOME: skip it and
                # keep accepting -- one flaky connection must not abort
                # the whole registration window.
                conn.close()
                continue
            self._handles[wid] = handle

    def _accept_loop(self) -> None:
        """Post-registration accept thread: resume handshakes only.

        Runs until :meth:`close`.  Fresh registrations are refused (the
        client pinning is fixed for the federation's lifetime); a HELLO
        with a valid ``resume`` token revives a parked worker.
        """
        listener = self._listener
        assert listener is not None
        while not self._closed:
            listener.settimeout(1.0)
            try:
                sock, _addr = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed under us: shutting down
            conn = Connection(sock, max_payload=proto.HANDSHAKE_MAX_PAYLOAD)
            hello = self._handshake(conn)
            if hello is None:
                continue
            resume = hello.get("resume")
            if resume is None:
                self._reject(
                    conn,
                    "federation already running: clients are pinned, new "
                    "workers cannot join mid-run",
                )
                continue
            self._try_resume(conn, resume)  # type: ignore[arg-type]

    def _try_resume(self, conn: Connection, resume: Mapping[str, object]) -> None:
        """Resume a parked worker on a fresh connection (or refuse).

        Under ``_death_lock`` so it can never interleave with a
        retire-and-reassign observing the same worker.  On success the
        worker's clients are re-shipped with the coordinator's
        authoritative RNG state (the replay that keeps a re-trained job
        bit-identical), the resident eval set is re-shipped, the delta
        baseline mirror is cleared (next broadcast resyncs raw) and a
        resume event wakes the collector to re-dispatch outstanding
        jobs.
        """
        wid = int(resume["worker_id"])  # type: ignore[arg-type]
        token = str(resume["token"])
        if self.reconnect_grace <= 0:
            # Pre-v4 semantics on request: a lost connection is a lost
            # worker, full stop -- even one that re-dials instantly.
            self._reject(
                conn,
                f"worker {wid} cannot resume: this coordinator runs with "
                "reconnect_grace=0 (resume disabled)",
            )
            return
        with self._death_lock:
            handle = self._handles.get(wid)
            if handle is None or handle.state == "retired":
                self._reject(
                    conn,
                    f"worker {wid} cannot resume: unknown or already retired "
                    "(grace window expired?)",
                )
                return
            if not secrets.compare_digest(token, handle.token):
                self._reject(conn, f"worker {wid} resume token mismatch")
                return
            if (
                handle.state == "lost"
                and handle.lost_at is not None
                and time.monotonic() - handle.lost_at > self.reconnect_grace
            ):
                # Expired but not yet observed by a collector: refuse the
                # resume; the next collector pass retires and reassigns.
                self._reject(
                    conn,
                    f"worker {wid} reconnect grace of "
                    f"{self.reconnect_grace:.0f}s expired",
                )
                return
            if handle.state == "up":
                # The worker noticed the drop before we did: the old
                # connection is a zombie.  Fold and replace it; stale
                # events from its reader are gen-filtered.
                self._fold_and_close(handle)
            try:
                self._welcome(conn, handle)
                # RNG replay: the coordinator pool/store ledger is
                # authoritative (synced on every merged UPDATE), so this
                # overwrites whatever half-trained state the worker kept.
                self._send_assignment(conn, owned_by(self._owner, wid))
                if self._eval_shipped and self._eval_data is not None:
                    conn.send(
                        proto.MsgType.BIND_EVAL,
                        proto.encode_bind_eval(*self._eval_data),
                    )
            except OSError:
                conn.close()
                if handle.state == "up":
                    handle.state = "lost"
                    handle.lost_at = time.monotonic()
                return
            with handle.lock:
                handle.conn = conn
                handle.baselines.clear()
            handle.state = "up"
            handle.lost_at = None
            handle.gen += 1
            handle.last_seen = time.monotonic()
            handle.reader = threading.Thread(
                target=self._reader, args=(handle, handle.gen), daemon=True,
                name=f"repro-dist-reader-{wid}.{handle.gen}",
            )
            handle.reader.start()
        telemetry.count("distributed.worker_resumed", 1)
        self._events.put((wid, handle.gen, _EVT_RESUMED, None))

    def _worker_cycle(self, worker_ids: Sequence[int]) -> List[int]:
        """Capacity-weighted deal cycle (a capacity-2 worker appears twice)."""
        cycle: List[int] = []
        for wid in worker_ids:
            cycle.extend([wid] * self._handles[wid].capacity)
        return cycle

    # ------------------------------------------------------------------
    # assignment shipping: client pickles or store shards (v6)
    # ------------------------------------------------------------------
    def _send_assignment(
        self,
        conn: Connection,
        owned_ids: Sequence[int],
        model=None,
        redeal: bool = False,
    ) -> None:
        """Ship ownership of ``owned_ids`` over ``conn``.

        A population store ships one compact ASSIGN_SHARD column slice
        (O(shard) bytes, no ``SimClient`` pickles); hand-built dict
        pools keep the pickled-dict ASSIGN.  ``redeal=True`` marks
        re-ships triggered by a peer's retirement, counted separately so
        ``cli report`` distinguishes steady-state pinning from churn.  The shard's
        ``rng_states`` come straight from the store ledger, which every
        merged UPDATE keeps authoritative -- the property that makes a
        re-dealt slice replay bit-identically.
        """
        if isinstance(self._clients, PopulationStore):
            blob = shard_to_bytes(self._clients.shard(owned_ids))
            telemetry.count("wire.shard_ships", 1)
            telemetry.count("wire.shard_bytes", len(blob))
            if redeal:
                telemetry.count("wire.shard_redeals", 1)
            conn.send(
                proto.MsgType.ASSIGN_SHARD,
                proto.encode_assign_shard(
                    blob, self._training, self._signature, model=model
                ),
            )
        else:
            owned = {cid: self._clients[cid] for cid in owned_ids}
            conn.send(
                proto.MsgType.ASSIGN,
                proto.encode_assign(
                    owned, self._training, self._signature, model=model
                ),
            )

    def bind_eval_data(self, x, y) -> None:
        """Ship the server-held eval set to every worker, exactly once.

        Before the workers register, the set is staged and travels as one
        BIND_EVAL frame per worker right after ASSIGN; bound afterwards,
        it ships immediately.  Re-binding the same arrays is a no-op;
        re-binding different data after the shipment is an error (the
        ship-once invariant -- workers hold exactly one resident copy;
        the only re-send is the replay to a resumed worker, which
        restores that same copy).
        """
        if self._bound_eval_data_matches(x, y):
            return
        if self._eval_shipped:
            raise ExecutorError(
                "distributed executor already shipped an eval set to its "
                "workers; create a fresh executor to bind different data"
            )
        super().bind_eval_data(x, y)
        if self._assigned:
            self._ship_eval_data()

    def _ship_eval_data(self) -> None:
        assert self._eval_data is not None
        blob = proto.encode_bind_eval(*self._eval_data)
        for wid in self._live_ids():
            try:
                self._handles[wid].conn.send(proto.MsgType.BIND_EVAL, blob)
            except OSError:
                # The worker is dying; the death event surfaces through
                # the collector.  Survivors still hold the data.
                pass
        self._eval_shipped = True

    def _ensure_started(self) -> None:
        if self._assigned:
            return
        clients = self._require_bound()
        self._signature = proto.model_signature(self._model)
        self._num_params = self._model.num_params()
        self.listen()
        self._accept_workers()

        ids = sorted(clients)
        self._owner = deal(ids, self._worker_cycle(sorted(self._handles)))
        owned_ids = group_by_owner(ids, self._owner)
        eval_blob = (
            proto.encode_bind_eval(*self._eval_data)
            if self._eval_data is not None
            else None
        )
        for wid, handle in sorted(self._handles.items()):
            self._send_assignment(
                handle.conn, owned_ids.get(wid, []), model=self._model
            )
            if eval_blob is not None:
                handle.conn.send(proto.MsgType.BIND_EVAL, eval_blob)
            handle.reader = threading.Thread(
                target=self._reader, args=(handle, handle.gen), daemon=True,
                name=f"repro-dist-reader-{wid}",
            )
            handle.reader.start()
        if eval_blob is not None:
            self._eval_shipped = True
        # Keep accepting after registration closes: resumes arrive here.
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True, name="repro-dist-accept"
        )
        self._accept_thread.start()
        self._assigned = True

    def _reader(self, handle: _WorkerHandle, gen: int) -> None:
        """Per-connection receive loop posting frames to the event queue.

        Every result frame and every death-class event (EOF, REJECT,
        BYE) is posted exactly once, tagged with this connection's
        ``gen``: a stale reader (superseded by a resume) can never park
        the replacement connection, nor have a result merged that the
        resume's re-ship did not account for (see :meth:`_collect`).
        """
        conn = handle.conn
        while True:
            try:
                msg_type, payload = conn.recv()
            except (ConnectionClosed, OSError, FrameError):
                # A corrupt stream (FrameError) is as dead as a closed one:
                # report the loss so the round reassigns, never hang.
                self._events.put((handle.id, gen, None, None))
                return
            handle.last_seen = time.monotonic()
            if msg_type == proto.MsgType.PONG:
                sent_at = handle.ping_sent_at
                if sent_at is not None:
                    handle.ping_sent_at = None
                    telemetry.observe(
                        "distributed.heartbeat_rtt_s",
                        time.monotonic() - sent_at,
                        worker=handle.id,
                    )
                continue
            if msg_type == proto.MsgType.TELEMETRY:
                try:
                    wid, summary = proto.decode_telemetry(payload)
                except proto.ProtocolError:
                    continue  # observability only: never fail a shutdown
                handle.summary = summary
                self._worker_summaries[wid] = summary
                continue
            self._events.put((handle.id, gen, msg_type, payload))
            if msg_type == proto.MsgType.BYE:
                return

    # ------------------------------------------------------------------
    # worker-loss handling
    # ------------------------------------------------------------------
    def _live_ids(self) -> List[int]:
        return sorted(wid for wid, h in self._handles.items() if h.alive)

    def _reassign_candidates(self) -> List[int]:
        """Worker ids eligible to inherit clients or shards.

        Workers that are ``up``; when none are, workers parked ``lost``
        whose reconnect grace window is still open -- a run whose only
        survivors are mid-blip must wait for a resume (or the window's
        expiry), not abort.  Jobs pinned to a lost candidate simply stay
        pending: dispatching to it fails and parks, and its resume both
        re-ships every owned client and re-dispatches the pending jobs.
        Empty means the federation is truly out of workers.
        """
        up = self._live_ids()
        if up:
            return up
        now = time.monotonic()
        return sorted(
            wid
            for wid, h in self._handles.items()
            if h.state == "lost"
            and h.lost_at is not None
            and now - h.lost_at <= self.reconnect_grace
        )

    def _fold_and_close(self, handle: _WorkerHandle) -> None:
        """Fold a connection's byte counters into the totals and close it."""
        conn = handle.conn
        self._closed_bytes_sent += conn.bytes_sent
        self._closed_bytes_received += conn.bytes_received
        for closed, live in (
            (self._closed_frames_sent, conn.frames_sent),
            (self._closed_frames_received, conn.frames_received),
            (self._closed_bytes_sent_by_type, conn.bytes_sent_by_type),
            (
                self._closed_bytes_received_by_type,
                conn.bytes_received_by_type,
            ),
        ):
            for key, value in live.items():
                closed[key] = closed.get(key, 0) + value
        conn.close()

    def _retire(self, wid: int) -> None:
        handle = self._handles[wid]
        if handle.state == "retired":
            return
        if handle.state == "up":
            self._fold_and_close(handle)
        handle.state = "retired"

    def _grace_lost(self, wid: int, gen: object = None) -> bool:
        """Absorb a connection loss into the grace window.

        Covers both reader loss-events (which carry the connection
        ``gen``) and send failures (``gen=None`` -- a broken pipe on
        dispatch is the same drop seen from the other side).  Returns
        ``True`` when the loss needs no action from the collector
        (stale event, already parked/retired, or just parked now) --
        the caller leaves the worker's jobs pending for the resume or
        the grace expiry; ``False`` when the collector must
        retire-and-reassign (grace disabled).
        """
        with self._death_lock:
            handle = self._handles.get(wid)
            if handle is None:
                return True
            if handle.state == "retired":
                # Already retired (a protocol violation, say, whose
                # connection close then surfaces here), but the batch
                # may still hold pending jobs for it: let the death
                # handler run (retire is idempotent, and it
                # redistributes the outstanding work).
                return False
            if isinstance(gen, int) and gen != handle.gen:
                return True  # stale reader of a superseded connection
            if handle.state == "lost":
                return True  # already parked; the window is ticking
            if self.reconnect_grace <= 0:
                return False
            self._fold_and_close(handle)
            handle.state = "lost"
            handle.lost_at = time.monotonic()
            telemetry.count("distributed.worker_lost", 1)
            return True

    def _retire_and_reassign(self, wid: int, reason: str) -> None:
        """Retire ``wid``, re-pin and re-ship its clients (idempotent).

        The coordinator pool's RNG states are authoritative (synced on
        every merged UPDATE), so re-shipping a client replays exactly the
        stream position the serial schedule would be at.  Serialised by
        ``_death_lock`` against a resume on the accept thread; a death
        observed twice makes the second call a no-op, and every
        owner-map mutation happens under the lock.  Raises when no
        survivors remain.
        """
        with self._death_lock:
            handle = self._handles.get(wid)
            if handle is None or handle.state == "retired":
                return
            self._retire(wid)
            # Counted here, not in _retire: close() retires every handle
            # on a normal shutdown, which is not a failure.
            telemetry.count("distributed.worker_retired", 1)
            survivors = self._reassign_candidates()
            if not survivors:
                raise ExecutorError(
                    f"all distributed workers are gone (last failure: worker "
                    f"{wid}: {reason})"
                )
            orphans = owned_by(self._owner, wid)
            if not orphans:
                return
            self._owner.update(deal(orphans, self._worker_cycle(survivors)))
            # Re-ship every orphaned client (future rounds need the
            # pinning); model shells already live on the survivors.  For
            # store-backed pools only the dead worker's id range travels
            # -- one ASSIGN_SHARD slice per inheritor, with the ledger's
            # authoritative RNG snapshots.
            by_target = group_by_owner(orphans, self._owner)
            for target in sorted(by_target):
                handle = self._handles[target]
                if not handle.alive:
                    # A lost candidate: its resume re-ships every owned
                    # client (the ones just moved included), so there is
                    # nothing to send until it comes back.
                    continue
                gen = handle.gen
                try:
                    self._send_assignment(
                        handle.conn, by_target[target], redeal=True
                    )
                except OSError as exc:
                    # A transient blip parks the replacement for its own
                    # resume (which re-ships all owned clients); only
                    # with resume disabled does the failure cascade into
                    # retiring it and moving the clients again.
                    if self._grace_lost(target, gen):
                        continue
                    self._retire_and_reassign(
                        target, f"send failed during reassignment: {exc}"
                    )

    # ------------------------------------------------------------------
    # codec-aware broadcast + dispatch
    # ------------------------------------------------------------------
    def _broadcast_frame(
        self, handle: _WorkerHandle, state: _InFlight
    ) -> Tuple[bytes, np.ndarray]:
        """The cheapest BROADCAST frame that gets ``state``'s weights to
        one worker, and the array its mirror should retain for the seq.

        * The worker's newest retained vector is bit-identical (the
          evaluation broadcast of a moment ago): a header-only **alias**
          frame, whatever the codec.  Compared as bytes, not floats, so
          NaN payloads and ``-0.0`` are honoured; the retained array
          then serves both seqs.
        * Otherwise one frame per ``(codec, baseline_seq)`` is encoded
          and cached on ``state``; every worker whose mirror names the
          same baseline receives the same bytes.  For the delta codec
          the baseline is the mirror's newest entry; with an empty
          mirror (first send on a connection, post-resume resync) the
          frame falls back to raw.
        """
        mirror = handle.baselines
        weights = state.weights
        newest_seq = next(reversed(mirror), 0)  # 0 = nothing retained
        newest = mirror.get(newest_seq)
        if newest is not None and (
            newest is weights
            or np.array_equal(newest.view(np.uint64), weights.view(np.uint64))
        ):
            self._broadcast_stats["aliases"] += 1
            frame = proto.encode_broadcast_alias(
                state.seq, weights.size, newest_seq
            )
            return frame, newest
        codec = self.codec
        if codec.requires_baseline and newest is None:
            codec = get_codec("raw")
        baseline_seq = newest_seq if codec.requires_baseline else 0
        key = (codec.codec_id, baseline_seq)
        frame = state.frames.get(key)
        if frame is not None:
            self._broadcast_stats["frames_reused"] += 1
            return frame, weights
        collect = telemetry.enabled()
        t0 = time.perf_counter() if collect else 0.0
        frame = proto.encode_broadcast(
            state.seq,
            weights,
            codec=codec,
            baseline=newest if codec.requires_baseline else None,
            baseline_seq=baseline_seq,
        )
        if collect:
            telemetry.observe(
                "codec.encode_s", time.perf_counter() - t0, codec=codec.name
            )
        state.frames[key] = frame
        self._broadcast_stats["encodes"] += 1
        return frame, weights

    def _send_broadcast(self, handle: _WorkerHandle, state: _InFlight) -> None:
        """Send one worker this seq's weights and mirror what it retains.

        Mirror maintenance is the invariant that makes delta and alias
        frames safe: mirror and worker cache see the same insertions in
        the same order with the same retention bound, so any seq the
        coordinator names is still retained by the worker.

        Caller must hold ``handle.lock`` (``_dispatch_to`` does): the
        baseline mirror and the wire must observe sends in one order.
        """
        frame, retained = self._broadcast_frame(handle, state)
        handle.conn.send(proto.MsgType.BROADCAST, frame)
        mirror = handle.baselines
        mirror[state.seq] = retained
        mirror.move_to_end(state.seq)
        while len(mirror) > BROADCAST_RETAIN:
            mirror.popitem(last=False)

    def _dispatch_to(
        self, handle: _WorkerHandle, state: _InFlight, jobs: List[_Job]
    ) -> None:
        """Send one worker its work order (+ the broadcast, first time).

        Runs under ``handle.lock``: a resume swapping the connection can
        then never interleave mid-dispatch (which could split the
        BROADCAST and its work order across two connections), and the
        ``dispatch_gen`` recorded is exactly the connection every frame
        of this dispatch went to.
        """
        with handle.lock:
            gen = handle.gen
            if handle.id not in state.broadcasted:
                self._send_broadcast(handle, state)
                state.broadcasted.add(handle.id)
            if state.kind == "train":
                handle.conn.send(
                    proto.MsgType.TRAIN,
                    proto.encode_train(state.seq, state.round_idx, jobs),
                )
            elif state.kind == "eval":
                handle.conn.send(
                    proto.MsgType.EVAL,
                    proto.encode_eval(state.seq, jobs),
                )
            else:
                handle.conn.send(
                    proto.MsgType.EVAL_MODEL,
                    proto.encode_eval_model(state.seq, jobs),
                )
            state.dispatch_gen[handle.id] = gen

    def _initial_dispatch(
        self, kind: str, round_idx: int, weights: np.ndarray, pending: Dict[int, List[_Job]]
    ) -> _InFlight:
        """Open a batch: allocate its seq and dispatch ``pending`` (worker
        id -> jobs) to the pinned workers.

        Dispatches from a snapshot: a death during this loop reassigns
        the dead worker's jobs into ``state.pending`` (and dispatches
        them), so iterating the live dict would dispatch reassigned jobs
        a second time -- the duplicate result would be discarded, but a
        training replica's local RNG streams would advance twice and
        every later round would silently diverge from the serial
        schedule.
        """
        self._seq += 1
        state = _InFlight(self._seq, round_idx, weights, kind)
        state.pending = pending
        initial = {wid: list(jobs) for wid, jobs in pending.items()}
        for wid in sorted(initial):
            self._dispatch_or_fail_over(wid, state, initial[wid])
        return state

    def _dispatch_or_fail_over(
        self, wid: int, state: _InFlight, jobs: List[_Job], when: str = ""
    ) -> None:
        """Dispatch ``jobs`` to worker ``wid`` unless it is not ``up``.

        Not ``up`` means retired by an earlier death handling (its whole
        pending list was already reassigned and dispatched) or parked
        lost: its resume -- or its grace expiry through the heartbeat
        check -- owns these jobs, which stay pending.  A failed send
        parks the worker the same way, or retires it (grace disabled)
        and moves the jobs on.
        """
        handle = self._handles[wid]
        if not handle.alive:
            return
        gen = handle.gen
        try:
            self._dispatch_to(handle, state, jobs)
        except OSError as exc:
            if not self._grace_lost(wid, gen):
                self._handle_worker_death(wid, state, f"send failed{when}: {exc}")

    def _handle_worker_death(
        self, wid: int, state: _InFlight, reason: str
    ) -> None:
        """Process a worker loss for one collector's in-flight batch.

        Retires + re-pins globally (idempotent -- see
        :meth:`_retire_and_reassign`), then re-dispatches *this
        collector's* outstanding jobs for the dead worker to the new
        owners (training and per-client eval jobs follow the pinning;
        eval-model shards are re-dealt over the survivors, the eval set
        being resident everywhere).
        """
        self._retire_and_reassign(wid, reason)
        outstanding = state.pending.pop(wid, [])
        state.dispatch_gen.pop(wid, None)
        if not outstanding:
            return
        candidates = self._reassign_candidates()
        if not candidates:
            # _retire_and_reassign only raises for the FIRST collector to
            # observe the terminal death; a second collector with its own
            # outstanding jobs must fail the same way, not spin.
            raise ExecutorError(
                f"all distributed workers are gone (last failure: worker "
                f"{wid}: {reason})"
            )
        owner = deal(outstanding, candidates) if state.kind == "eval_model" else self._owner
        by_target = group_by_owner(outstanding, owner, key=state.key_of)
        for target in sorted(by_target):
            jobs = by_target[target]
            # Recorded in `pending` BEFORE the send: if the send fails,
            # the recursion below pops the target's whole pending list
            # (these jobs included) and moves it on -- nothing is lost.
            state.pending.setdefault(target, []).extend(jobs)
            self._dispatch_or_fail_over(target, state, jobs, " during reassignment")

    def _redispatch_after_resume(self, wid: int, state: _InFlight) -> None:
        """Re-send a resumed worker its outstanding jobs for this batch.

        Only when the jobs were dispatched to a *previous* connection
        (``dispatch_gen`` differs): a stale resume event must never
        double-dispatch jobs the current connection already holds --
        the duplicate result would be discarded, but the worker's local
        RNG streams would advance twice and diverge from serial.  The
        broadcast is re-sent (raw resync: the resume cleared the
        baseline mirror).
        """
        handle = self._handles.get(wid)
        if handle is None or not handle.alive:
            return
        jobs = state.pending.get(wid)
        if not jobs:
            return
        if state.dispatch_gen.get(wid) == handle.gen:
            return
        state.broadcasted.discard(wid)
        self._dispatch_or_fail_over(wid, state, list(jobs), " after resume")

    def _check_heartbeats(self, state: _InFlight) -> List[Tuple[int, str]]:
        """PING quiet busy workers; return those past their limit.

        Workers parked ``lost`` are never PINGed (there is no connection
        to ping) -- they expire when their reconnect grace window does.
        """
        now = time.monotonic()
        dead: List[Tuple[int, str]] = []
        for wid in list(state.pending):
            handle = self._handles[wid]
            if handle.state == "retired":
                if state.pending.get(wid):
                    # Jobs stranded on a worker another collector retired
                    # (e.g. it was retired between this collector's
                    # owner-map read and its dispatch): redistribute.
                    dead.append((wid, "worker already retired"))
                continue
            if handle.state == "lost":
                if (
                    handle.lost_at is not None
                    and now - handle.lost_at > self.reconnect_grace
                ):
                    dead.append(
                        (wid,
                         f"did not reconnect within the "
                         f"{self.reconnect_grace:.0f}s grace window")
                    )
                continue
            silent = now - handle.last_seen
            if silent > self.heartbeat_interval * self.heartbeat_misses:
                dead.append(
                    (wid, f"no heartbeat for {silent:.1f}s (process hung?)")
                )
            elif silent > self.heartbeat_interval:
                gen = handle.gen
                try:
                    handle.conn.send(proto.MsgType.PING)
                    handle.ping_sent_at = time.monotonic()
                except OSError as exc:
                    if not self._grace_lost(wid, gen):
                        dead.append((wid, f"ping failed: {exc}"))
        return dead

    def _decode_result(
        self, msg_type: int, payload: bytes, state: _InFlight
    ) -> Optional[tuple]:
        """Decode one result frame; raises :class:`proto.ProtocolError`
        when it is malformed.

        A worker's delta UPDATE names the broadcast it trained from
        (``baseline_seq == seq``), which is ``state.weights`` whichever
        connection carried it -- so the decode needs no per-worker
        mirror.  ``None`` means a stale UPDATE (an abandoned cohort's,
        whose baseline may be gone): dropped undecoded.
        """
        if msg_type == proto.MsgType.TRAINFAIL:
            return proto.decode_trainfail(payload)
        if msg_type == proto.MsgType.EVAL_RESULT:
            return proto.decode_eval_result(payload)
        if msg_type == proto.MsgType.EVAL_MODEL_RESULT:
            return proto.decode_eval_model_result(payload)
        if proto.update_seq(payload) != state.seq:
            # Stale result from an abandoned cohort (see the equivalent
            # note in ProcessExecutor._train_cohort).
            return None
        collect = telemetry.enabled()
        t0 = time.perf_counter() if collect else 0.0
        decoded = proto.decode_update(
            payload,
            baselines={state.seq: state.weights},
            expected_size=self._num_params,
        )
        if collect:
            telemetry.observe(
                "codec.decode_s", time.perf_counter() - t0, codec=self.codec.name
            )
        return decoded

    # ------------------------------------------------------------------
    # the round
    # ------------------------------------------------------------------
    def _on_update_received(self, worker_id: int, client_id: int) -> None:
        """Test hook: called after each merged update (no-op)."""

    def _collect(
        self, state: _InFlight, what: str, on_result: Callable[[int, int, tuple], None]
    ) -> None:
        """Drive ``state`` until no job is outstanding: the one event loop.

        Owns the ``result_timeout`` deadline (its message names the
        outstanding ``what``), the heartbeat poll, resume, loss and its
        grace window, ``BYE`` and ``REJECT``, and decodes each result
        frame once.  A result frame for another seq -- of any kind, the
        queue is shared -- is a straggler from an abandoned batch, and
        one read off a connection that a resume has since replaced is a
        straggler from a forgotten pass: dropped, settling nothing, its
        sender untouched.  One for the live seq reaches
        ``on_result(worker_id, msg_type, decoded)`` if its type may
        settle this kind of batch; otherwise -- like any unknown frame,
        and any result or ``REJECT`` frame that does not decode -- it
        retires its sender as a protocol violation, and the sender's jobs
        are re-dispatched.
        """
        deadline = time.monotonic() + self.result_timeout
        while state.outstanding() > 0:
            if time.monotonic() > deadline:
                raise ExecutorError(
                    f"timed out after {self.result_timeout:.0f}s waiting for "
                    f"{state.outstanding()} {what}"
                )
            try:
                wid, gen, msg_type, payload = self._events.get(timeout=self.heartbeat_interval)
            except queue_mod.Empty:
                for dead_wid, reason in self._check_heartbeats(state):
                    self._handle_worker_death(dead_wid, state, reason)
                continue

            if msg_type == _EVT_RESUMED:
                self._redispatch_after_resume(wid, state)
                continue
            if msg_type is None:
                if not self._grace_lost(wid, gen):
                    self._handle_worker_death(wid, state, "connection lost")
                continue
            if msg_type == proto.MsgType.BYE:
                self._handle_worker_death(wid, state, "worker exited")
                continue
            if msg_type == proto.MsgType.REJECT:
                try:
                    reason = f"worker refused to continue: {proto.decode_reject(payload)}"
                except proto.ProtocolError as exc:
                    reason = f"malformed REJECT: {exc}"
                self._handle_worker_death(wid, state, reason)
                continue
            unexpected = f"unexpected message type {msg_type}"
            # Merged under the lock a resume holds, and only while the
            # connection the frame was read off is still the worker's: a
            # resume re-ships the worker's clients from the RNG ledger as
            # merged *so far*, so a result it overtook in this queue is
            # training the worker was just told to forget.  Dropped, its
            # job stays pending and the resume event re-dispatches it.
            with self._death_lock:
                if gen != self._handles[wid].gen:
                    continue
                if msg_type not in _RESULT_TYPES:
                    self._handle_worker_death(wid, state, unexpected)
                    continue
                try:
                    decoded = self._decode_result(msg_type, payload, state)
                except proto.ProtocolError as exc:
                    self._handle_worker_death(
                        wid, state, f"malformed {proto.MsgType(msg_type).name}: {exc}"
                    )
                    continue
                if decoded is None or decoded[0] != state.seq:
                    continue
                if msg_type in _RESULT_FRAMES[state.kind]:
                    on_result(wid, msg_type, decoded)
                else:
                    self._handle_worker_death(wid, state, unexpected)

    def _train_cohort(
        self,
        round_idx: int,
        requests: Sequence[TrainRequest],
        global_weights: np.ndarray,
        latencies: Optional[Mapping[int, float]],
    ) -> List[ClientUpdate]:
        jobs = [(req.client_id, req.epochs) for req in requests]
        state = self._initial_dispatch(
            "train", round_idx, global_weights, group_by_owner(jobs, self._owner, itemgetter(0))
        )
        updates: List[ClientUpdate] = []
        failures: List[str] = []

        def on_result(wid: int, msg_type: int, decoded: tuple) -> None:
            cid = decoded[1]
            if not state.settle(cid):
                return
            if msg_type == proto.MsgType.TRAINFAIL:
                failures.append(f"client {cid} (worker {wid}):\n{decoded[2]}")
                return
            _seq, _cid, n_samples, rng_state, w = decoded
            absorb_rng_state(self._clients, cid, rng_state)
            updates.append(self._stamp(cid, w, n_samples, latencies))
            self._on_update_received(wid, cid)

        self._collect(state, "client update(s)", on_result)
        self._raise_failures("client training failed on worker agent(s)", failures)
        return order_updates(updates, requests)

    def _evaluate_cohort(
        self,
        requests: Sequence[EvalRequest],
        flat_weights: np.ndarray,
    ) -> Dict[int, float]:
        """Batched holdout evaluation with the same failover as training.

        Weights reach the workers through the same BROADCAST frame the
        training path uses (and therefore the same codec); each owning
        worker answers one EVAL_RESULT per client.  Evaluation is pure,
        so a dead worker's unfinished jobs are simply re-dispatched to
        whoever inherits its clients -- no RNG state replay is needed
        and duplicates are merged first-wins (copies are bit-identical).
        """
        ids = [req.client_id for req in requests]
        state = self._initial_dispatch("eval", 0, flat_weights, group_by_owner(ids, self._owner))
        accs: Dict[int, float] = {}
        failures: List[str] = []

        def on_result(wid: int, _msg_type: int, decoded: tuple) -> None:
            _seq, cid, acc, err = decoded
            if not state.settle(cid):
                return
            if err is not None:
                failures.append(f"client {cid} (worker {wid}):\n{err}")
            else:
                accs[cid] = acc

        self._collect(state, "evaluation result(s)", on_result)
        self._raise_failures("client evaluation failed on worker agent(s)", failures)
        return {cid: accs[cid] for cid in ids}

    # ------------------------------------------------------------------
    def _eval_shard_workers(self, x: np.ndarray, y: np.ndarray) -> int:
        """Every live worker, when this dataset was shipped via
        :meth:`bind_eval_data` (one BIND_EVAL frame per worker);
        anything else evaluates serially in the coordinator process."""
        if not self._bound_eval_data_matches(x, y):
            return 0
        self._ensure_started()
        return len(self._live_ids()) if self._eval_shipped else 0

    def _count_sharded(
        self, flat_weights: np.ndarray, x: np.ndarray, y: np.ndarray, bounds: List[Tuple[int, int]]
    ) -> int:
        """Shard over the workers' resident eval set.  A worker lost
        mid-pass has its shards re-dealt over the survivors (shard
        counting is pure, so replays merge first-wins)."""
        state = self._initial_dispatch(
            "eval_model", 0, flat_weights, group_by_owner(bounds, deal(bounds, self._live_ids()))
        )
        counts: List[int] = []
        failures: List[str] = []

        def on_result(wid: int, _msg_type: int, decoded: tuple) -> None:
            _seq, a, b, shard_correct, err = decoded
            if not state.settle((a, b)):
                return
            if err is not None:
                failures.append(f"shard [{a}:{b}] (worker {wid}):\n{err}")
            else:
                counts.append(shard_correct)

        self._collect(state, "evaluation shard(s)", on_result)
        self._raise_failures("global evaluation failed on worker agent(s)", failures)
        return sum(counts)

    # ------------------------------------------------------------------
    def _emit_wire_metrics(self) -> None:
        """Flush per-frame-type wire tallies and worker-busy gauges into
        the telemetry registry (called once, at close, when every
        connection's counters have been folded)."""
        tables = (
            ("wire.frames_sent", self.frames_sent_by_type),
            ("wire.frames_received", self.frames_received_by_type),
            ("wire.bytes_sent", self.bytes_sent_by_type),
            ("wire.bytes_received", self.bytes_received_by_type),
        )
        for name, table in tables:
            for key, value in table.items():
                try:
                    label = proto.MsgType(key).name
                except ValueError:
                    label = str(key)
                telemetry.count(name, value, msg_type=label)
        for how, value in self.broadcast_stats.items():
            telemetry.count(f"wire.broadcast_{how}", value)
        for wid, summary in sorted(self._worker_summaries.items()):
            busy = summary.get("busy_s")
            if isinstance(busy, (int, float)):
                telemetry.gauge(
                    "distributed.worker.busy_s", worker=wid
                ).set(float(busy))

    def close(self) -> None:
        if self._closed:
            return
        super().close()
        live = [h for h in self._handles.values() if h.alive]
        for handle in live:
            try:
                handle.conn.send(proto.MsgType.SHUTDOWN)
            except OSError:
                pass
        # Give workers a moment to BYE so their exit is clean, then drop:
        # a reader thread returns on its worker's BYE (or on EOF).
        deadline = time.monotonic() + 5.0
        for handle in live:
            if handle.reader is not None:
                handle.reader.join(timeout=max(0.0, deadline - time.monotonic()))
        for handle in self._handles.values():
            self._retire(handle.id)
        if telemetry.enabled():
            self._emit_wire_metrics()
        for handle in self._handles.values():
            if handle.reader is not None:
                handle.reader.join(timeout=2.0)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
            self._accept_thread = None
        self._handles = {}
        self._owner = {}
        if self._listener is not None:
            self._listener.close()
            self._listener = None

    def __del__(self) -> None:  # pragma: no cover - safety net
        try:
            if not self._closed and (self._handles or self._listener):
                self.close()
        except Exception:
            pass
