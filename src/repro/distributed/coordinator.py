"""The coordinator side: a :class:`ClientExecutor` over worker agents.

:class:`PoolExecutor` satisfies the execution contract
(:mod:`repro.execution.base`) with worker *processes*; its two backends
differ only in how the agents connect: :class:`DistributedExecutor`
(``distributed``) accepts agents that dial its TCP listener, and
:class:`repro.distributed.launch.ProcessExecutor` (``process``) forks
them itself, one socketpair each.  ``docs/architecture.md``
("Pool core", "Population sharding", "The wire protocol") is the design
reference; the invariants the code below keeps:

* **Registration.**  Every connection, accepted or paired, passes one
  versioned handshake (:meth:`PoolExecutor._register`); each
  worker advertises a ``capacity`` that divides its load when batches
  are dealt.
* **No pinning.**  Every worker holds the whole population (a store
  pool ships one ASSIGN_SHARD of all its columns, never ``SimClient``
  pickles), and every batch is dealt over the live workers by cost
  (:func:`repro.execution.pool.balance`).  Each TRAIN job carries its
  client's RNG state from the ledger
  (:func:`repro.execution.pool.ledger_state`); every UPDATE carries the
  advanced state back and
  :func:`repro.execution.pool.absorb_rng_state` makes it authoritative
  at once, so a client trains the same on whichever worker runs it.
* **One collector.**  :meth:`PoolExecutor._run` is one
  :class:`_InFlight` batch driven by :meth:`PoolExecutor._collect`;
  per-worker reader threads post every result frame and every loss /
  resume / ``BYE`` / ``REJECT`` event once onto the one event queue.
* **Weights.**  A cohort seq's vector is encoded once per ``(codec,
  baseline_seq)`` and fanned out, or aliased by a header-only frame when
  the worker already retains it; each connection mirrors the worker's
  retained BROADCASTs, so delta and alias frames always name a vector
  the worker holds.
* **Worker loss.**  A dead worker (EOF, send failure, heartbeat silence)
  is retired and its unfinished jobs are re-dealt over the survivors: a
  job carries the ledger state, which only advances once the client's
  UPDATE is merged, so the replay is bit-identical to the serial
  schedule.  With ``reconnect_grace > 0`` a lost TCP connection is
  parked instead and may resume with its session token (raw resync,
  re-deal); retirement and resume are serialised by one lock.
* **Telemetry.**  Observational only: cohort spans, codec timings,
  heartbeat RTTs, lifecycle counters, per-frame-type wire tallies
  folded at :meth:`close`, and each worker's TELEMETRY summary
  (:attr:`worker_summaries`).  Disabled, it adds no clock read to the
  dispatch path.
"""

from __future__ import annotations

import os
import queue as queue_mod
import secrets
import socket
import threading
import time
import weakref
from collections import OrderedDict
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
from repro.execution.pool import absorb_rng_state, balance, ledger_state
from repro.serialization import shard_to_bytes
from repro.simcluster.client import ClientUpdate
from repro.simcluster.population import PopulationStore

__all__ = ["PoolExecutor", "DistributedExecutor"]

#: Every coordinator-side socket this process opened: listeners, accepted
#: connections and local socketpair ends.  A child forked from here (a
#: local worker) closes its copies: an open copy of a listener would keep
#: accepting after the coordinator closed it, and an open copy of a
#: connection would hide a dead coordinator or sibling from its peer's EOF.
COORDINATOR_SOCKETS: "weakref.WeakSet[socket.socket]" = weakref.WeakSet()


def _close_inherited_sockets() -> None:
    for sock in list(COORDINATOR_SOCKETS):
        sock.close()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_close_inherited_sockets)

#: A train job is ``(client_id, epochs, rng_state)``, an eval job a client
#: id, an eval-model job a ``(start, end)`` shard.
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

#: The per-frame-type tallies a :class:`Connection` keeps.
_TALLIES = ("frames_sent", "frames_received", "bytes_sent_by_type", "bytes_received_by_type")

#: ``on_result(worker_id, key, value, error)``: one job's result, keyed
#: by client id (train, eval) or ``(start, end)`` shard (eval model).
OnResult = Callable[[int, Hashable, object, Optional[str]], None]

#: Per batch kind: the unit a timeout counts, and what a failure failed at.
_KINDS = {
    "train": ("client update(s)", "client training failed"),
    "eval": ("evaluation result(s)", "client evaluation failed"),
    "eval_model": ("evaluation shard(s)", "global evaluation failed"),
}


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
    Each worker's jobs are held by key, so settling one costs a dict
    pop per worker, whatever the batch size.  ``costs`` holds what each
    key weighs when it is dealt (:func:`repro.execution.pool.balance`),
    again after a worker loss or resume.
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
        self._jobs: Dict[int, Dict[Hashable, _Job]] = {}
        self.broadcasted: Set[int] = set()
        self.dispatch_gen: Dict[int, int] = {}
        self.done: Set[Hashable] = set()
        self.costs: Dict[Hashable, float] = {}

    @property
    def pending(self) -> Dict[int, List[_Job]]:
        """Worker id -> its outstanding jobs in dispatch order (a copy)."""
        return {wid: list(jobs.values()) for wid, jobs in self._jobs.items()}

    @pending.setter
    def pending(self, per_worker: Mapping[int, Sequence[_Job]]) -> None:
        self._jobs = {}
        for wid, jobs in per_worker.items():
            self.add(wid, jobs)

    def add(self, wid: int, jobs: Sequence[_Job]) -> None:
        """Make ``jobs`` outstanding on worker ``wid``."""
        mine = self._jobs.setdefault(wid, {})
        for job in jobs:
            mine[self.key_of(job)] = job

    def take(self, wid: int) -> List[_Job]:
        """Remove and return worker ``wid``'s outstanding jobs."""
        return list(self._jobs.pop(wid, {}).values())

    def key_of(self, job: _Job) -> Hashable:
        """What a result names a job by: its client, else the job itself."""
        return job[0] if self.kind == "train" else job

    def outstanding(self) -> int:
        return sum(len(jobs) for jobs in self._jobs.values())

    def settle(self, key: Hashable) -> bool:
        """Record the result for ``key``; ``True`` when it is the first.

        Clears the job from *every* worker's pending jobs: a dead
        worker's in-flight result can land after its job was already
        reassigned, and the replica's copy must not keep the batch open.
        A second result for the same key is a duplicate from such a
        reassignment race -- both workers trained from the RNG state the
        job carries, so the copies are bit-identical -- and only the
        first is merged.
        """
        for jobs in self._jobs.values():
            jobs.pop(key, None)
        if key in self.done:
            return False
        self.done.add(key)
        return True


class PoolExecutor(ClientExecutor):
    """Train cohorts across registered worker agents: the coordinator
    both worker pools share.

    Every operation is *build the jobs and their costs ->* :meth:`_run`
    *-> assemble*: the batch is dealt over the live workers by cost,
    values merge as they arrive (a trained update's RNG state is
    absorbed at once), captured failures are raised together once the
    batch is done, each naming its worker, and updates return in request
    order.  A subclass supplies only how its workers
    connect, :meth:`_register_workers`, which hands each connected socket
    to :meth:`_register` (the one handshake):
    :class:`DistributedExecutor` accepts them on a TCP listener,
    :class:`repro.distributed.launch.ProcessExecutor` forks them, one
    socketpair each.

    Parameters
    ----------
    workers:
        How many worker agents must register before the first cohort runs.
    result_timeout:
        Per-cohort ceiling on waiting for results: a *wall-clock
        deadline* for the whole batch, fixed when it is dispatched, so a
        cohort still making progress when it passes fails.
    heartbeat_interval / heartbeat_misses:
        A worker silent for ``interval`` seconds is PINGed; silent for
        ``interval * misses`` seconds it is declared dead and its jobs
        are re-dealt.
    max_frame_payload:
        Optional cap on incoming frame payloads (rejects corrupt length
        headers early; see :mod:`repro.distributed.transport`).  It
        applies once a peer has been welcomed; until then a connection
        accepts :data:`~repro.distributed.protocol.HANDSHAKE_MAX_PAYLOAD`.
    """

    def __init__(
        self,
        workers: int = 2,
        result_timeout: float = 600.0,
        heartbeat_interval: float = 2.0,
        heartbeat_misses: int = 5,
        max_frame_payload: Optional[int] = None,
    ) -> None:
        super().__init__()
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if result_timeout <= 0:
            raise ValueError("result_timeout must be positive")
        if heartbeat_interval <= 0 or heartbeat_misses < 1:
            raise ValueError("heartbeat_interval/misses must be positive")
        self.workers = int(workers)
        self.result_timeout = float(result_timeout)
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_misses = int(heartbeat_misses)
        # Only a listener can take a resume, so only DistributedExecutor
        # parks a lost connection (see its ``reconnect_grace``).
        self.reconnect_grace = 0.0
        self.max_frame_payload = max_frame_payload

        # Set once every worker holds the bound eval set (see _eval_holders).
        self._eval_shipped = False
        self._handles: Dict[int, _WorkerHandle] = {}
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
        # Byte totals and per-frame-type tallies (keyed by the type byte)
        # folded from closed connections; live ones are summed on read.
        self._closed_bytes = {"bytes_sent": 0, "bytes_received": 0}
        self._closed_tallies: Dict[str, Dict[int, int]] = {attr: {} for attr in _TALLIES}
        # worker_id -> the summary its TELEMETRY frame carried.
        self._worker_summaries: Dict[int, Dict[str, object]] = {}
        # How each BROADCAST left: a fresh encode, a cached frame fanned
        # out again, or a header-only alias.  Always on (plain ints).
        self._broadcast_stats = {"encodes": 0, "frames_reused": 0, "aliases": 0}
        # Serialises retirement and resume; RLock because a failed
        # re-dispatch retires the next survivor under it.
        self._death_lock = threading.RLock()

    # ------------------------------------------------------------------
    # the executor contract: build the jobs, _run them, assemble
    # ------------------------------------------------------------------
    def bind_eval_data(self, x: np.ndarray, y: np.ndarray) -> None:
        """Bind the server-held eval set; it ships to the workers once, and
        re-binding different data after that is an error (the ship-once
        invariant that makes the per-round sharding free)."""
        if self._bound_eval_data_matches(x, y):
            return
        if self._eval_shipped:
            raise ExecutorError(
                f"{self.name} executor already shipped an eval set to its "
                "workers; create a fresh executor to bind different data"
            )
        super().bind_eval_data(x, y)

    def _gather(
        self, kind: str, round_idx: int, weights: np.ndarray, jobs: Sequence[_Job],
        costs: Sequence[float], merge: Callable[[Hashable, object], None] = lambda key, value: None,
    ) -> Dict[Hashable, object]:
        """:meth:`_run` one batch: every value by key in arrival order,
        each passed to ``merge(key, value)`` as it arrives."""
        what, failed = _KINDS[kind]
        values: Dict[Hashable, object] = {}
        failures: List[str] = []

        def on_result(wid: int, key: Hashable, value: object, error: Optional[str]) -> None:
            if error is None:
                values[key] = value
                merge(key, value)
            else:
                unit = f"shard [{key[0]}:{key[1]}]" if kind == "eval_model" else f"client {key}"
                failures.append(f"{unit}: (worker {wid})\n{error}")

        self._run(kind, round_idx, weights, jobs, costs, what, on_result)
        self._raise_failures(f"{failed} on {self.name} worker(s)", failures)
        return values

    def _train_cohort(
        self, round_idx: int, requests: Sequence[TrainRequest], global_weights: np.ndarray,
        latencies: Optional[Mapping[int, float]],
    ) -> List[ClientUpdate]:
        ids = [req.client_id for req in requests]
        jobs = [(req.client_id, req.epochs, ledger_state(self._clients, req.client_id))
                for req in requests]
        costs = [n * req.epochs for n, req in zip(self._sizes(ids), requests)]
        trained = self._gather(
            "train", round_idx, global_weights, jobs, costs,
            lambda cid, value: absorb_rng_state(self._clients, cid, value[2]),
        )
        updates = [self._stamp(cid, w, n, latencies) for cid, (w, n, _) in trained.items()]
        return order_updates(updates, requests)

    def _evaluate_cohort(
        self, requests: Sequence[EvalRequest], flat_weights: np.ndarray
    ) -> Dict[int, float]:
        ids = [req.client_id for req in requests]
        accs = self._gather("eval", 0, flat_weights, ids, self._sizes(ids, holdout=True))
        return {cid: accs[cid] for cid in ids}

    def _sizes(self, ids: Sequence[int], holdout: bool = False) -> List[int]:
        """Per client, the rows its train job reads -- or, ``holdout``,
        its eval job: what a batch is dealt by."""
        clients = self._clients
        if isinstance(clients, PopulationStore):
            column = clients.holdout_size if holdout else clients.num_train_samples
            return column[clients._rows(ids)].tolist()
        return [len(clients[c].holdout) if holdout else clients[c].num_train_samples for c in ids]

    def _eval_shard_workers(self, x: np.ndarray, y: np.ndarray) -> int:
        """Every worker holding exactly this dataset, shipped by
        :meth:`bind_eval_data`; anything else takes the serial pass."""
        if not self._bound_eval_data_matches(x, y):
            return 0
        self._ensure_started()
        return len(self._eval_holders())

    def _count_sharded(
        self, flat_weights: np.ndarray, x: np.ndarray, y: np.ndarray, bounds: List[Tuple[int, int]]
    ) -> int:
        costs = [b - a for a, b in bounds]
        return sum(self._gather("eval_model", 0, flat_weights, bounds, costs).values())

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _started(self) -> bool:
        return self._assigned

    @property
    def num_workers_started(self) -> int:
        return sum(1 for h in self._handles.values() if h.alive)

    def worker_pid(self, worker_id: int) -> int:
        """OS pid the worker advertised at registration (for tooling/tests)."""
        return self._handles[worker_id].pid

    # ------------------------------------------------------------------
    # byte accounting (closed connections' totals + every live one's)
    # ------------------------------------------------------------------
    def _total(self, attr: str) -> int:
        """``bytes_sent`` or ``bytes_received`` over every connection,
        closed and live."""
        return self._closed_bytes[attr] + sum(
            getattr(h.conn, attr) for h in self._handles.values() if h.alive
        )

    def _by_type(self, attr: str) -> Dict[int, int]:
        """Closed-connection tallies plus every live connection's."""
        total = dict(self._closed_tallies[attr])
        for h in self._handles.values():
            if h.alive:
                for key, value in getattr(h.conn, attr).items():
                    total[key] = total.get(key, 0) + value
        return total

    @property
    def frames_sent_by_type(self) -> Dict[int, int]:
        return self._by_type("frames_sent")

    @property
    def frames_received_by_type(self) -> Dict[int, int]:
        return self._by_type("frames_received")

    @property
    def bytes_sent_by_type(self) -> Dict[int, int]:
        return self._by_type("bytes_sent_by_type")

    @property
    def bytes_received_by_type(self) -> Dict[int, int]:
        return self._by_type("bytes_received_by_type")

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
                self._reject(conn, f"expected HELLO, got type {msg_type}")
                return None
            hello = proto.decode_hello(payload)
        except (proto.ProtocolError, FrameError, OSError) as exc:
            # OSError covers a timeout and ConnectionClosed.  FrameError
            # included: a non-protocol peer (port scanner, stray HTTP
            # probe) announces a garbage frame length; it must be rejected
            # here, not allowed to kill the accept thread and silently
            # disable reconnect-and-resume.
            self._reject(conn, str(exc))
            return None
        if hello["version"] != proto.PROTOCOL_VERSION:
            # Name BOTH peer versions so the operator reading either
            # side's log knows exactly which binary to upgrade; the
            # worker logs this reason before exiting.
            self._reject(
                conn,
                f"protocol version mismatch: worker speaks "
                f"v{hello['version']}, coordinator requires "
                f"v{proto.PROTOCOL_VERSION}",
            )
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

    def _register(self, sock: socket.socket) -> bool:
        """Handshake a fresh connection on ``sock`` and welcome its agent
        as the next worker id; ``False`` when it was refused or vanished."""
        COORDINATOR_SOCKETS.add(sock)
        conn = Connection(sock, max_payload=proto.HANDSHAKE_MAX_PAYLOAD)
        hello = self._handshake(conn)
        if hello is None:
            return False
        if hello.get("resume") is not None:
            self._reject(conn, "no session to resume: registration is open")
            return False
        wid = len(self._handles)
        handle = _WorkerHandle(wid, conn, hello["capacity"], hello["pid"])
        try:
            self._welcome(conn, handle)
        except OSError:
            # Peer vanished between HELLO and WELCOME.
            conn.close()
            return False
        self._handles[wid] = handle
        return True

    def _register_workers(self) -> None:
        """Connect ``self.workers`` agents, each through :meth:`_register`."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # the one assignment: the whole population, to every worker (v6)
    # ------------------------------------------------------------------
    def _assignment(self) -> Tuple[int, bytes]:
        """The frame every worker starts from: the whole population and
        the model shell.

        A population store ships one compact ASSIGN_SHARD of its columns
        (O(population) bytes, no ``SimClient`` pickles), with the
        ledger's RNG snapshots; hand-built dict pools keep the
        pickled-dict ASSIGN.  Built once, sent to each worker.
        """
        clients = self._clients
        if isinstance(clients, PopulationStore):
            blob = shard_to_bytes(clients.shard(clients.client_ids))
            telemetry.count("wire.shard_ships", len(self._handles))
            telemetry.count("wire.shard_bytes", len(blob) * len(self._handles))
            return proto.MsgType.ASSIGN_SHARD, proto.encode_assign_shard(
                blob, self._training, self._signature, model=self._model
            )
        return proto.MsgType.ASSIGN, proto.encode_assign(
            dict(clients), self._training, self._signature, model=self._model
        )

    def _eval_holders(self) -> List[int]:
        """Every live worker: the eval set travels as one BIND_EVAL frame
        per worker ahead of its assignment, or -- bound after the workers
        registered -- here, before its first sharded pass."""
        if not self._eval_shipped:
            blob = proto.encode_bind_eval(*self._eval_data)
            for wid in self._live_ids():
                try:
                    self._handles[wid].conn.send(proto.MsgType.BIND_EVAL, blob)
                except OSError:
                    # The worker is dying; the death event surfaces through
                    # the collector.  Survivors still hold the data.
                    pass
            self._eval_shipped = True
        return self._live_ids()

    def _ensure_started(self) -> None:
        if self._assigned:
            return
        self._require_bound()
        self._signature = proto.model_signature(self._model)
        self._num_params = self._model.num_params()
        self._register_workers()

        assignment = self._assignment()
        eval_blob = (
            proto.encode_bind_eval(*self._eval_data)
            if self._eval_data is not None
            else None
        )
        for wid, handle in sorted(self._handles.items()):
            # The eval set first: the worker's reader takes it in while
            # its main thread is still idle, not busy rebuilding a shard.
            if eval_blob is not None:
                handle.conn.send(proto.MsgType.BIND_EVAL, eval_blob)
            handle.conn.send(*assignment)
            handle.reader = threading.Thread(
                target=self._reader, args=(handle, handle.gen), daemon=True,
                name=f"repro-dist-reader-{wid}",
            )
            handle.reader.start()
        if eval_blob is not None:
            self._eval_shipped = True
        self._assigned = True

    def _reader(self, handle: _WorkerHandle, gen: int) -> None:
        """Per-connection receive loop posting frames to the event queue.

        Every result frame and every death-class event (EOF, REJECT,
        BYE) is posted exactly once, tagged with this connection's
        ``gen``: a stale reader (superseded by a resume) can never park
        the replacement connection, nor have a result merged from a pass
        the resume forgot (see :meth:`_collect`).
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
                # Observability only: a summary that does not decode, or
                # that claims another worker's id, is dropped and never
                # fails a shutdown.  It is filed under this connection.
                try:
                    wid, summary = proto.decode_telemetry(payload)
                except proto.ProtocolError:
                    continue
                if wid == handle.id:
                    handle.summary = summary
                    self._worker_summaries[handle.id] = summary
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
        """Worker ids a batch's jobs may be dealt to.

        Workers that are ``up``; when none are, workers parked ``lost``
        whose reconnect grace window is still open -- a run whose only
        survivors are mid-blip must wait for a resume (or the window's
        expiry), not abort.  Jobs dealt to a lost candidate simply stay
        pending: dispatching to it is skipped, and its resume re-deals
        them.  Empty means the federation is truly out of workers.
        """
        now = time.monotonic()
        return self._live_ids() or sorted(
            wid
            for wid, h in self._handles.items()
            if h.state == "lost"
            and h.lost_at is not None
            and now - h.lost_at <= self.reconnect_grace
        )

    def _heirs(self, last_failure: str) -> List[int]:
        """:meth:`_reassign_candidates`, or ``ExecutorError`` naming the
        ``last_failure`` when there are none."""
        heirs = self._reassign_candidates()
        if not heirs:
            raise ExecutorError(
                f"all {self.name} workers are gone (last failure: {last_failure})"
            )
        return heirs

    def _fold_and_close(self, handle: _WorkerHandle) -> None:
        """Fold a connection's byte counters into the totals and close it."""
        conn = handle.conn
        for attr in self._closed_bytes:
            self._closed_bytes[attr] += getattr(conn, attr)
        for attr, closed in self._closed_tallies.items():
            for key, value in getattr(conn, attr).items():
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

    def _retire_lost_worker(self, wid: int, reason: str) -> None:
        """Retire ``wid`` after a failure (idempotent); raises when no
        worker is left to take its jobs.

        Nothing is re-shipped: every survivor already holds the whole
        population, and each job carries its client's ledger RNG state.
        Serialised by ``_death_lock`` against a resume on the accept
        thread; a death observed twice makes the second call a no-op.
        """
        with self._death_lock:
            handle = self._handles.get(wid)
            if handle is None or handle.state == "retired":
                return
            self._retire(wid)
            # Counted here, not in _retire: close() retires every handle
            # on a normal shutdown, which is not a failure.
            telemetry.count("distributed.worker_retired", 1)
            self._heirs(f"worker {wid}: {reason}")

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
                    proto.encode_train(
                        state.seq, state.round_idx, [job[:2] for job in jobs],
                        [(cid, rng) for cid, _, rng in jobs if rng is not None],
                    ),
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

    def _deal(
        self, state: _InFlight, jobs: Sequence[_Job], last_failure: str, when: str = ""
    ) -> None:
        """Deal ``jobs`` over :meth:`_heirs` by cost and dispatch each
        worker its share.

        Every share is recorded as pending before any send: a death
        during this loop re-deals the dead worker's whole pending list
        (these jobs included), so nothing is lost or sent twice.
        """
        workers = self._heirs(last_failure)
        capacities = {wid: self._handles[wid].capacity for wid in workers}
        by_key = {state.key_of(job): job for job in jobs}
        keys = list(by_key)
        dealt = balance(keys, [state.costs[k] for k in keys], workers, capacities)
        shares = {wid: [by_key[k] for k in dealt[wid]] for wid in sorted(dealt)}
        for wid, share in shares.items():
            state.add(wid, share)
        for wid, share in shares.items():
            self._dispatch_or_fail_over(wid, state, share, when)

    def _initial_dispatch(
        self, kind: str, round_idx: int, weights: np.ndarray, jobs: Sequence[_Job],
        costs: Sequence[float],
    ) -> _InFlight:
        """Open a batch: allocate its seq, deal ``jobs`` by ``costs`` over
        the live workers and dispatch them."""
        self._seq += 1
        state = _InFlight(self._seq, round_idx, weights, kind)
        state.costs = {state.key_of(job): cost for job, cost in zip(jobs, costs)}
        self._deal(state, jobs, "no worker is up")
        return state

    def _dispatch_or_fail_over(
        self, wid: int, state: _InFlight, jobs: List[_Job], when: str = ""
    ) -> None:
        """Dispatch ``jobs`` to worker ``wid`` unless it is not ``up``.

        Not ``up`` means retired by an earlier death handling (its whole
        pending list was already re-dealt) or parked lost: its resume --
        or its grace expiry through the heartbeat check -- owns these
        jobs, which stay pending.  A failed send parks the worker the
        same way, or retires it (grace disabled) and re-deals the jobs.
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
        """Process a worker loss for one collector's in-flight batch:
        retire it (idempotent -- see :meth:`_retire_lost_worker`), then
        re-deal *this collector's* outstanding jobs for it over the
        survivors, which all hold the population and the eval set."""
        self._retire_lost_worker(wid, reason)
        outstanding = state.take(wid)
        state.dispatch_gen.pop(wid, None)
        if outstanding:
            # _retire_lost_worker only raises for the FIRST collector to
            # observe the terminal death; a second collector with its own
            # outstanding jobs must fail the same way, not spin.
            self._deal(state, outstanding, f"worker {wid}: {reason}", " during reassignment")

    def _redispatch_after_resume(self, wid: int, state: _InFlight) -> None:
        """Re-deal a resumed worker's outstanding jobs for this batch over
        the live workers, itself included.

        Only when the jobs were dispatched to a *previous* connection
        (``dispatch_gen`` differs): a stale resume event must never
        double-dispatch jobs the current connection already holds.  The
        resumed worker's next broadcast is a raw resync (the resume
        cleared its baseline mirror).
        """
        handle = self._handles.get(wid)
        if handle is None or not handle.alive:
            return
        if not state.pending.get(wid) or state.dispatch_gen.get(wid) == handle.gen:
            return
        state.broadcasted.discard(wid)
        outstanding = state.take(wid)
        state.dispatch_gen.pop(wid, None)
        self._deal(state, outstanding, f"worker {wid} resumed", " after resume")

    def _check_heartbeats(self, state: _InFlight) -> List[Tuple[int, str]]:
        """PING quiet busy workers; return those past their limit.

        Workers parked ``lost`` are never PINGed (there is no connection
        to ping) -- they expire when their reconnect grace window does.
        """
        now = time.monotonic()
        dead: List[Tuple[int, str]] = []
        for wid, jobs in state.pending.items():
            handle = self._handles[wid]
            if handle.state == "retired":
                if jobs:
                    # Jobs stranded on a worker another collector retired
                    # (e.g. between this collector's deal and its
                    # dispatch): redistribute.
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
    ) -> Optional[Tuple[int, List[tuple]]]:
        """Decode one result frame to ``(seq, [(key, value, error), ...])``
        -- one entry per unit it answers; raises
        :class:`proto.ProtocolError` when it is malformed.

        The key is a client id, or an eval shard's ``(start, end)``; an
        UPDATE's value is ``(weights, num_samples, rng_state)``.  A
        worker's delta UPDATE names the broadcast it trained from
        (``baseline_seq == seq``), which is ``state.weights`` whichever
        connection carried it -- so the decode needs no per-worker
        mirror.  ``None`` means a stale UPDATE (an abandoned cohort's,
        whose baseline may be gone): dropped undecoded.
        """
        if msg_type == proto.MsgType.TRAINFAIL:
            seq, cid, tb = proto.decode_trainfail(payload)
            return seq, [(cid, None, tb)]
        if msg_type == proto.MsgType.EVAL_RESULT:
            seq, ids, accs, errors = proto.decode_eval_result(payload)
            return seq, list(zip(ids, accs, errors))
        if msg_type == proto.MsgType.EVAL_MODEL_RESULT:
            seq, a, b, correct, err = proto.decode_eval_model_result(payload)
            return seq, [((a, b), correct, err)]
        if proto.update_seq(payload) != state.seq:
            return None  # stale: an abandoned cohort's
        collect = telemetry.enabled()
        t0 = time.perf_counter() if collect else 0.0
        seq, cid, n_samples, rng_state, w = proto.decode_update(
            payload,
            baselines={state.seq: state.weights},
            expected_size=self._num_params,
        )
        if collect:
            telemetry.observe(
                "codec.decode_s", time.perf_counter() - t0, codec=self.codec.name
            )
        return seq, [(cid, (w, n_samples, rng_state), None)]

    # ------------------------------------------------------------------
    # the round
    # ------------------------------------------------------------------
    def _on_update_received(self, worker_id: int, client_id: int) -> None:
        """Test hook: called after each merged update (no-op)."""

    def _collect(
        self, state: _InFlight, what: str, on_result: Callable[[int, int, List[tuple]], None]
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
        ``on_result(worker_id, msg_type, entries)`` if its type may
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
            # result a resume overtook in this queue belongs to a pass
            # the resume forgets.  Dropped, its job stays pending and the
            # resume event re-deals it.
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
                    on_result(wid, msg_type, decoded[1])
                else:
                    self._handle_worker_death(wid, state, unexpected)

    def _run(
        self,
        kind: str,
        round_idx: int,
        weights: np.ndarray,
        jobs: Sequence[_Job],
        costs: Sequence[float],
        what: str,
        on_result: OnResult,
    ) -> None:
        """One batch: :meth:`_initial_dispatch`, then :meth:`_collect`
        until every job settled.  Only a key's first result reaches
        ``on_result`` (a re-deal race may compute it twice,
        bit-identically), under the lock a resume holds; a merged UPDATE
        then calls :meth:`_on_update_received`."""
        state = self._initial_dispatch(kind, round_idx, weights, jobs, costs)

        def settle(wid: int, msg_type: int, entries: List[tuple]) -> None:
            for key, value, error in entries:
                if state.settle(key):
                    on_result(wid, key, value, error)
                    if msg_type == proto.MsgType.UPDATE:
                        self._on_update_received(wid, key)

        self._collect(state, what, settle)

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
                telemetry.count(name, value, msg_type=proto.frame_name(key))
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
        self._handles = {}

    def __del__(self) -> None:  # pragma: no cover - safety net
        try:
            if not self._closed:
                self.close()
        except Exception:
            pass


class DistributedExecutor(PoolExecutor):
    """Train cohorts across worker agents that dial in over TCP.

    Takes :class:`PoolExecutor`'s parameters, plus:

    endpoint:
        ``"host:port"`` to listen on; port ``0`` picks an ephemeral port
        (read the bound address back from :attr:`endpoint` after
        :meth:`listen`).
    accept_timeout:
        Seconds to wait for all workers to register.
    reconnect_grace:
        Seconds a worker whose TCP connection dropped may take to
        reconnect-and-resume (see the module docstring) before it is
        retired and its jobs re-dealt.  ``0`` (default) retires on
        the first loss, the pre-v4 behaviour.

    Its wire is read off :attr:`bytes_sent` and :attr:`bytes_received`
    (and the per-frame-type tallies).
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
        super().__init__(
            workers, result_timeout, heartbeat_interval, heartbeat_misses, max_frame_payload
        )
        if accept_timeout <= 0:
            raise ValueError("accept_timeout must be positive")
        if reconnect_grace < 0:
            raise ValueError(f"reconnect_grace must be >= 0, got {reconnect_grace}")
        self._requested_endpoint = endpoint or "127.0.0.1:0"
        proto.parse_endpoint(self._requested_endpoint)  # validate early
        self.accept_timeout = float(accept_timeout)
        self.reconnect_grace = float(reconnect_grace)
        self._listener: Optional[socket.socket] = None
        self._bound_endpoint: Optional[str] = None
        self._accept_thread: Optional[threading.Thread] = None

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
            COORDINATOR_SOCKETS.add(sock)
            bound_host, bound_port = sock.getsockname()[:2]
            self._bound_endpoint = f"{bound_host}:{bound_port}"
        return self._bound_endpoint  # type: ignore[return-value]

    @property
    def endpoint(self) -> Optional[str]:
        """The bound ``host:port`` (``None`` before :meth:`listen`)."""
        return self._bound_endpoint

    @property
    def bytes_sent(self) -> int:
        return self._total("bytes_sent")

    @property
    def bytes_received(self) -> int:
        return self._total("bytes_received")

    def _register_workers(self) -> None:
        """Block until ``self.workers`` agents dialled in and registered.

        A refused or vanished peer is skipped: one flaky connection must
        not abort the whole registration window.
        """
        self.listen()
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
            self._register(sock)

    def _accept_loop(self) -> None:
        """Post-registration accept thread: resume handshakes only.

        Runs until :meth:`close`.  Fresh registrations are refused (the
        worker set is fixed for the federation's lifetime); a HELLO with
        a valid ``resume`` token revives a parked worker.
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
            COORDINATOR_SOCKETS.add(sock)
            conn = Connection(sock, max_payload=proto.HANDSHAKE_MAX_PAYLOAD)
            hello = self._handshake(conn)
            if hello is None:
                continue
            resume = hello.get("resume")
            if resume is None:
                self._reject(
                    conn,
                    "federation already running: new workers cannot join mid-run",
                )
                continue
            self._try_resume(conn, resume)  # type: ignore[arg-type]

    def _try_resume(self, conn: Connection, resume: Mapping[str, object]) -> None:
        """Resume a parked worker on a fresh connection (or refuse).

        Under ``_death_lock`` so it can never interleave with a
        retirement observing the same worker.  On success the resident
        eval set is re-shipped, the delta baseline mirror is cleared
        (next broadcast resyncs raw) and a resume event wakes the
        collector to re-deal outstanding jobs.  The population is not
        re-shipped: the worker process kept it, and every job carries
        its client's ledger RNG state.
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
                # resume; the next collector pass retires and re-deals.
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

    def _ensure_started(self) -> None:
        if self._assigned:
            return
        super()._ensure_started()
        # Keep accepting after registration closes: resumes arrive here.
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True, name="repro-dist-accept"
        )
        self._accept_thread.start()

    def close(self) -> None:
        super().close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
            self._accept_thread = None
        if self._listener is not None:
            self._listener.close()
            self._listener = None
