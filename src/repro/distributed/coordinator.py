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
  ``BYE`` / ``REJECT`` event once onto the one event queue, and the
  accept thread posts each mid-run join.  Only the caller's thread --
  the collector -- changes a worker handle or the batch.
* **Weights.**  A cohort seq's vector is encoded once per ``(codec,
  baseline_seq)`` and fanned out, or aliased by a header-only frame when
  the worker already retains it; each connection mirrors the worker's
  retained BROADCASTs, so delta and alias frames always name a vector
  the worker holds.
* **Worker loss and rejoin.**  A lost connection (EOF, send failure,
  heartbeat silence) retires its worker at once, and its unfinished jobs
  are re-dealt over the live workers: a job carries the ledger state,
  which only advances once the client's UPDATE is merged, so the replay
  is bit-identical to the serial schedule.  A worker that breaks the
  protocol is sent REJECT first.  An agent that dials again registers
  through the same handshake as a new worker, at any time: the accept
  thread sends it the set-up frames and posts a join, and the collector
  adds it to the live set.  ``reconnect_grace`` is how long a batch with
  no live worker left waits for a join before it fails.
* **Telemetry.**  Observational only: cohort spans, codec timings,
  heartbeat RTTs, lifecycle counters, per-frame-type wire tallies
  folded at :meth:`close`, and each worker's TELEMETRY summary
  (:attr:`worker_summaries`).  Disabled, it adds no clock read to the
  dispatch path.
"""

from __future__ import annotations

import os
import queue as queue_mod
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

#: Synthetic event-queue marker: a worker joined mid-run, its handle in
#: the event's second field (cannot collide with ``MsgType`` values,
#: which are >= 1, or with ``None``, which marks a lost connection).
_EVT_JOINED = -1

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
    """Coordinator-side bookkeeping for one registered worker: one
    connection, one agent session.

    ``state`` is ``up`` until the worker is ``retired``, which is final
    (an agent that dials again registers as a new worker).
    ``baselines`` mirrors the worker's retained-BROADCAST cache -- what a
    delta frame may name as its baseline and what an alias frame may
    name at all; it starts empty, as the agent's session does.  Its
    values are the per-seq read-only vectors of :class:`_InFlight`,
    shared across workers.
    """

    def __init__(
        self, worker_id: int, conn: Connection, capacity: int, pid: int
    ) -> None:
        self.id = worker_id
        self.conn = conn
        self.capacity = capacity
        self.pid = pid
        self.state = "up"  # "up" | "retired"
        self.last_seen = time.monotonic()
        self.reader: Optional[threading.Thread] = None
        #: When the last unanswered PING left (monotonic); the PONG turns
        #: it into one ``distributed.heartbeat_rtt_s`` observation.
        self.ping_sent_at: Optional[float] = None
        #: The worker's TELEMETRY summary (arrives during shutdown).
        self.summary: Optional[Dict[str, object]] = None
        self.baselines: "OrderedDict[int, np.ndarray]" = OrderedDict()

    @property
    def alive(self) -> bool:
        return self.state == "up"


class _InFlight:
    """One collector's in-flight batch (a training cohort, an eval
    cohort, or a sharded model evaluation).

    ``pending`` maps worker id -> outstanding jobs; ``broadcasted``
    tracks who already received this seq's weights; ``stranded`` holds
    the jobs no live worker was left to take, since ``stranded_since``,
    until a join deals them (or ``reconnect_grace`` runs out).

    ``weights`` is this seq's one immutable copy of the vector: every
    worker's baseline mirror and every encode read the same array.
    ``frames`` caches the encoded BROADCAST per ``(codec_id,
    baseline_seq)``; a seq names one vector, so the key identifies the
    bytes, and a new worker's empty mirror selects ``(raw, 0)`` -- its
    first broadcast can never be served a stale delta frame.

    ``done`` holds the keys already merged -- a client id, or an eval
    shard's ``(start, end)`` -- which :meth:`settle` dedupes through.
    Each worker's jobs are held by key, so settling one costs a dict
    pop per worker, whatever the batch size.  ``costs`` holds what each
    key weighs when it is dealt (:func:`repro.execution.pool.balance`),
    again after a worker loss.
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
        self.stranded: Dict[Hashable, _Job] = {}
        self.stranded_since = 0.0
        self.stranded_by = ""  # the loss that left the jobs stranded
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
        return sum(len(jobs) for jobs in self._jobs.values()) + len(self.stranded)

    def settle(self, key: Hashable) -> bool:
        """Record the result for ``key``; ``True`` when it is the first.

        Clears the job from *every* worker's pending jobs, and from the
        stranded ones: a dead worker's in-flight result can land after
        its job was already reassigned, and the replica's copy must not
        keep the batch open.
        A second result for the same key is a duplicate from such a
        reassignment race -- both workers trained from the RNG state the
        job carries, so the copies are bit-identical -- and only the
        first is merged.
        """
        for jobs in self._jobs.values():
            jobs.pop(key, None)
        self.stranded.pop(key, None)
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
        # Only a listener can take a join, so only DistributedExecutor
        # waits for one (see its ``reconnect_grace``).
        self.reconnect_grace = 0.0
        self.max_frame_payload = max_frame_payload

        # Set once every worker holds the bound eval set (see _eval_holders).
        self._eval_shipped = False
        self._handles: Dict[int, _WorkerHandle] = {}
        # The id the next registered worker gets: worker ids are never
        # reused, so a rejoining agent is a new worker.
        self._next_id = 0
        # Every result frame and every loss event, from every reader
        # thread, and every mid-run join: ``(worker_id, handle, msg_type,
        # payload)``, ``handle`` being the joining one (see _reader).
        self._events: "queue_mod.Queue[Tuple[int, object, Optional[int], object]]" = (
            queue_mod.Queue()
        )
        self._seq = 0
        self._assigned = False
        # The assignment frame every worker starts from, built once.
        self._setup: Optional[Tuple[int, bytes]] = None
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
    def bind(self, clients, model, training) -> None:
        if self._assigned and training != self._training:
            # Started workers hold the config they were assigned with;
            # accepting a new one would silently diverge from serial.
            raise ExecutorError(
                f"{self.name} executor already started with a different "
                "TrainingConfig; create a fresh executor instead"
            )
        super().bind(clients, model, training)

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
    # registration: one handshake, for every connection
    # ------------------------------------------------------------------
    def _handshake(self, conn: Connection) -> Optional[Dict[str, object]]:
        """Run the coordinator side of the handshake on a new connection.

        Returns the decoded HELLO (version-checked) on success; on any
        mismatch sends ``REJECT``, closes the connection and returns
        ``None``.
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
            # stop every later join.
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

    def _reject(self, conn: Connection, reason: str) -> None:
        try:
            conn.send(proto.MsgType.REJECT, proto.encode_reject(reason))
        except OSError:
            pass
        conn.close()

    def _register(self, sock: socket.socket) -> Optional[_WorkerHandle]:
        """Handshake a fresh connection on ``sock`` and welcome its agent
        as the next worker id; ``None`` when it was refused or vanished.

        The WELCOME ends the handshake, so the connection leaves the
        pre-handshake frame cap for ``max_frame_payload``.  The caller
        files the handle: the registration window at once, the accept
        thread through a join event.
        """
        COORDINATOR_SOCKETS.add(sock)
        conn = Connection(sock, max_payload=proto.HANDSHAKE_MAX_PAYLOAD)
        hello = self._handshake(conn)
        if hello is None:
            return None
        wid = self._next_id
        try:
            conn.send(
                proto.MsgType.WELCOME,
                proto.encode_welcome(
                    proto.PROTOCOL_VERSION, wid, self._signature, self._num_params
                ),
            )
        except OSError:
            # Peer vanished between HELLO and WELCOME.
            conn.close()
            return None
        conn.max_payload = self.max_frame_payload
        self._next_id += 1
        return _WorkerHandle(wid, conn, hello["capacity"], hello["pid"])

    def _register_workers(self) -> None:
        """Connect ``self.workers`` agents, each through :meth:`_register`,
        into :attr:`_handles`."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # the set-up: the whole population, to every worker (v6)
    # ------------------------------------------------------------------
    def _assignment(self) -> Tuple[int, bytes]:
        """The frame every worker starts from: the whole population and
        the model shell.

        A population store ships one compact ASSIGN_SHARD of its columns
        (O(population) bytes, no ``SimClient`` pickles); hand-built dict
        pools keep the pickled-dict ASSIGN.  Every TRAIN job carries its
        client's RNG position, so nothing in it goes stale: it is built
        once and sent unchanged to every worker, a later joiner included.
        """
        clients = self._clients
        if isinstance(clients, PopulationStore):
            blob = shard_to_bytes(clients.shard(clients.client_ids))
            return proto.MsgType.ASSIGN_SHARD, proto.encode_assign_shard(
                blob, self._training, self._signature, model=self._model
            )
        return proto.MsgType.ASSIGN, proto.encode_assign(
            dict(clients), self._training, self._signature, model=self._model
        )

    def _send_setup(self, conn: Connection, eval_frame: Optional[bytes]) -> None:
        """Start a worker's session: the eval set first (the worker's
        reader takes it in while its main thread is still idle, not busy
        rebuilding a store), then the assignment."""
        if eval_frame is not None:
            conn.send(proto.MsgType.BIND_EVAL, eval_frame)
        msg_type, payload = self._setup
        conn.send(msg_type, payload)
        if msg_type == proto.MsgType.ASSIGN_SHARD:
            telemetry.count("wire.shard_ships", 1)
            telemetry.count("wire.shard_bytes", len(payload))

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
        self._setup = self._assignment()
        eval_frame = None
        if self._eval_data is not None:
            eval_frame = proto.encode_bind_eval(*self._eval_data)
            self._eval_shipped = True
        for _wid, handle in sorted(self._handles.items()):
            self._send_setup(handle.conn, eval_frame)
            self._start_reader(handle)
        self._assigned = True

    def _start_reader(self, handle: _WorkerHandle) -> None:
        handle.last_seen = time.monotonic()
        handle.reader = threading.Thread(
            target=self._reader, args=(handle,), daemon=True,
            name=f"repro-dist-reader-{handle.id}",
        )
        handle.reader.start()

    def _reader(self, handle: _WorkerHandle, tag: object = None) -> None:
        """Per-connection receive loop: PONG and TELEMETRY are taken in
        here, and every result frame and every death-class event (EOF,
        REJECT, BYE) is posted exactly once as ``(worker_id, tag,
        msg_type, payload)`` -- the shape of every event, whose second
        field only a join event fills (with the joining handle)."""
        conn = handle.conn
        while True:
            try:
                msg_type, payload = conn.recv()
            except (ConnectionClosed, OSError, FrameError):
                # A corrupt stream (FrameError) is as dead as a closed one:
                # report the loss so the round reassigns, never hang.
                self._events.put((handle.id, tag, None, None))
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
            self._events.put((handle.id, tag, msg_type, payload))
            if msg_type == proto.MsgType.BYE:
                return

    # ------------------------------------------------------------------
    # worker loss and join (the collector's thread only)
    # ------------------------------------------------------------------
    def _live_ids(self) -> List[int]:
        return sorted(wid for wid, h in self._handles.items() if h.alive)

    def _gone(self, last_failure: str) -> ExecutorError:
        return ExecutorError(
            f"all {self.name} workers are gone (last failure: {last_failure})"
        )

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
        if handle.alive:
            self._fold_and_close(handle)
            handle.state = "retired"

    def _handle_worker_death(
        self, wid: int, state: _InFlight, reason: str
    ) -> None:
        """Retire ``wid`` (a death observed twice retires it once) and
        re-deal its outstanding jobs of ``state`` over the live workers,
        which all hold the population and the eval set.  Nothing is
        re-shipped: each job carries its client's ledger RNG state."""
        if self._handles[wid].alive:
            self._retire(wid)
            # Counted here, not in _retire: close() retires every handle
            # on a normal shutdown, which is not a failure.
            telemetry.count("distributed.worker_retired", 1)
        outstanding = state.take(wid)
        if outstanding:
            self._deal(state, outstanding, f"worker {wid}: {reason}", " during reassignment")

    def _refuse(self, wid: int, state: _InFlight, reason: str) -> None:
        """A protocol violation: tell the worker why (its agent exits
        rather than dial back into the same violation), then retire it."""
        handle = self._handles[wid]
        if handle.alive:
            try:
                handle.conn.send(proto.MsgType.REJECT, proto.encode_reject(reason))
            except OSError:
                pass
        self._handle_worker_death(wid, state, reason)

    def _join(self, handle: _WorkerHandle, state: _InFlight) -> None:
        """Add a worker that registered mid-run to the live set; jobs that
        no live worker was left to take are dealt to it."""
        self._handles[handle.id] = handle
        self._start_reader(handle)
        if state.stranded:
            jobs, state.stranded = list(state.stranded.values()), {}
            self._deal(state, jobs, state.stranded_by, " after a join")

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
          mirror (a worker's first broadcast) the frame falls back to
          raw.
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
        """Send one worker its work order (+ the broadcast, first time)."""
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

    def _deal(
        self, state: _InFlight, jobs: Sequence[_Job], last_failure: str, when: str = ""
    ) -> None:
        """Deal ``jobs`` over the live workers by cost and dispatch each
        worker its share.

        Every share is recorded as pending before any send: a death
        during this loop re-deals the dead worker's whole pending list
        (these jobs included), so nothing is lost or sent twice.  With no
        live worker the batch fails naming ``last_failure`` -- or, with a
        ``reconnect_grace``, the jobs are stranded until a join.
        """
        workers = self._live_ids()
        if not workers:
            if self.reconnect_grace <= 0:
                raise self._gone(last_failure)
            if not state.stranded:
                state.stranded_since = time.monotonic()
            state.stranded.update((state.key_of(job), job) for job in jobs)
            state.stranded_by = last_failure
            return
        capacities = {wid: self._handles[wid].capacity for wid in workers}
        by_key = {state.key_of(job): job for job in jobs}
        keys = list(by_key)
        dealt = balance(keys, [state.costs[k] for k in keys], workers, capacities)
        shares = {wid: [by_key[k] for k in dealt[wid]] for wid in sorted(dealt)}
        for wid, share in shares.items():
            state.add(wid, share)
        for wid, share in shares.items():
            self._dispatch_or_fail_over(wid, state, share, when)

    def _dispatch_or_fail_over(
        self, wid: int, state: _InFlight, jobs: List[_Job], when: str = ""
    ) -> None:
        """Dispatch ``jobs`` to worker ``wid`` unless it was retired
        meanwhile (its whole pending list, these jobs included, was
        re-dealt then); a failed send retires it and re-deals them."""
        handle = self._handles[wid]
        if not handle.alive:
            return
        try:
            self._dispatch_to(handle, state, jobs)
        except OSError as exc:
            self._handle_worker_death(wid, state, f"send failed{when}: {exc}")

    def _check_heartbeats(self, state: _InFlight) -> List[Tuple[int, str]]:
        """PING quiet busy workers; return those past their limit."""
        now = time.monotonic()
        dead: List[Tuple[int, str]] = []
        for wid in state.pending:
            handle = self._handles[wid]
            silent = now - handle.last_seen
            if silent > self.heartbeat_interval * self.heartbeat_misses:
                dead.append(
                    (wid, f"no heartbeat for {silent:.1f}s (process hung?)")
                )
            elif silent > self.heartbeat_interval:
                try:
                    handle.conn.send(proto.MsgType.PING)
                    handle.ping_sent_at = time.monotonic()
                except OSError as exc:
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
        outstanding ``what``), the heartbeat poll, and the wait for a
        join while jobs are stranded; each event is taken by
        :meth:`_apply`.
        """
        deadline = time.monotonic() + self.result_timeout
        while state.outstanding() > 0:
            now = time.monotonic()
            if now > deadline:
                raise ExecutorError(
                    f"timed out after {self.result_timeout:.0f}s waiting for "
                    f"{state.outstanding()} {what}"
                )
            if state.stranded and now - state.stranded_since > self.reconnect_grace:
                raise self._gone(
                    f"{state.stranded_by}; no worker joined within {self.reconnect_grace:g}s"
                )
            try:
                event = self._events.get(timeout=self.heartbeat_interval)
            except queue_mod.Empty:
                for dead_wid, reason in self._check_heartbeats(state):
                    self._handle_worker_death(dead_wid, state, reason)
                continue
            self._apply(state, event, on_result)

    def _apply(
        self, state: _InFlight, event: tuple, on_result: Callable[[int, int, List[tuple]], None]
    ) -> None:
        """Take one event of the queue for ``state``: a join, a loss,
        ``BYE``, ``REJECT``, or a result frame, decoded once.

        A result frame for another seq -- of any kind, the queue is
        shared -- is a straggler from an abandoned batch: dropped,
        settling nothing, its sender untouched.  One for the live seq
        reaches ``on_result(worker_id, msg_type, entries)`` if its type
        may settle this kind of batch, whether or not its sender has
        been retired since (a job settles once, first result wins).
        Otherwise -- like any unknown frame, and any result frame that
        does not decode -- its sender is refused as a protocol violation
        and its jobs are re-dealt.
        """
        wid, joined, msg_type, payload = event
        if msg_type == _EVT_JOINED:
            self._join(joined, state)
        elif msg_type is None:
            self._handle_worker_death(wid, state, "connection lost")
        elif msg_type == proto.MsgType.BYE:
            self._handle_worker_death(wid, state, "worker exited")
        elif msg_type == proto.MsgType.REJECT:
            try:
                reason = f"worker refused to continue: {proto.decode_reject(payload)}"
            except proto.ProtocolError as exc:
                reason = f"malformed REJECT: {exc}"
            self._handle_worker_death(wid, state, reason)
        elif msg_type not in _RESULT_TYPES:
            self._refuse(wid, state, f"unexpected message type {msg_type}")
        else:
            try:
                decoded = self._decode_result(msg_type, payload, state)
            except proto.ProtocolError as exc:
                self._refuse(wid, state, f"malformed {proto.MsgType(msg_type).name}: {exc}")
                return
            if decoded is None or decoded[0] != state.seq:
                return
            if msg_type in _RESULT_FRAMES[state.kind]:
                on_result(wid, msg_type, decoded[1])
            else:
                self._refuse(wid, state, f"unexpected message type {msg_type}")

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
        """One batch: take the events queued since the last one (joins,
        losses, stragglers), deal ``jobs`` by ``costs`` over the live
        workers, then :meth:`_collect` until every job settled.  Only a
        key's first result reaches ``on_result`` (a re-deal race may
        compute it twice, bit-identically); a merged UPDATE then calls
        :meth:`_on_update_received`."""
        self._seq += 1
        state = _InFlight(self._seq, round_idx, weights, kind)
        state.costs = {state.key_of(job): cost for job, cost in zip(jobs, costs)}

        def settle(wid: int, msg_type: int, entries: List[tuple]) -> None:
            for key, value, error in entries:
                if state.settle(key):
                    on_result(wid, key, value, error)
                    if msg_type == proto.MsgType.UPDATE:
                        self._on_update_received(wid, key)

        while not self._events.empty():
            self._apply(state, self._events.get_nowait(), settle)
        self._deal(state, jobs, "no worker is up")
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
        # A join no collector took is a worker too: it is shut down alike.
        while not self._events.empty():
            _wid, joined, msg_type, _payload = self._events.get_nowait()
            if msg_type == _EVT_JOINED:
                self._handles[joined.id] = joined
                self._start_reader(joined)
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
        Seconds a batch that has lost its last live worker waits for a
        worker to join (a dropped agent dialling back, or a new one)
        before it fails naming the loss.  ``0`` (default) fails at once.

    After registration the listener stays open: any agent may join the
    running federation.  Its wire is read off :attr:`bytes_sent` and
    :attr:`bytes_received` (and the per-frame-type tallies).
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
            handle = self._register(sock)
            if handle is not None:
                self._handles[handle.id] = handle

    def _accept_loop(self, listener: socket.socket) -> None:
        """Post-registration accept thread: mid-run joins.

        Runs until :meth:`close` closes the listener.  A connection
        passes the one handshake (:meth:`_register`) and receives the
        set-up frames; a join event then hands it to the collector.
        The listener is handed in, its timeout already set: a
        :meth:`close` that wins the race against the thread's start has
        closed it (and cleared ``_listener``), and ``accept`` then fails
        into the shutdown return below.
        """
        while True:
            try:
                sock, _addr = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed under us: shutting down
            handle = self._register(sock)
            if handle is None:
                continue
            eval_frame = None
            if self._eval_shipped:
                eval_frame = proto.encode_bind_eval(*self._eval_data)
            try:
                self._send_setup(handle.conn, eval_frame)
            except OSError:
                handle.conn.close()
                continue
            telemetry.count("distributed.worker_joined", 1)
            self._events.put((handle.id, handle, _EVT_JOINED, None))

    def _ensure_started(self) -> None:
        if self._assigned:
            return
        super()._ensure_started()
        # Keep accepting after registration closes: joins arrive here.
        listener = self._listener
        assert listener is not None
        listener.settimeout(1.0)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, args=(listener,), daemon=True,
            name="repro-dist-accept",
        )
        self._accept_thread.start()

    def close(self) -> None:
        # Stop accepting first, so no join can be posted after close()
        # has taken the queued ones.  The shutdown wakes the accept loop
        # at once; a handshake in progress ends first.
        if self._listener is not None:
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # not every platform shuts a listener down
            self._listener.close()
            self._listener = None
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=15.0)
            self._accept_thread = None
        super().close()
