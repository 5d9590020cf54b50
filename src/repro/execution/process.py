"""Process-pool executor: pinned workers + shared-memory weight transport.

Design (the memory / determinism contract):

* **Pinned clients.**  The sorted client-id list is dealt round-robin
  over ``workers`` persistent processes at start-up by
  :func:`repro.execution.pool.deal` (the capacity-1 cycle of the
  function the distributed coordinator pins with).  A client always
  trains in its owning worker, so its ``_train_rng`` shuffle stream
  advances in exactly one address space, exactly as it would under the
  serial schedule -- the property that makes the process backend
  bit-identical to :class:`repro.execution.serial.SerialExecutor`.  Each
  update ships the advanced RNG state back
  (:func:`repro.execution.pool.train_client` reads it,
  :func:`repro.execution.pool.absorb_rng_state` writes it into the
  parent's pool), so the parent pool remains the single source of truth
  and can later be reused with any backend or a fresh executor.
* **Population sharding.**  When the bound pool is a
  :class:`repro.simcluster.population.PopulationStore` (every pool a
  server binds; hand-built dict pools are pickled per worker), workers
  never receive pickled ``SimClient`` objects.  Instead each worker's
  column slice (``PopulationStore.shard``) is handed over as its
  ``Process`` argument -- inherited at ``fork``, pickled as columns
  under ``spawn``; the worker rebuilds a local shard store
  (``PopulationStore.from_columns``) and materialises its pinned
  clients lazily under its own bounded LRU.
  Start-up shipping is therefore O(shard ids), per-round traffic is
  O(cohort) metadata + one weight copy each way, and neither the parent
  nor any worker ever holds the full materialised population.  Advanced
  training-RNG states still ship home per update; with a store pool
  they land in the parent store's RNG ledger
  (``PopulationStore.restore_rng_state``) without materialising the
  client.
* **One replica per worker.**  The model shell shipped to each worker at
  start-up *is* that worker's private workspace replica (weights are
  overwritten at the start of every local pass), so memory is
  ``workers x model``, not ``clients x model``.
* **Shared-memory broadcast.**  The global flat-weight vector is written
  once per round into an anonymous shared array
  (``multiprocessing.RawArray``); workers map it as a read-only numpy
  view, so broadcasting costs O(1) copies regardless of cohort size.
  Training and evaluation weights travel through the **same** segment:
  the executor has one call in flight, so a batch's weights stay put
  until its last result is drained.
  The segment always holds **raw float64**, whatever
  ``TrainingConfig.codec`` says: the :mod:`repro.codec` weight codecs
  exist to cut *bytes on a wire*, and shared memory has no wire -- the
  one ``memcpy`` into the segment is already cheaper than any
  encode+decode pair, and a delta codec would *add* a baseline copy per
  round without removing one.  Only the distributed backend
  encodes (its BROADCAST/UPDATE frames actually cross machines).
* **Shared-memory returns.**  Updated weight vectors come back the same
  way: each worker owns a private return segment (the mirror of the
  broadcast segment) guarded by a one-slot semaphore.  The worker writes
  the trained weights into its slot and posts *metadata only* (client
  id, sample count, advanced RNG state) on the result queue; the parent
  copies the slot out and releases it.  The per-update weight vector is
  never pickled, so the return path costs one memcpy instead of a
  serialise/deserialise round-trip.
* **Resident eval data.**  :meth:`ProcessExecutor.bind_eval_data` maps
  the server-held eval set into shared memory before the workers fork,
  so it ships exactly once; ``evaluate_model`` on those arrays then
  shards across workers on the 256-sample batch boundaries of a serial
  pass (``repro.execution.base.eval_shard_bounds``), bit-identical to
  it.  Data bound *after* the workers started cannot be mapped into
  them and falls back to the in-server serial pass.
* **Cohort-granular evaluation.**  ``evaluate_cohort`` broadcasts
  through the shared segment; each tasked worker loads the weights
  into its replica **once**, scores its pinned share of the cohort with
  :func:`repro.execution.base.evaluate_holdouts` and answers with
  **one** reply per ``(worker, seq)`` carrying every accuracy and every
  per-client traceback (``evaluate_model`` shards answer the same way:
  one load, one summed count).  The parent drains one reply per tasked
  worker and discards a reply from an abandoned seq whole.
* **One result queue.**  Training results and evaluation replies share
  one queue and one drain (:meth:`ProcessExecutor._drain`): a message
  from an abandoned (timed-out) seq of *any* kind is dropped, and every
  ``"ok"`` -- stale ones included -- still frees its return slot.
* **Deterministic merge.**  Results arrive in completion order and are
  reordered into request order before the server ever sees them.

The start method defaults to ``fork`` where available (cheap: the client
datasets are shared copy-on-write) and falls back to ``spawn``.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import queue as queue_mod
import time
import traceback
from operator import itemgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.config import TrainingConfig
from repro.execution.base import (
    ClientExecutor,
    EvalRequest,
    ExecutorError,
    TrainRequest,
    count_correct,
    evaluate_holdouts,
    order_updates,
)
from repro.execution.pool import absorb_rng_state, deal, group_by_owner, train_client
from repro.nn.model import Sequential
from repro.simcluster.client import ClientUpdate, SimClient
from repro.simcluster.population import (
    PopulationShard,
    PopulationStore,
    ShardClients,
)

__all__ = ["ProcessExecutor"]

_Job = Tuple[int, int]  # (client_id, epochs)


def _worker_main(
    worker_id: int,
    clients: Dict[int, SimClient],
    workspace: Sequential,
    training: TrainingConfig,
    shared_weights,
    return_slot,
    slot_free,
    num_params: int,
    eval_data,
    task_q,
    result_q,
) -> None:
    """Worker loop: train/evaluate pinned clients against shared weights."""
    if isinstance(clients, PopulationShard):
        # Sharded pool: column slice in, lazy local store out.
        pool = ShardClients()
        pool.add(PopulationStore.from_columns(clients))
        clients = pool
    global_flat = np.frombuffer(shared_weights, dtype=np.float64, count=num_params)
    slot_view = np.frombuffer(return_slot, dtype=np.float64, count=num_params)
    eval_x = eval_y = None
    if eval_data is not None:
        x_buf, x_dtype, x_shape, y_buf, y_dtype, y_shape = eval_data
        eval_x = np.frombuffer(x_buf, dtype=x_dtype).reshape(x_shape)
        eval_y = np.frombuffer(y_buf, dtype=y_dtype).reshape(y_shape)
    while True:
        blob = task_q.get()
        if blob is None:
            break
        msg = pickle.loads(blob)
        kind = msg[0]
        if kind == "train":
            _, seq, round_idx, jobs = msg
            factory = training.optimizer_factory(round_idx)
            for client_id, epochs in jobs:
                try:
                    # The advanced training-RNG state ships home with the
                    # update (see ``train_client``).
                    w, num_samples, state = train_client(
                        clients[client_id], workspace, global_flat, factory, training, epochs
                    )
                    # Shared-memory return: wait until the parent freed
                    # this worker's slot, write the weights, then post
                    # metadata only.  The parent releases the slot for
                    # every "ok" it drains -- stale ones included -- so
                    # this acquire can never deadlock a live parent.
                    slot_free.acquire()
                    slot_view[: w.size] = w
                    _ship(
                        result_q,
                        ("ok", seq, worker_id, client_id, num_samples, state),
                    )
                except Exception:
                    # Exception, not BaseException: a Ctrl-C delivered to
                    # the process group must kill the worker loop (the
                    # parent then reports dead workers), not be reported
                    # as a per-client training failure.
                    _ship(
                        result_q,
                        ("err", seq, worker_id, client_id, traceback.format_exc()),
                    )
        elif kind == "eval":
            _, seq, client_ids = msg
            accs, failed = evaluate_holdouts(workspace, clients, client_ids, global_flat)
            failures = [f"client {cid}:\n{tb}" for cid, tb in failed.items()]
            _ship(result_q, (seq, accs, failures))
        elif kind == "eval_model":
            _, seq, bounds = msg
            correct, failures = 0, []
            try:
                correct = sum(count_correct(workspace, eval_x, eval_y, bounds, global_flat))
            except Exception:
                failures.append(f"shards {bounds}:\n{traceback.format_exc()}")
            _ship(result_q, (seq, correct, failures))


def _ship(q, msg) -> int:
    """Post a task or result as the bytes the accounting counts.

    Pickled here, once: the queue then moves an opaque ``bytes`` object,
    so the receiver reads its length (returned to a counting sender)
    instead of re-serialising the message it just un-pickled.
    """
    blob = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
    q.put(blob)
    return len(blob)


class ProcessExecutor(ClientExecutor):
    """Train the cohort across persistent, client-pinned worker processes.

    ``result_timeout`` bounds *accumulated idle poll time*: only the
    seconds the parent spent blocked on an empty result queue while
    collecting one cohort count (:meth:`_next_result`), so workers that
    keep delivering never time out, however long the cohort runs.  The
    distributed coordinator's parameter of the same name is instead a
    wall-clock deadline for the whole cohort.
    """

    name = "process"

    def __init__(
        self,
        workers: int = 2,
        start_method: Optional[str] = None,
        result_timeout: float = 600.0,
    ) -> None:
        super().__init__()
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if result_timeout <= 0:
            raise ValueError(f"result_timeout must be positive, got {result_timeout}")
        self.workers = int(workers)
        self.result_timeout = float(result_timeout)
        if start_method is None:
            start_method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        self._ctx = mp.get_context(start_method)
        self._procs: List[mp.process.BaseProcess] = []
        self._task_qs: List = []
        self._result_q = None
        self._shared = None
        self._eval_arrays = None  # shared-memory copy of the bound eval set
        self._return_slots: List = []
        self._slot_free: List = []
        self._num_params = 0
        self._owner: Dict[int, int] = {}  # client_id -> worker index
        self._seq = 0  # cohort sequence number; guards against stale results
        # IPC accounting: what the equivalent of "bytes on the wire" is
        # for this backend -- the recurring per-round payloads
        # (``bytes_shipped`` says how), which at a fixed cohort must not
        # grow with the population (gated in
        # tests/execution/test_executors.py::TestProcessBackend).
        self._ipc_bytes = 0

    # ------------------------------------------------------------------
    def _started(self) -> bool:
        return bool(self._procs)

    @property
    def num_workers_started(self) -> int:
        return len(self._procs)

    def owner_of(self, client_id: int) -> int:
        """Worker index a client is pinned to (stable for the run)."""
        if not self._started():
            raise ExecutorError("executor not started yet")
        return self._owner[client_id]

    @property
    def bytes_shipped(self) -> int:
        """Cumulative recurring IPC bytes (excludes one-time shard ship).

        Counted where the bytes are made, never by serialising twice:
        each task and each worker result is pickled once by its sender
        and counted as the length of those bytes (the queue moves them
        as an opaque ``bytes`` object); each shared-segment write and
        each return-slot copy-out counts one float64 weight vector.
        """
        return self._ipc_bytes

    def bind_eval_data(self, x: np.ndarray, y: np.ndarray) -> None:
        """Map the eval set into shared memory for the (future) workers.

        Must be called before the first cohort to enable sharding: the
        shared mapping is passed to the workers when they fork.  Binding
        after start keeps ``evaluate_model`` correct (in-server serial
        pass) but cannot shard; re-binding different data once the
        workers hold a shared copy is an error (ship-once invariant).
        """
        if self._bound_eval_data_matches(x, y):
            return
        if self._eval_arrays is not None:
            raise ExecutorError(
                "process executor already shares an eval set with its "
                "workers; create a fresh executor to bind different data"
            )
        super().bind_eval_data(x, y)

    def _ensure_started(self) -> None:
        if not self._procs:
            self._start_workers()

    def _start_workers(self) -> None:
        clients = self._require_bound()
        n_workers = min(self.workers, len(clients))
        ids = sorted(clients)
        self._owner = deal(ids, range(n_workers))
        owned_ids = group_by_owner(ids, self._owner)
        num_params = self._model.num_params()
        self._num_params = num_params
        self._shared = self._ctx.RawArray("d", max(num_params, 1))
        self._result_q = self._ctx.Queue()
        eval_blob = None
        if self._eval_data is not None:
            # Ship-once: one shared copy, mapped by every worker at fork.
            x = np.ascontiguousarray(self._eval_data[0])
            y = np.ascontiguousarray(self._eval_data[1])
            x_buf = self._ctx.RawArray("b", max(x.nbytes, 1))
            np.frombuffer(x_buf, dtype=x.dtype, count=x.size).reshape(x.shape)[
                ...
            ] = x
            y_buf = self._ctx.RawArray("b", max(y.nbytes, 1))
            np.frombuffer(y_buf, dtype=y.dtype, count=y.size).reshape(y.shape)[
                ...
            ] = y
            eval_blob = (
                x_buf, str(x.dtype), x.shape, y_buf, str(y.dtype), y.shape,
            )
            self._eval_arrays = eval_blob
        procs, task_qs, return_slots, slot_free_sems = [], [], [], []
        for wid in range(n_workers):
            if isinstance(clients, PopulationStore):
                # Store pool: ship the column slice, never SimClient
                # pickles.  The parent materialises nothing here.
                owned = clients.shard(owned_ids[wid])
            else:
                owned = {cid: clients[cid] for cid in owned_ids[wid]}
            task_q = self._ctx.Queue()
            return_slot = self._ctx.RawArray("d", max(num_params, 1))
            slot_free = self._ctx.Semaphore(1)
            proc = self._ctx.Process(
                target=_worker_main,
                args=(
                    wid,
                    owned,
                    self._model,
                    self._training,
                    self._shared,
                    return_slot,
                    slot_free,
                    num_params,
                    eval_blob,
                    task_q,
                    self._result_q,
                ),
                daemon=True,
                name=f"repro-exec-{wid}",
            )
            proc.start()
            task_qs.append(task_q)
            return_slots.append(return_slot)
            slot_free_sems.append(slot_free)
            procs.append(proc)
        self._task_qs = task_qs
        self._return_slots = return_slots
        self._slot_free = slot_free_sems
        self._procs = procs

    def _write_segment(self, flat_weights: np.ndarray) -> None:
        """One write into the shared segment, visible to every worker
        before its task message arrives (queue send orders it)."""
        flat = np.asarray(flat_weights, dtype=np.float64).ravel()
        view = np.frombuffer(self._shared, dtype=np.float64, count=flat.size)
        view[:] = flat
        self._ipc_bytes += int(flat.nbytes)

    def _copy_out_slot(self, wid: int) -> np.ndarray:
        """Copy a worker's returned weight vector and free its slot."""
        w = np.frombuffer(
            self._return_slots[wid], dtype=np.float64, count=self._num_params
        ).copy()
        self._slot_free[wid].release()
        self._ipc_bytes += int(w.nbytes)
        return w

    def _next_result(self, waited_box: List[float]):
        """One result-queue read with dead-worker and timeout checks.

        With telemetry on, the blocking ``get`` is observed as this
        backend's queue wait: how long the parent sat idle before a
        worker produced the next result.
        """
        poll = min(1.0, self.result_timeout)
        collect = telemetry.enabled()
        t0 = time.perf_counter() if collect else 0.0
        try:
            blob = self._result_q.get(timeout=poll)
            if collect:
                telemetry.observe(
                    "executor.queue_wait_s",
                    time.perf_counter() - t0,
                    backend=self.name,
                )
            self._ipc_bytes += len(blob)
            return pickle.loads(blob)
        except queue_mod.Empty:
            # Short poll interval so a dead worker (OOM-kill, factory
            # error escaping the per-client try) fails the round in
            # seconds, not after the full result_timeout.
            waited_box[0] += poll
            dead = [p.name for p in self._procs if not p.is_alive()]
            if dead:
                raise ExecutorError(f"worker process(es) died mid-round: {dead}")
            if waited_box[0] >= self.result_timeout:
                raise ExecutorError("timed out waiting for client results")
            return None

    def _submit(self, flat_weights: np.ndarray, kind: str, per_worker, *head) -> int:
        """Allocate a seq, publish the weights and task each worker with
        ``(kind, seq, *head, its share)``; returns the seq to drain."""
        self._seq += 1
        self._write_segment(flat_weights)
        for wid, share in per_worker.items():
            self._ipc_bytes += _ship(self._task_qs[wid], (kind, self._seq, *head, share))
        return self._seq

    def _drain(self, seq: int, expected: int):
        """Yield ``(msg, weights)`` for the ``expected`` results batch
        ``seq`` is owed, in arrival order (``weights`` is the copied-out
        return slot of an ``"ok"``, else ``None``).

        The queue carries every task kind, so anything may precede the
        live batch's results: a message from another seq belongs to an
        abandoned (timed-out) batch -- a worker was slow, not dead -- and
        is dropped whole.  The slot is copied out and released for
        *every* ``"ok"``, stale ones included, or the worker that
        produced it deadlocks on its next acquire.
        """
        waited = [0.0]
        while expected:
            msg = self._next_result(waited)
            if msg is None:
                continue
            # Train results lead with their kind, eval replies with seq.
            trained = isinstance(msg[0], str)
            weights = self._copy_out_slot(msg[2]) if msg[0] == "ok" else None
            if (msg[1] if trained else msg[0]) != seq:
                continue
            expected -= 1
            yield msg, weights

    # ------------------------------------------------------------------
    def _train_cohort(
        self,
        round_idx: int,
        requests: Sequence[TrainRequest],
        global_weights: np.ndarray,
        latencies: Optional[Mapping[int, float]],
    ) -> List[ClientUpdate]:
        jobs: List[_Job] = [(req.client_id, req.epochs) for req in requests]
        per_worker = group_by_owner(jobs, self._owner, key=itemgetter(0))
        seq = self._submit(global_weights, "train", per_worker, round_idx)

        updates: List[ClientUpdate] = []
        failures: List[str] = []
        # NOTE: a client whose "ok" was dropped as stale still advanced
        # its pinned training RNG for the abandoned pass, so a
        # timeout-retry is *correct* (right weights merged, right order)
        # but not bit-identical to an untimed-out serial run -- same as a
        # physical testbed re-running a client.
        for msg, w in self._drain(seq, len(requests)):
            if msg[0] == "ok":
                _, _, _, cid, n_samples, rng_state = msg
                absorb_rng_state(self._clients, cid, rng_state)
                updates.append(self._stamp(cid, w, n_samples, latencies))
            else:
                _, _, _, cid, tb = msg
                failures.append(f"client {cid}:\n{tb}")
        self._raise_failures("client training failed in worker process", failures)
        return order_updates(updates, requests)

    # ------------------------------------------------------------------
    def _evaluate_cohort(
        self,
        requests: Sequence[EvalRequest],
        flat_weights: np.ndarray,
    ) -> Dict[int, float]:
        ids = [req.client_id for req in requests]
        per_worker = group_by_owner(ids, self._owner)
        seq = self._submit(flat_weights, "eval", per_worker)
        accs: Dict[int, float] = {}
        for worker_accs in self._drain_eval(seq, len(per_worker), "client"):
            accs.update(worker_accs)
        return {cid: accs[cid] for cid in ids}

    def _drain_eval(self, seq: int, expected: int, what: str) -> List:
        """Collect the one reply each of ``expected`` tasked workers owes
        evaluation ``seq``; returns their payloads in arrival order.

        Failures are raised only after every reply is in, so the queue
        is left empty for the next call.
        """
        payloads: List = []
        failures: List[str] = []
        for (_, payload, worker_failures), _ in self._drain(seq, expected):
            payloads.append(payload)
            failures += worker_failures
        self._raise_failures(f"{what} evaluation failed in worker process", failures)
        return payloads

    # ------------------------------------------------------------------
    def _eval_shard_workers(self, x: np.ndarray, y: np.ndarray) -> int:
        """Every worker, when it maps exactly this dataset: shipped by
        :meth:`bind_eval_data` before the workers started.  Anything
        else (unbound data, post-start binding) takes the serial
        in-server path."""
        if not self._bound_eval_data_matches(x, y):
            return 0
        self._ensure_started()
        return len(self._procs) if self._eval_arrays is not None else 0

    def _count_sharded(
        self, flat_weights: np.ndarray, x: np.ndarray, y: np.ndarray, bounds: List[Tuple[int, int]]
    ) -> int:
        per_worker = group_by_owner(bounds, deal(bounds, range(len(self._procs))))
        seq = self._submit(flat_weights, "eval_model", per_worker)
        return sum(self._drain_eval(seq, len(per_worker), "global"))

    # ------------------------------------------------------------------
    def close(self) -> None:
        super().close()
        for task_q in self._task_qs:
            try:
                task_q.put(None)
            except (ValueError, OSError):
                pass
        # A worker blocked on a full return slot cannot see the shutdown
        # sentinel; free every slot so in-flight passes can finish.
        for sem in self._slot_free:
            try:
                sem.release()
            except (ValueError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for task_q in self._task_qs:
            task_q.close()
        if self._result_q is not None:
            self._result_q.close()
        self._result_q = None
        self._procs = []
        self._task_qs = []
        self._shared = None
        self._eval_arrays = None
        self._return_slots = []
        self._slot_free = []
        self._owner = {}

    def __del__(self) -> None:  # pragma: no cover - safety net
        try:
            if self._procs:
                self.close()
        except Exception:
            pass
