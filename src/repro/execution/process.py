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
  (:func:`repro.execution.base.train_client` reads it,
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
* **One shared half, one pipe.**  Jobs, merging and failures are
  :class:`repro.execution.pool.PoolExecutor`'s; a worker serves a train
  order with :func:`repro.execution.pool.serve_train`, an eval order
  with :func:`repro.execution.base.evaluate_holdouts` and an eval-model
  order with :func:`repro.execution.pool.count_shards` (both of which
  load the weights into the replica once per order).  Every reply is
  ``(kind, seq, worker, [(key, value, error), ...])``: one per trained
  client, one per worker for an evaluation.
* **One result queue.**  Every kind of reply shares one queue and one
  drain (:meth:`ProcessExecutor._run`): a reply from an abandoned
  (timed-out) seq of *any* kind is dropped whole, and every trained
  update -- stale ones included -- still frees its return slot.
* **Deterministic merge.**  Results arrive in completion order and are
  reordered into request order before the server ever sees them.

Workers start in :func:`repro.execution.pool.worker_context`: ``fork``
where available (the client datasets are shared copy-on-write), else
``spawn``.
"""

from __future__ import annotations

import pickle
import queue as queue_mod
import time
from typing import Dict, List

import numpy as np

from repro import telemetry
from repro.config import TrainingConfig
from repro.execution.base import ExecutorError, evaluate_holdouts
from repro.execution.pool import (
    OnResult, PoolExecutor, count_shards, deal, group_by_owner, serve_train, worker_context,
)
from repro.nn.model import Sequential
from repro.simcluster.client import SimClient
from repro.simcluster.population import (
    PopulationShard,
    PopulationStore,
    ShardClients,
)

__all__ = ["ProcessExecutor"]


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
    """Worker loop: serve each ``(kind, seq, round_idx, share)`` order
    against the shared weights until the ``None`` sentinel."""
    if isinstance(clients, PopulationShard):
        # Sharded pool: column slice in, lazy local store out.
        pool = ShardClients()
        pool.add(PopulationStore.from_columns(clients))
        clients = pool
    global_flat = np.frombuffer(shared_weights, dtype=np.float64, count=num_params)
    slot_view = np.frombuffer(return_slot, dtype=np.float64, count=num_params)
    eval_x = eval_y = None
    if eval_data is not None:  # ((buffer, dtype, shape), (...)) for x, y
        eval_x, eval_y = (np.frombuffer(b, dtype=d).reshape(shape) for b, d, shape in eval_data)
    while True:
        blob = task_q.get()
        if blob is None:
            break
        kind, seq, round_idx, share = pickle.loads(blob)

        def post(results) -> None:
            _ship(result_q, (kind, seq, worker_id, results))

        if kind == "train":

            def reply(cid, w, num_samples, state) -> None:
                # Shared-memory return: wait until the parent freed this
                # worker's slot, write the weights, then post metadata
                # only.  The parent frees the slot for every trained
                # update it drains -- stale ones included -- so this
                # acquire can never deadlock a live parent.
                slot_free.acquire()
                slot_view[: w.size] = w
                post([(cid, (num_samples, state), None)])

            serve_train(
                clients, workspace, global_flat, training, round_idx, share,
                reply, lambda cid, tb: post([(cid, None, tb)]),
            )
        elif kind == "eval":
            accs, failed = evaluate_holdouts(workspace, clients, share, global_flat)
            post([(cid, accs.get(cid), failed.get(cid)) for cid in share])
        else:
            post(count_shards(workspace, eval_x, eval_y, share, global_flat))


def _ship(q, msg) -> int:
    """Post a task or result as the bytes the accounting counts.

    Pickled here, once: the queue then moves an opaque ``bytes`` object,
    so the receiver reads its length (returned to a counting sender)
    instead of re-serialising the message it just un-pickled.
    """
    blob = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
    q.put(blob)
    return len(blob)


class ProcessExecutor(PoolExecutor):
    """Train the cohort across persistent, client-pinned worker processes.

    ``result_timeout`` bounds *accumulated idle poll time*: only the
    seconds the parent spent blocked on an empty result queue while
    collecting one batch count (:meth:`_run`), so workers that keep
    delivering never time out, however long the cohort runs.  The
    distributed coordinator's parameter of the same name is instead a
    wall-clock deadline for the whole cohort.
    """

    name = "process"

    def __init__(self, workers: int = 2, result_timeout: float = 600.0) -> None:
        super().__init__()
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if result_timeout <= 0:
            raise ValueError(f"result_timeout must be positive, got {result_timeout}")
        self.workers = int(workers)
        self.result_timeout = float(result_timeout)
        self._ctx = worker_context()
        self._procs: List = []
        self._task_qs: List = []
        self._result_q = None
        self._shared = None
        self._eval_arrays = None  # shared-memory copy of the bound eval set
        self._return_slots: List = []
        self._slot_free: List = []
        self._num_params = 0
        self._seq = 0  # batch sequence number; guards against stale results
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

    def _eval_holders(self) -> List[int]:
        """Every worker, when the eval set was mapped into shared memory
        before they forked; data bound after start cannot be mapped."""
        return list(range(len(self._procs))) if self._eval_arrays is not None else []

    def _eval_copy_shipped(self) -> bool:
        return self._eval_arrays is not None

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
            x, y = self._eval_data
            eval_blob = self._eval_arrays = (self._share(x), self._share(y))
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

    def _share(self, a: np.ndarray):
        """A shared-memory copy of ``a`` as ``(buffer, dtype, shape)``."""
        a = np.ascontiguousarray(a)
        buf = self._ctx.RawArray("b", max(a.nbytes, 1))
        np.frombuffer(buf, dtype=a.dtype, count=a.size).reshape(a.shape)[...] = a
        return buf, str(a.dtype), a.shape

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

    def _next_result(self, poll: float):
        """One result-queue read: the reply, or ``None`` after ``poll``
        idle seconds -- unless a worker died, which fails the batch.

        With telemetry on, the blocking ``get`` is observed as this
        backend's queue wait: how long the parent sat idle before a
        worker produced the next result.
        """
        collect = telemetry.enabled()
        t0 = time.perf_counter() if collect else 0.0
        try:
            blob = self._result_q.get(timeout=poll)
        except queue_mod.Empty:
            # Short polls, so a dead worker (OOM-kill, factory error
            # escaping the per-client guard) fails the batch in seconds,
            # not after the full result_timeout.
            dead = [p.name for p in self._procs if not p.is_alive()]
            if dead:
                raise ExecutorError(f"worker process(es) died mid-round: {dead}")
            return None
        if collect:
            telemetry.observe(
                "executor.queue_wait_s", time.perf_counter() - t0, backend=self.name
            )
        self._ipc_bytes += len(blob)
        return pickle.loads(blob)

    def _run(
        self,
        kind: str,
        round_idx: int,
        weights: np.ndarray,
        per_worker: Dict[int, list],
        what: str,
        on_result: OnResult,
    ) -> None:
        """Publish ``weights`` in the shared segment, task each worker with
        ``(kind, seq, round_idx, its share)`` and drain one result per job.

        The queue carries every kind, so anything may precede the live
        batch's replies: a reply from another seq belongs to an abandoned
        (timed-out) batch -- a worker was slow, not dead -- and is dropped
        whole.  A trained update's slot is copied out and released by the
        *reply's* kind, whatever batch is live, or the worker that wrote
        it deadlocks on its next acquire.  A client whose update was
        dropped as stale still advanced its pinned RNG, so a retry after a
        timeout is correct but not bit-identical to an untimed-out serial
        run -- as on a testbed that re-runs a client.
        """
        self._seq += 1
        self._write_segment(weights)
        for wid, share in per_worker.items():
            self._ipc_bytes += _ship(self._task_qs[wid], (kind, self._seq, round_idx, share))
        expected = sum(len(share) for share in per_worker.values())
        poll = min(1.0, self.result_timeout)
        idle = 0.0
        while expected:
            msg = self._next_result(poll)
            if msg is None:
                idle += poll
                if idle >= self.result_timeout:
                    raise ExecutorError(f"timed out waiting for {expected} {what}")
                continue
            reply_kind, seq, wid, results = msg
            if reply_kind == "train":
                results = [
                    (cid, value if error is not None else (self._copy_out_slot(wid), *value), error)
                    for cid, value, error in results
                ]
            if seq != self._seq:
                continue
            for key, value, error in results:
                expected -= 1
                on_result(wid, key, value, error)

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

    def __del__(self) -> None:  # pragma: no cover - safety net
        try:
            if self._procs:
                self.close()
        except Exception:
            pass
