"""Thread-pool executor with a bounded pool of workspace replicas.

Each in-flight training task checks a private :class:`Sequential` replica
out of a pool capped at ``workers`` instances -- replicas are created
lazily on first demand and reused forever after, so memory is
``workers x model`` regardless of cohort or pool size.

Correctness under concurrency: a client's local pass touches only (a) its
own private dataset, (b) its own ``_train_rng`` stream, and (c) the
replica it has exclusively checked out -- there is no shared mutable
state, so the floating-point operations of each client's pass are
identical to the serial schedule and results are bit-identical.

numpy releases the GIL inside its kernels, so genuinely concurrent
speedup appears once per-client work is dominated by BLAS time; for tiny
models this backend mostly serves as the cheap-to-test concurrency
reference for :class:`repro.execution.process.ProcessExecutor`.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro import telemetry
from repro.execution.base import (
    EVAL_BATCH,
    ClientExecutor,
    EvalRequest,
    ExecutorError,
    TrainRequest,
    eval_shard_bounds,
    evaluate_holdouts,
    order_updates,
)
from repro.nn.model import Sequential
from repro.simcluster.client import ClientUpdate

__all__ = ["ThreadExecutor"]


class ThreadExecutor(ClientExecutor):
    """Train the cohort on a thread pool with replica checkout.

    Evaluation is safe to run concurrently with training (replica
    checkout isolates every task), so this backend supports the round
    pipeline's async eval submission.
    """

    name = "thread"
    supports_async_eval = True

    def __init__(self, workers: int = 2) -> None:
        super().__init__()
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        self.workers = int(workers)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._replicas: "queue.Queue[Sequential]" = queue.Queue()
        self._created = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def replicas_created(self) -> int:
        """How many workspace replicas exist (tested to stay <= workers)."""
        return self._created

    def _started(self) -> bool:
        return self._pool is not None

    def _acquire_replica(self) -> Sequential:
        if not telemetry.enabled():
            return self._acquire_replica_now()
        # Replica-checkout wait IS this backend's queue wait: how long a
        # task sits behind the bounded pool before it can start.
        t0 = time.perf_counter()
        replica = self._acquire_replica_now()
        telemetry.observe(
            "executor.replica_wait_s",
            time.perf_counter() - t0,
            backend=self.name,
        )
        return replica

    def _acquire_replica_now(self) -> Sequential:
        try:
            return self._replicas.get_nowait()
        except queue.Empty:
            pass
        with self._lock:
            if self._created < self.workers:
                self._created += 1
                # Replica init weights are throwaway: train() overwrites
                # them with the broadcast global vector on entry.
                return self._model.clone_architecture(rng=self._created)
        return self._replicas.get()

    def _release_replica(self, replica: Sequential) -> None:
        self._replicas.put(replica)

    # ------------------------------------------------------------------
    def _train_one(
        self,
        req: TrainRequest,
        round_idx: int,
        global_weights: np.ndarray,
        latencies: Optional[Mapping[int, float]],
    ) -> ClientUpdate:
        client = self._clients[req.client_id]
        replica = self._acquire_replica()
        collect = telemetry.enabled()
        try:
            factory = self._training.optimizer_factory(round_idx)
            t0 = time.perf_counter() if collect else 0.0
            w = client.train(
                replica,
                global_weights,
                factory,
                batch_size=self._training.batch_size,
                epochs=req.epochs,
                prox_mu=self._training.prox_mu,
            )
            if collect:
                telemetry.observe(
                    "executor.client_train_s",
                    time.perf_counter() - t0,
                    backend=self.name,
                )
        finally:
            self._release_replica(replica)
        return self._stamp(req.client_id, w, client.num_train_samples, latencies)

    def _ensure_pool(self) -> ThreadPoolExecutor:
        # Locked: an async eval submission can race the training path to
        # the first cohort, and two pools must never exist.
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="repro-exec"
                )
        return self._pool

    def train_cohort(
        self,
        round_idx: int,
        requests: Sequence[TrainRequest],
        global_weights: np.ndarray,
        latencies: Optional[Mapping[int, float]] = None,
    ) -> List[ClientUpdate]:
        self._check_requests(requests)
        if not requests:
            return []
        self._ensure_pool()
        with telemetry.span(
            "executor.train_cohort",
            backend=self.name,
            round=round_idx,
            clients=len(requests),
        ):
            futures = [
                self._pool.submit(
                    self._train_one, req, round_idx, global_weights, latencies
                )
                for req in requests
            ]
            updates: List[ClientUpdate] = []
            error: Optional[Exception] = None
            for fut in as_completed(futures):
                try:
                    updates.append(fut.result())
                except Exception as exc:  # keep draining so the pool
                    # settles; KeyboardInterrupt/SystemExit propagate as
                    # interrupts instead of masquerading as a failure
                    error = error or exc
            if error is not None:
                raise ExecutorError(
                    f"client training failed: {error}"
                ) from error
            return order_updates(updates, requests)

    # ------------------------------------------------------------------
    def _eval_chunk(self, client_ids: List[int], flat_weights: np.ndarray):
        replica = self._acquire_replica()
        try:
            return evaluate_holdouts(replica, self._clients, client_ids, flat_weights)
        finally:
            self._release_replica(replica)

    def evaluate_cohort(
        self,
        requests: Sequence[EvalRequest],
        flat_weights: np.ndarray,
    ) -> Dict[int, float]:
        """One contiguous chunk of the cohort per worker thread: one
        replica check-out and one weight load per chunk."""
        self._check_requests(requests)
        if not requests:
            return {}
        self._ensure_pool()
        ids = [req.client_id for req in requests]
        size = -(-len(ids) // self.workers)  # ceil
        with telemetry.span("executor.eval_cohort", backend=self.name, clients=len(ids)):
            futures = [
                self._pool.submit(self._eval_chunk, ids[a : a + size], flat_weights)
                for a in range(0, len(ids), size)
            ]
            accs: Dict[int, float] = {}
            failures: Dict[int, str] = {}
            # Chunk order is request order, so the merge needs no re-keying.
            for fut in futures:
                chunk_accs, chunk_failures = fut.result()
                accs.update(chunk_accs)
                failures.update(chunk_failures)
        self._raise_eval_failures(failures)
        return accs

    def evaluate_model(
        self, flat_weights: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> float:
        """Shard the dataset over replicas; bit-identical to one pass.

        Shard boundaries fall on multiples of the serial eval batch size,
        so each sample's logits come from exactly the forward batch the
        serial pass would have placed it in, and correct-counts sum
        exactly -- the combined accuracy equals ``float(np.mean(...))``
        of the full pass bit-for-bit.  Small inputs (fewer batches than
        workers would meaningfully split) take the serial path.
        """
        self._require_bound()
        n = int(x.shape[0])
        bounds = eval_shard_bounds(n, self.workers)
        if bounds is None:
            return super().evaluate_model(flat_weights, x, y)
        self._ensure_pool()
        y_arr = np.asarray(y)

        collect = telemetry.enabled()

        def _count_correct(a: int, b: int) -> int:
            replica = self._acquire_replica()
            t0 = time.perf_counter() if collect else 0.0
            try:
                replica.set_flat_weights(flat_weights)
                preds = replica.predict(x[a:b], batch_size=EVAL_BATCH)
            finally:
                self._release_replica(replica)
            if collect:
                telemetry.observe(
                    "executor.eval_shard_s",
                    time.perf_counter() - t0,
                    backend=self.name,
                )
            return int(np.count_nonzero(preds == y_arr[a:b]))

        with telemetry.span(
            "executor.eval_model",
            backend=self.name,
            samples=n,
            shards=len(bounds),
        ):
            futures = [
                self._pool.submit(_count_correct, a, b) for a, b in bounds
            ]
            correct = 0
            error: Optional[Exception] = None
            for fut in as_completed(futures):
                try:
                    correct += fut.result()
                except Exception as exc:
                    error = error or exc
            if error is not None:
                raise ExecutorError(
                    f"global evaluation failed: {error}"
                ) from error
            return float(correct / n)

    def close(self) -> None:
        super().close()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        while True:
            try:
                self._replicas.get_nowait()
            except queue.Empty:
                break
        self._created = 0
