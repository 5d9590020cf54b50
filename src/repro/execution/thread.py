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
from concurrent.futures import Future, ThreadPoolExecutor, as_completed
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.execution.base import (
    ClientExecutor,
    EvalRequest,
    ExecutorError,
    TrainRequest,
    count_correct,
    evaluate_holdouts,
    order_updates,
)
from repro.nn.model import Sequential
from repro.simcluster.client import ClientUpdate

__all__ = ["ThreadExecutor"]


class ThreadExecutor(ClientExecutor):
    """Train the cohort on a thread pool with replica checkout."""

    name = "thread"

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
        replica = self._acquire_replica()
        try:
            factory = self._training.optimizer_factory(round_idx)
            return self._train_request(req, replica, global_weights, factory, latencies)
        finally:
            self._release_replica(replica)

    def _ensure_started(self) -> None:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-exec"
            )

    def _train_cohort(
        self,
        round_idx: int,
        requests: Sequence[TrainRequest],
        global_weights: np.ndarray,
        latencies: Optional[Mapping[int, float]],
    ) -> List[ClientUpdate]:
        futures = [
            self._pool.submit(self._train_one, req, round_idx, global_weights, latencies)
            for req in requests
        ]
        return order_updates(self._gather(futures, "client training"), requests)

    @staticmethod
    def _gather(futures: List[Future], what: str) -> list:
        """Every future's result, in completion order; the first failure
        is raised as ``what failed`` once all of them have settled."""
        results = []
        error: Optional[Exception] = None
        for fut in as_completed(futures):
            try:
                results.append(fut.result())
            except Exception as exc:  # keep draining so the pool
                # settles; KeyboardInterrupt/SystemExit propagate as
                # interrupts instead of masquerading as a failure
                error = error or exc
        if error is not None:
            raise ExecutorError(f"{what} failed: {error}") from error
        return results

    # ------------------------------------------------------------------
    def _eval_chunk(self, client_ids: List[int], flat_weights: np.ndarray):
        replica = self._acquire_replica()
        try:
            return evaluate_holdouts(replica, self._clients, client_ids, flat_weights)
        finally:
            self._release_replica(replica)

    def _evaluate_cohort(
        self,
        requests: Sequence[EvalRequest],
        flat_weights: np.ndarray,
    ) -> Dict[int, float]:
        """One contiguous chunk of the cohort per worker thread: one
        replica check-out and one weight load per chunk."""
        ids = [req.client_id for req in requests]
        size = -(-len(ids) // self.workers)  # ceil
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

    def _eval_shard_workers(self, x: np.ndarray, y: np.ndarray) -> int:
        return self.workers

    def _count_sharded(
        self, flat_weights: np.ndarray, x: np.ndarray, y: np.ndarray, bounds: List[Tuple[int, int]]
    ) -> int:
        """One shard per replica check-out; small inputs (fewer batches
        than workers would meaningfully split) took the serial path."""
        self._ensure_started()
        y_arr = np.asarray(y)
        collect = telemetry.enabled()

        def _count_shard(bound: Tuple[int, int]) -> int:
            replica = self._acquire_replica()
            t0 = time.perf_counter() if collect else 0.0
            try:
                correct = count_correct(replica, x, y_arr, [bound], flat_weights)[0]
            finally:
                self._release_replica(replica)
            if collect:
                telemetry.observe(
                    "executor.eval_shard_s",
                    time.perf_counter() - t0,
                    backend=self.name,
                )
            return correct

        futures = [self._pool.submit(_count_shard, bound) for bound in bounds]
        return sum(self._gather(futures, "global evaluation"))

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
