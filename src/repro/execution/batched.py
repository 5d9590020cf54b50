"""Cohort-batched executor: the whole cohort trains as one tensor program.

Where the serial backend walks the cohort client by client -- paying
Python-loop and small-GEMM overhead ``C`` times per mini-batch step --
this backend stacks the cohort along a leading client axis
(:class:`repro.nn.stacked.StackedSequential`) so each SGD step is one
batched GEMM per layer.  On the 1-core container where per-client
training dominates the round ~20x over eval, this is the raw-speed lever
named by the ROADMAP: TiFL's same-tier cohorts are homogeneous, which is
exactly the property that lets ``C`` small matmuls fuse into one BLAS
call.

Cohort grouping
---------------
Stacking requires a shared batch schedule, so a cohort is partitioned
into groups keyed by ``(num_train_samples, epochs)``; each group trains
as one stacked program and a maximally heterogeneous cohort degenerates
to per-client groups (correct, merely unfused).  Within a group, every
client's epoch shuffle is still drawn from its *own* train RNG
(:meth:`repro.simcluster.client.SimClient.epoch_shuffle` -- the same
one-permutation-per-epoch consumption as the serial path), so mixing
executors across rounds never desynchronises client RNG streams and the
stacked mini-batches contain exactly the samples serial ones would.

Numerics contract (the ``batched`` stream)
------------------------------------------
This backend is **not** part of the bit-identity family.  Stacked
matmuls may reduce in a different order than per-client GEMMs, and
float64 addition is not associative, so trained weights equal the serial
reference only to rounding (typically ~1e-12 relative per step).
Following the latency-v2 precedent, ``batched`` is pinned as a separate
versioned numerics stream: serial/process/distributed remain
default and bit-identical to each other, while this backend is gated by
golden-value pins and stacked-vs-serial accuracy-tolerance tests
(``tests/execution/test_batched_executor.py``) and excluded from the
bit-identity hard gates.  *Evaluation* is untouched -- it runs through
the ordinary per-client kernels, so given equal weights this backend's
eval results are bit-identical to serial.  See ``docs/numerics.md``.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.execution.base import (
    ClientExecutor,
    ExecutorError,
    TrainRequest,
)
from repro.nn.stacked import StackedSequential
from repro.simcluster.client import ClientUpdate

__all__ = ["BatchedExecutor"]

#: How many stacked dataset tensors to keep resident.  Each entry is one
#: cohort-group's ``(C, n, *sample_shape)`` float64 copy; selectors
#: usually re-draw similar cohorts, so a tiny LRU avoids re-stacking the
#: same group every round without letting memory grow with cohort churn.
STACK_CACHE_ENTRIES = 4

#: Maximum clients per stacked program.  Larger groups are split into
#: chunks of this size, trained back to back.  Purely a performance
#: knob: per-client independence means the chunking never changes any
#: client's result -- but it bounds the working set (params + optimizer
#: state + activations scale with the chunk, not the cohort) so an
#: epoch's repeated elementwise passes stay cache-resident instead of
#: streaming tens of MB from DRAM every step.  16 won the empirical
#: sweep on the 1-core container (8 leaves BLAS batching on the table,
#: 50 thrashes L3 with optimizer state).
MAX_STACK_CLIENTS = 16


class BatchedExecutor(ClientExecutor):
    """Train each homogeneous cohort group as one stacked tensor program.

    Single-process and thread-free: the parallelism is inside BLAS, not
    the OS, so ``workers`` is ignored (accepted for interface symmetry).
    Evaluation is the base class's in-server pass on the ordinary
    per-client kernels (holdout sizes vary per client, so stacking buys
    little) against the bound workspace model.
    """

    name = "batched"

    def __init__(self, workers: int = 1) -> None:
        super().__init__()
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        # One StackedSequential per distinct group size C (weights are
        # reloaded from the broadcast every round, so reuse is safe).
        self._stacks: Dict[int, StackedSequential] = {}
        self._data_cache: "OrderedDict[Tuple[int, ...], Tuple[np.ndarray, np.ndarray]]" = OrderedDict()

    def _started(self) -> bool:
        return bool(self._stacks)

    # ------------------------------------------------------------------
    def _stack_for(self, num_clients: int) -> StackedSequential:
        stack = self._stacks.get(num_clients)
        if stack is None:
            stack = StackedSequential(
                self._model, num_clients, rng=num_clients
            )
            self._stacks[num_clients] = stack
        return stack

    def _stacked_data(
        self, client_ids: Tuple[int, ...]
    ) -> Tuple[np.ndarray, np.ndarray]:
        cached = self._data_cache.get(client_ids)
        if cached is not None:
            self._data_cache.move_to_end(client_ids)
            return cached
        xs = np.stack(
            [self._clients[cid].train_data.x for cid in client_ids]
        ).astype(np.float64, copy=False)
        ys = np.stack([self._clients[cid].train_data.y for cid in client_ids])
        self._data_cache[client_ids] = (xs, ys)
        while len(self._data_cache) > STACK_CACHE_ENTRIES:
            self._data_cache.popitem(last=False)
        return xs, ys

    def _anchor_weights(self, flat: np.ndarray) -> List[np.ndarray]:
        """Unflatten a broadcast vector into template-shaped anchors."""
        out: List[np.ndarray] = []
        offset = 0
        for layer in self._model.layers:
            for name in sorted(layer.params):
                shape = layer.params[name].shape
                size = int(np.prod(shape))
                out.append(flat[offset : offset + size].reshape(shape))
                offset += size
        return out

    @staticmethod
    def _group_requests(
        requests: Sequence[TrainRequest], clients
    ) -> List[Tuple[int, int, List[TrainRequest]]]:
        """Partition a cohort into stackable ``(n_samples, epochs, reqs)``.

        Grouping key = ``(num_train_samples, epochs)``: equal sample
        counts give equal batch schedules, which is the homogeneity
        stacking needs.  Group order follows the request order, so a
        fully homogeneous cohort is one run of groups in request order.
        Groups larger than :data:`MAX_STACK_CLIENTS` are split into
        chunks of that size (a cache-residency knob -- per-client
        independence means chunking never changes results).
        """
        grouped: "OrderedDict[Tuple[int, int], List[TrainRequest]]" = OrderedDict()
        for req in requests:
            key = (clients[req.client_id].num_train_samples, req.epochs)
            grouped.setdefault(key, []).append(req)
        out: List[Tuple[int, int, List[TrainRequest]]] = []
        for (n_samples, epochs), reqs in grouped.items():
            for i in range(0, len(reqs), MAX_STACK_CLIENTS):
                out.append((n_samples, epochs, reqs[i : i + MAX_STACK_CLIENTS]))
        return out

    # ------------------------------------------------------------------
    def train_cohort(
        self,
        round_idx: int,
        requests: Sequence[TrainRequest],
        global_weights: np.ndarray,
        latencies: Optional[Mapping[int, float]] = None,
    ) -> List[ClientUpdate]:
        clients = self._check_requests(requests)
        if not requests:
            return []
        groups = self._group_requests(requests, clients)
        prox_mu = self._training.prox_mu
        anchor = (
            self._anchor_weights(np.asarray(global_weights, dtype=np.float64))
            if prox_mu > 0.0
            else None
        )
        collect = telemetry.enabled()
        by_id: Dict[int, ClientUpdate] = {}
        with telemetry.span(
            "executor.train_cohort",
            backend=self.name,
            round=round_idx,
            clients=len(requests),
            groups=len(groups),
        ):
            for n_samples, epochs, group in groups:
                t0 = time.perf_counter() if collect else 0.0
                cids = tuple(req.client_id for req in group)
                xs, ys = self._stacked_data(cids)
                stack = self._stack_for(len(cids))
                stack.set_flat_weights(global_weights)
                try:
                    optimizer = self._training.optimizer_factory(round_idx)()
                    for _ in range(epochs):
                        orders = np.stack(
                            [clients[cid].epoch_shuffle() for cid in cids]
                        )
                        stack.fit_epoch(
                            xs,
                            ys,
                            optimizer,
                            batch_size=self._training.batch_size,
                            orders=orders,
                            prox_anchor=anchor,
                            prox_mu=prox_mu,
                        )
                except Exception as exc:
                    raise ExecutorError(
                        f"stacked training failed for clients {list(cids)}: "
                        f"{exc}"
                    ) from exc
                trained = stack.get_flat_weights()
                for i, cid in enumerate(cids):
                    by_id[cid] = self._stamp(cid, trained[i], n_samples, latencies)
                if collect:
                    telemetry.observe(
                        "executor.stack_group_s",
                        time.perf_counter() - t0,
                        backend=self.name,
                    )
                    telemetry.observe(
                        "executor.stack_group_clients",
                        float(len(cids)),
                        backend=self.name,
                    )
        return [by_id[req.client_id] for req in requests]

    def close(self) -> None:
        super().close()
        self._stacks.clear()
        self._data_cache.clear()
