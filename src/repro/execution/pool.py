"""The transport-agnostic worker-pool core.

The ``process`` and ``distributed`` backends are two transports (shared
memory + queues, framed TCP) over one scheme: deal the sorted client ids
over the workers, group each cohort by owner, train every client where
it is pinned and write its advanced training-RNG state back into the
authoritative pool.  What does not depend on the pipe lives here, once:

* **worker ops** -- :func:`serve_train` (one train order: one optimizer
  factory, then :func:`repro.execution.base.train_client` per job under
  a per-client guard) and :func:`count_shards` (one eval-model order,
  failure captured); the holdout twin is
  :func:`repro.execution.base.evaluate_holdouts`;
* **partitioner** -- :func:`deal` and :func:`group_by_owner`;
* **directory** -- :func:`owned_by` and :func:`absorb_rng_state`;
* **executor half** -- :class:`PoolExecutor`: build the jobs, group them
  by owner, merge results, stamp, raise the failures and return in
  request order.  A backend supplies its pipe, :meth:`PoolExecutor._run`,
  and two hooks on the resident eval set.

It imports the executor contract (:mod:`repro.execution.base`) and
neither backend.  What stays per pipe is the collector:
``ProcessExecutor._run`` drains one result queue, and
``DistributedExecutor._run`` drives ``repro.distributed.coordinator._InFlight``
with ``DistributedExecutor._collect``.
"""

from __future__ import annotations

import multiprocessing as mp
import traceback
from operator import itemgetter
from typing import Callable, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.config import TrainingConfig
from repro.execution.base import (
    ClientExecutor,
    EvalRequest,
    ExecutorError,
    TrainRequest,
    count_correct,
    order_updates,
    train_client,
)
from repro.nn.model import Sequential
from repro.simcluster.client import ClientUpdate, SimClient
from repro.simcluster.population import PopulationStore

__all__ = [
    "PoolExecutor", "serve_train", "count_shards", "worker_context",
    "deal", "group_by_owner", "owned_by", "absorb_rng_state",
]

#: ``on_result(worker_id, key, value, error)``: one job's result, keyed
#: by client id (train, eval) or ``(start, end)`` shard (eval model).
OnResult = Callable[[int, Hashable, object, Optional[str]], None]

#: Per batch kind: the unit a timeout counts, and what a failure failed at.
_KINDS = {
    "train": ("client update(s)", "client training failed"),
    "eval": ("evaluation result(s)", "client evaluation failed"),
    "eval_model": ("evaluation shard(s)", "global evaluation failed"),
}


def worker_context():
    """The ``multiprocessing`` context local workers start in: ``fork``
    where available (cheap: the parent's data is shared copy-on-write),
    else ``spawn``.  The ``process`` pool and ``spawn_local_workers``
    both start theirs here."""
    return mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")


def serve_train(
    clients: Mapping[int, SimClient], workspace: Sequential, global_flat: np.ndarray,
    training: TrainingConfig, round_idx: int, jobs: Iterable[Tuple[int, int]],
    reply: Callable[[int, np.ndarray, int, Optional[dict]], None], fail: Callable[[int, str], None],
) -> None:
    """A worker's train order: one optimizer factory for the round, then
    each ``(client_id, epochs)`` job in order, answered with
    ``reply(client_id, weights, num_samples, rng_state)``.

    The reply runs inside the per-client guard, so a failed slot write or
    encode is that client's failure, ``fail(client_id, traceback)``, and
    the worker lives on.  The guard is ``Exception``, not
    ``BaseException``: a Ctrl-C must end the worker, not read as a
    training failure.
    """
    factory = training.optimizer_factory(round_idx)
    for client_id, epochs in jobs:
        try:
            w, num_samples, state = train_client(
                clients[client_id], workspace, global_flat, factory, training, epochs
            )
            reply(client_id, w, num_samples, state)
        except Exception:
            fail(client_id, traceback.format_exc())


def count_shards(
    workspace: Sequential, x: np.ndarray, y: np.ndarray,
    bounds: Sequence[Tuple[int, int]], flat_weights: np.ndarray,
) -> List[Tuple[Tuple[int, int], Optional[int], Optional[str]]]:
    """A worker's eval-model order: ``(shard, correct, error)`` per bound,
    :func:`repro.execution.base.count_correct` with its failure captured
    (one load serves the order, so a failure fails every shard alike)."""
    try:
        counts: List[Optional[int]] = count_correct(workspace, x, y, bounds, flat_weights)
        error = None
    except Exception:
        counts, error = [None] * len(bounds), traceback.format_exc()
    return [((a, b), correct, error) for (a, b), correct in zip(bounds, counts)]


def deal(sorted_ids: Iterable[Hashable], cycle: Sequence[int]) -> Dict[Hashable, int]:
    """Deal ``sorted_ids`` round-robin over ``cycle``: id -> owner.

    ``cycle`` lists one slot per unit of worker capacity, so the
    ``process`` pin is ``range(workers)`` and a capacity-2 TCP worker
    appears twice in a row.  The same function pins the population,
    spreads eval-model shards and re-deals a dead worker's orphans over
    the survivors (ids that are not passed in never move).
    """
    return {key: cycle[i % len(cycle)] for i, key in enumerate(sorted_ids)}


def group_by_owner(
    items: Iterable, owner: Mapping[Hashable, int], key: Callable = lambda item: item
) -> Dict[int, list]:
    """Bucket ``items`` by ``owner[key(item)]``.

    Item order is kept inside each bucket and buckets appear in
    first-seen order, so a request-ordered cohort stays request-ordered
    per worker.
    """
    groups: Dict[int, list] = {}
    for item in items:
        groups.setdefault(owner[key(item)], []).append(item)
    return groups


def owned_by(owner: Mapping[int, int], worker_id: int) -> List[int]:
    """The sorted ids ``worker_id`` currently holds."""
    return sorted(cid for cid, wid in owner.items() if wid == worker_id)


def absorb_rng_state(
    clients: Mapping[int, SimClient], client_id: int, state: Optional[dict]
) -> None:
    """Make a shipped-back training-RNG ``state`` authoritative.

    A population store takes it into its ledger without materialising
    the client (the parent stays at O(cohort) resident objects, and the
    next shard (re-)ship carries this position); a hand-built dict pool
    writes it into the live client object.
    """
    if state is None:
        return
    if isinstance(clients, PopulationStore):
        clients.restore_rng_state(client_id, train_state=state)
        return
    rng = getattr(clients[client_id], "_train_rng", None)
    if rng is not None:
        rng.bit_generator.state = state


class PoolExecutor(ClientExecutor):
    """The executor half both worker pools share.

    Every operation is *build the jobs -> group them by owner ->*
    :meth:`_run` *-> assemble*: values merge as they arrive (a trained
    update's RNG state is absorbed at once), captured failures are raised
    together once the batch is done, each naming its worker, and updates
    return in request order.  A backend fills ``_owner`` (client id ->
    worker id) when its workers start and supplies :meth:`_run` plus the
    two eval-set hooks.
    """

    def __init__(self) -> None:
        super().__init__()
        self._owner: Dict[int, int] = {}

    def _run(
        self, kind: str, round_idx: int, weights: np.ndarray, per_worker: Dict[int, list],
        what: str, on_result: OnResult,
    ) -> None:
        """The pipe: send each worker its ``kind`` order (``"train"``,
        ``"eval"``, ``"eval_model"``) over ``weights``, then call
        ``on_result`` once per job; a timeout names the outstanding
        ``what``."""
        raise NotImplementedError

    def _eval_holders(self) -> List[int]:
        """The workers holding the eval set :meth:`bind_eval_data` bound."""
        raise NotImplementedError

    def _eval_copy_shipped(self) -> bool:
        """Whether workers already hold a copy of the bound eval set."""
        raise NotImplementedError

    def owner_of(self, client_id: int) -> int:
        """Worker a client is currently pinned to."""
        if not self._started():
            raise ExecutorError("executor not started yet")
        return self._owner[client_id]

    def bind_eval_data(self, x: np.ndarray, y: np.ndarray) -> None:
        """Bind the server-held eval set; it ships to the workers once, and
        re-binding different data after that is an error (the ship-once
        invariant that makes the per-round sharding free)."""
        if self._bound_eval_data_matches(x, y):
            return
        if self._eval_copy_shipped():
            raise ExecutorError(
                f"{self.name} executor already shipped an eval set to its "
                "workers; create a fresh executor to bind different data"
            )
        super().bind_eval_data(x, y)

    def _gather(
        self, kind: str, round_idx: int, weights: np.ndarray, per_worker: Dict[int, list],
        merge: Callable[[Hashable, object], None] = lambda key, value: None,
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

        self._run(kind, round_idx, weights, per_worker, what, on_result)
        self._raise_failures(f"{failed} on {self.name} worker(s)", failures)
        return values

    def _train_cohort(
        self, round_idx: int, requests: Sequence[TrainRequest], global_weights: np.ndarray,
        latencies: Optional[Mapping[int, float]],
    ) -> List[ClientUpdate]:
        jobs = [(req.client_id, req.epochs) for req in requests]
        trained = self._gather(
            "train", round_idx, global_weights, group_by_owner(jobs, self._owner, itemgetter(0)),
            # On arrival: a resume or re-deal mid-cohort re-ships the RNG
            # ledger as merged so far.
            lambda cid, value: absorb_rng_state(self._clients, cid, value[2]),
        )
        updates = [self._stamp(cid, w, n, latencies) for cid, (w, n, _) in trained.items()]
        return order_updates(updates, requests)

    def _evaluate_cohort(
        self, requests: Sequence[EvalRequest], flat_weights: np.ndarray
    ) -> Dict[int, float]:
        ids = [req.client_id for req in requests]
        accs = self._gather("eval", 0, flat_weights, group_by_owner(ids, self._owner))
        return {cid: accs[cid] for cid in ids}

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
        per_worker = group_by_owner(bounds, deal(bounds, self._eval_holders()))
        return sum(self._gather("eval_model", 0, flat_weights, per_worker).values())
