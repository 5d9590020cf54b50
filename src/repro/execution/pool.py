"""The transport-agnostic worker-pool core.

The ``process`` and ``distributed`` backends are one coordinator
(:class:`repro.distributed.coordinator.PoolExecutor`) over two pipes
(forked socketpair workers, TCP workers) and one scheme: deal the
sorted client ids over the workers, group each cohort by owner, train
every client where it is pinned and write its advanced training-RNG
state back into the authoritative pool.  The pieces both sides of the
wire call live here, once:

* **worker ops** -- :func:`serve_train` (one train order: one optimizer
  factory, then :func:`repro.execution.base.train_client` per job under
  a per-client guard) and :func:`count_shards` (one eval-model order,
  failure captured); the holdout twin is
  :func:`repro.execution.base.evaluate_holdouts`;
* **partitioner** -- :func:`deal` and :func:`group_by_owner`;
* **directory** -- :func:`owned_by` and :func:`absorb_rng_state`.

It imports the executor contract (:mod:`repro.execution.base`) and no
backend, so a worker agent loads it without the coordinator.
"""

from __future__ import annotations

import traceback
from typing import Callable, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.config import TrainingConfig
from repro.execution.base import count_correct, train_client
from repro.nn.model import Sequential
from repro.simcluster.client import SimClient
from repro.simcluster.population import PopulationStore

__all__ = [
    "serve_train", "count_shards", "deal", "group_by_owner", "owned_by", "absorb_rng_state",
]


def serve_train(
    clients: Mapping[int, SimClient], workspace: Sequential, global_flat: np.ndarray,
    training: TrainingConfig, round_idx: int, jobs: Iterable[Tuple[int, int]],
    reply: Callable[[int, np.ndarray, int, Optional[dict]], None], fail: Callable[[int, str], None],
) -> None:
    """A worker's train order: one optimizer factory for the round, then
    each ``(client_id, epochs)`` job in order, answered with
    ``reply(client_id, weights, num_samples, rng_state)``.

    The reply runs inside the per-client guard, so a failed encode or
    send is that client's failure, ``fail(client_id, traceback)``, and
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

    ``cycle`` lists one slot per unit of worker capacity, so a pool of
    capacity-1 workers pins over ``range(workers)`` and a capacity-2
    worker appears twice in a row.  The same function pins the population,
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
