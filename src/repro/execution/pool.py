"""The transport-agnostic worker-pool core.

The ``process`` and ``distributed`` backends are two transports (shared
memory + queues, framed TCP) over one scheme: deal the sorted client ids
over the workers, group each cohort by owner, train every client where
it is pinned and write its advanced training-RNG state back into the
authoritative pool.  What does not depend on the pipe lives here, once:

* **worker op** -- :func:`train_client`, the only caller of
  :meth:`SimClient.train` under ``repro.execution`` and
  ``repro.distributed`` (its evaluation twins are
  :func:`repro.execution.base.evaluate_holdouts` and
  :func:`repro.execution.base.count_correct`);
* **partitioner** -- :func:`deal` and :func:`group_by_owner`;
* **directory** -- :func:`owned_by` and :func:`absorb_rng_state`.

It imports neither backend nor the executor contract.  The in-flight
tracker and failover collector over these functions are
``repro.distributed.coordinator._InFlight`` / ``DistributedExecutor._collect``.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.config import TrainingConfig
from repro.nn.model import Sequential
from repro.simcluster.client import SimClient
from repro.simcluster.population import PopulationStore

__all__ = ["train_client", "deal", "group_by_owner", "owned_by", "absorb_rng_state"]


def train_client(
    client: SimClient,
    workspace: Sequential,
    global_flat: np.ndarray,
    factory: Callable,
    training: TrainingConfig,
    epochs: int,
) -> Tuple[np.ndarray, int, Optional[dict]]:
    """One client's local pass in ``workspace``, from ``global_flat``.

    Returns ``(weights, num_train_samples, train_rng_state)``.  The
    state is the client's advanced shuffle-stream position (``None``
    for a client without one): a pinned worker ships it home with the
    update so the parent pool stays the single source of truth and the
    same clients can later be reused with any backend, re-shipped after
    a worker loss or resumed without replaying streams.
    """
    weights = client.train(
        workspace,
        global_flat,
        factory,
        batch_size=training.batch_size,
        epochs=epochs,
        prox_mu=training.prox_mu,
    )
    rng = getattr(client, "_train_rng", None)
    state = rng.bit_generator.state if rng is not None else None
    return weights, client.num_train_samples, state


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
