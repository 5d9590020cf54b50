"""The transport-agnostic worker-pool core.

The ``process`` and ``distributed`` backends are one coordinator
(:class:`repro.distributed.coordinator.PoolExecutor`) over two pipes
(forked socketpair workers, TCP workers) and one scheme: every worker
holds the whole population, every batch is dealt over the live workers
by cost, and every train job carries its client's training-RNG state
from the coordinator's ledger, which the advanced state in each merged
update keeps authoritative.  So a client trains the same on any worker.
The pieces both sides of the wire call live here, once:

* **worker ops** -- :func:`serve_train` (one train order: one optimizer
  factory, then :func:`repro.execution.base.train_client` per job from
  the job's RNG state, under a per-client guard) and
  :func:`count_shards` (one eval-model order, failure captured); the
  holdout twin is :func:`repro.execution.base.evaluate_holdouts`;
* **balancer** -- :func:`balance`;
* **ledger** -- :func:`ledger_state` and :func:`absorb_rng_state`.

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

__all__ = ["serve_train", "count_shards", "balance", "ledger_state", "absorb_rng_state"]


def serve_train(
    clients: Mapping[int, SimClient], workspace: Sequential, global_flat: np.ndarray,
    training: TrainingConfig, round_idx: int, jobs: Iterable[Tuple[int, int, Optional[dict]]],
    reply: Callable[[int, np.ndarray, int, Optional[dict]], None], fail: Callable[[int, str], None],
    origins: Dict[int, dict],
) -> None:
    """A worker's train order: one optimizer factory for the round, then
    each ``(client_id, epochs, rng_state)`` job in order, answered with
    ``reply(client_id, weights, num_samples, advanced_state)``.

    The client's train stream is set to the job's state before it
    trains, so a worker never trains from a position it advanced
    itself (a retried job, an update the coordinator never merged).
    ``None`` means the ledger has no position yet: the stream starts
    where this worker first found it, which ``origins`` (the worker's,
    client id -> state) records until the ledger has one.

    The reply runs inside the per-client guard, so a failed encode or
    send is that client's failure, ``fail(client_id, traceback)``, and
    the worker lives on.  The guard is ``Exception``, not
    ``BaseException``: a Ctrl-C must end the worker, not read as a
    training failure.
    """
    factory = training.optimizer_factory(round_idx)
    for client_id, epochs, state in jobs:
        try:
            client = clients[client_id]
            rng = getattr(client, "_train_rng", None)
            if rng is not None:
                if state is None:
                    state = origins.setdefault(client_id, rng.bit_generator.state)
                else:
                    origins.pop(client_id, None)
                rng.bit_generator.state = state
            w, num_samples, state = train_client(
                client, workspace, global_flat, factory, training, epochs
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


def balance(
    keys: Sequence[Hashable], costs: Sequence[float], workers: Sequence[int],
    capacities: Mapping[int, int],
) -> Dict[int, list]:
    """Deal ``keys`` over ``workers`` by cost: worker id -> its keys.

    Longest processing time first: the costliest key goes to the worker
    it leaves least loaded, load being the worker's summed cost over its
    ``capacities`` entry; ties between keys break by key, between
    workers by worker id.  A pure function of its inputs, so a fixed
    cohort always gets the same split.  Each worker's keys keep their
    order in ``keys``, and workers dealt nothing are absent.
    """
    load = {wid: 0.0 for wid in workers}
    owner: Dict[Hashable, int] = {}
    for cost, key in sorted(zip(costs, keys), key=lambda ck: (-ck[0], ck[1])):
        wid = min(workers, key=lambda w: ((load[w] + cost) / capacities[w], w))
        load[wid] += cost
        owner[key] = wid
    dealt: Dict[int, list] = {}
    for key in keys:
        dealt.setdefault(owner[key], []).append(key)
    return dealt


def ledger_state(clients: Mapping[int, SimClient], client_id: int) -> Optional[dict]:
    """The train-RNG position a TRAIN job carries for ``client_id``.

    A population store answers from its ledger without materialising
    the client (``None``: the stream has not advanced since it was
    first built); a hand-built dict pool from its live client object
    (``None``: a client without a stream).
    """
    if isinstance(clients, PopulationStore):
        return clients.rng_state_of(client_id)[0]
    rng = getattr(clients[client_id], "_train_rng", None)
    return None if rng is None else rng.bit_generator.state


def absorb_rng_state(
    clients: Mapping[int, SimClient], client_id: int, state: Optional[dict]
) -> None:
    """Make a shipped-back training-RNG ``state`` authoritative.

    A population store takes it into its ledger without materialising
    the client (the parent stays at O(cohort) resident objects, and the
    client's next TRAIN job carries this position); a hand-built dict
    pool writes it into the live client object.
    """
    if state is None:
        return
    if isinstance(clients, PopulationStore):
        clients.restore_rng_state(client_id, train_state=state)
        return
    rng = getattr(clients[client_id], "_train_rng", None)
    if rng is not None:
        rng.bit_generator.state = state
