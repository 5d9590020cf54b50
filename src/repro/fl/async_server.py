"""Asynchronous FL baseline (the Related-Work comparison point).

The paper's Section 2 discusses asynchronous training as the datacenter
answer to stragglers and cites the finding that FL should prefer the
synchronous approach (secure aggregation, bounded staleness).  This
module provides the event-driven asynchronous FedAvg variant so that
comparison can be reproduced:

* ``concurrency`` clients train at any moment;
* whenever a client finishes (a simulated-latency event), the server
  immediately mixes its update into the global model::

      w <- (1 - a(s)) * w + a(s) * w_client

  where ``s`` is the update's *staleness* (how many global updates were
  applied since the client pulled its base weights) and ``a(s)`` a
  staleness-discounted mixing weight (polynomial discount, after
  asynchronous-SGD practice);
* the finished client is replaced by a uniformly drawn available client.

No synchronous barrier means no straggler bound -- but stale updates from
slow clients drag accuracy, which is exactly the trade-off the paper's
argument rests on.  ``benchmarks/bench_ablation_baselines.py`` compares
this server against synchronous vanilla and TiFL.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Union

import numpy as np

from repro.config import PAPER_SYNTHETIC_TRAINING, TrainingConfig
from repro.data.datasets import Dataset
from repro.execution import ClientExecutor, TrainRequest, resolve_executor
from repro.fl.history import RoundRecord, TrainingHistory
from repro.nn.model import Sequential
from repro.rng import RngLike, make_rng
from repro.simcluster.population import PopulationStore

__all__ = ["AsyncFLServer", "polynomial_staleness_discount"]


def polynomial_staleness_discount(staleness: int, power: float = 0.5) -> float:
    """``1 / (1 + s)^power`` -- the standard async-SGD staleness damping."""
    if staleness < 0:
        raise ValueError(f"staleness must be non-negative, got {staleness}")
    if power < 0:
        raise ValueError(f"power must be non-negative, got {power}")
    return float((1.0 + staleness) ** (-power))


class AsyncFLServer:
    """Event-driven asynchronous federated averaging.

    Parameters
    ----------
    concurrency:
        Number of clients training simultaneously (the async analogue of
        ``|C|``).
    base_mixing:
        Mixing weight ``a`` for a fresh (staleness-0) update; a stale one
        gets ``a`` times :func:`polynomial_staleness_discount`.
    """

    def __init__(
        self,
        clients: PopulationStore,
        model: Sequential,
        test_data: Dataset,
        concurrency: int = 5,
        base_mixing: float = 0.5,
        training: TrainingConfig = PAPER_SYNTHETIC_TRAINING,
        eval_every: int = 1,
        rng: RngLike = None,
        executor: Union[str, ClientExecutor, None] = None,
        workers: Optional[int] = None,
    ) -> None:
        if not 1 <= concurrency <= len(clients):
            raise ValueError(
                f"concurrency must be in [1, {len(clients)}], got {concurrency}"
            )
        if not 0.0 < base_mixing <= 1.0:
            raise ValueError(f"base_mixing must be in (0, 1], got {base_mixing}")
        if eval_every <= 0:
            raise ValueError(f"eval_every must be positive, got {eval_every}")
        self.clients = clients
        self.model = model
        self.test_data = test_data
        self.concurrency = concurrency
        self.base_mixing = base_mixing
        self.training = training
        self.eval_every = eval_every
        self._rng = make_rng(rng)
        self.global_weights = model.get_flat_weights()
        self.history = TrainingHistory()
        self.updates_applied = 0
        self.staleness_log: List[int] = []
        self.executor: ClientExecutor = resolve_executor(
            executor if executor is not None else training.executor,
            workers if workers is not None else training.workers,
            endpoint=training.endpoint,
        )
        self.executor.bind(self.clients, self.model, self.training)
        self.executor.bind_eval_data(self.test_data.x, self.test_data.y)

    # ------------------------------------------------------------------
    def _dispatch(
        self, client_id: int, now: float, heap: list
    ) -> None:
        """Send current weights to ``client_id``; schedule its completion."""
        client = self.clients[client_id]
        latency = client.response_latency(
            self.model.num_params(), epochs=self.training.epochs,
            round_idx=self.updates_applied,
        )
        # sequence number stamps the base version for staleness accounting
        heapq.heappush(
            heap,
            (
                now + latency,
                client_id,
                self.updates_applied,
                self.global_weights.copy(),
            ),
        )

    def _mixing_weight(self, staleness: int) -> float:
        return self.base_mixing * polynomial_staleness_discount(staleness)

    def run(self, num_updates: int) -> TrainingHistory:
        """Apply ``num_updates`` asynchronous updates; returns the history.

        ``RoundRecord.round_idx`` counts applied updates and ``sim_time``
        is the event time, so histories are directly comparable with the
        synchronous servers' accuracy-over-time curves.
        """
        if num_updates <= 0:
            raise ValueError(f"num_updates must be positive, got {num_updates}")
        heap: list = []
        now = 0.0
        idle = list(self.clients)
        self._rng.shuffle(idle)
        for _ in range(self.concurrency):
            self._dispatch(idle.pop(), now, heap)

        while self.updates_applied < num_updates:
            now, client_id, base_version, base_weights = heapq.heappop(heap)
            # The event loop applies one update at a time, but routing the
            # local pass through the executor keeps the pool backends'
            # RNG ledger consistent with the sync servers.
            (update,) = self.executor.train_cohort(
                self.updates_applied,
                [TrainRequest(client_id, epochs=self.training.epochs)],
                base_weights,
            )
            new_weights = update.flat_weights
            staleness = self.updates_applied - base_version
            self.staleness_log.append(staleness)
            a = self._mixing_weight(staleness)
            self.global_weights = (1.0 - a) * self.global_weights + a * new_weights
            self.updates_applied += 1

            record = RoundRecord(
                round_idx=self.updates_applied - 1,
                round_latency=0.0,  # no synchronous round in async mode
                sim_time=now,
                accuracy=None,
                selected=(client_id,),
            )
            if (self.updates_applied - 1) % self.eval_every == 0:
                # Same batched entry point as the synchronous servers.
                record.accuracy = self.executor.evaluate_model(
                    self.global_weights, self.test_data.x, self.test_data.y
                )
            self.history.append(record)

            # keep `concurrency` clients busy: redraw uniformly from the
            # currently idle pool (the finished client becomes idle)
            idle.append(client_id)
            pick = int(self._rng.integers(0, len(idle)))
            idle[pick], idle[-1] = idle[-1], idle[pick]
            self._dispatch(idle.pop(), now, heap)
        return self.history

    def mean_staleness(self) -> float:
        """Average staleness of applied updates (a health diagnostic)."""
        if not self.staleness_log:
            raise ValueError("no updates have been applied yet")
        return float(np.mean(self.staleness_log))
