"""Serial executor: the seed's single-workspace training loop.

Clients train one after another inside the server's own model shell, so
memory stays at exactly one model and behaviour is bit-for-bit the
pre-executor code path.  This is the default backend and the reference
the parallel backends are tested against.  Holdout evaluation is the
base class's in-server pass (one weight load per cohort).
"""

from __future__ import annotations

import time
from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro import telemetry
from repro.execution.base import ClientExecutor, TrainRequest
from repro.simcluster.client import ClientUpdate

__all__ = ["SerialExecutor"]


class SerialExecutor(ClientExecutor):
    """Train the cohort sequentially in the bound model's workspace."""

    name = "serial"

    def train_cohort(
        self,
        round_idx: int,
        requests: Sequence[TrainRequest],
        global_weights: np.ndarray,
        latencies: Optional[Mapping[int, float]] = None,
    ) -> List[ClientUpdate]:
        clients = self._check_requests(requests)
        factory = self._training.optimizer_factory(round_idx)
        collect = telemetry.enabled()
        updates: List[ClientUpdate] = []
        with telemetry.span(
            "executor.train_cohort",
            backend=self.name,
            round=round_idx,
            clients=len(requests),
        ):
            for req in requests:
                client = clients[req.client_id]
                t0 = time.perf_counter() if collect else 0.0
                w = client.train(
                    self._model,
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
                updates.append(
                    self._stamp(
                        req.client_id, w, client.num_train_samples, latencies
                    )
                )
        return updates
