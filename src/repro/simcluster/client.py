"""The simulated federated client.

A :class:`SimClient` has a local dataset only it trains and evaluates
on -- the privacy property the paper preserves: the server sees weights
and accuracies, never samples -- plus a resource spec and its own RNG
streams.  In memory the data is shared: every client of a federation
indexes one read-only pool per recipe per process
(:meth:`~repro.experiments.scenarios.PoolRecipe.draw`), holding int64
train and holdout rows into it; neither split is ever kept gathered.
Training is *real* (numpy gradient descent on the local data);
the response latency is *simulated* from the resource spec via
:class:`~repro.simcluster.latency.LatencyModel` +
:class:`~repro.simcluster.network.CommModel`.

To keep memory linear in the model size rather than ``clients x model``,
clients train inside a shared *workspace model* supplied by the server:
the global weights are loaded, the local pass runs, and the updated
weights are read back out.  This is behaviourally identical to per-client
replicas under FedAvg (weights are fully overwritten each round) and is
checked by an equivalence test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Tuple

import numpy as np

from repro.data.datasets import Dataset, row_indices
from repro.nn.model import Sequential
from repro.nn.optimizers import Optimizer
from repro.rng import RngLike, make_rng
from repro.simcluster.faults import FaultInjector
from repro.simcluster.latency import LatencyModel
from repro.simcluster.network import CommModel
from repro.simcluster.resources import ResourceSpec

__all__ = ["SimClient", "ClientUpdate"]

OptimizerFactory = Callable[[], Optimizer]


@dataclass
class ClientUpdate:
    """What a client returns to the aggregator after a round.

    ``latency`` is the full simulated response latency (download + compute
    + upload); ``float('inf')`` marks a dropped client.
    """

    client_id: int
    flat_weights: Optional[np.ndarray]
    num_samples: int
    latency: float


class SimClient:
    """One simulated cross-device FL client.

    Scenarios build instances lazily through the population container,
    :class:`~repro.simcluster.population.PopulationStore`, which
    materialises a client on first selection and may evict and later
    rebuild it with both RNG streams restored (hand-built instances
    exist only in dict pools bound straight to an executor).  Code must
    therefore key clients by ``client_id``, never by object identity: the
    "same" client can be a different ``SimClient`` instance across rounds
    while remaining bit-identical in behaviour.
    """

    def __init__(
        self,
        client_id: int,
        data: Dataset,
        spec: ResourceSpec,
        latency_model: LatencyModel,
        comm_model: Optional[CommModel] = None,
        holdout_fraction: float = 0.2,
        min_holdout: int = 1,
        rng: RngLike = None,
        indices: Optional[np.ndarray] = None,
    ) -> None:
        # With ``indices`` the local dataset is rows ``indices`` of ``data``;
        # without, every row.  It is never kept gathered: both splits stay
        # rows of ``data``, the holdout gathered whole each time it is
        # scored and the train split a minibatch at a time.
        if indices is not None:
            indices = row_indices(indices)
        n = len(data) if indices is None else len(indices)
        if n == 0:
            raise ValueError(f"client {client_id} cannot be created with no data")
        if not 0.0 <= holdout_fraction < 1.0:
            raise ValueError(
                f"holdout_fraction must be in [0, 1), got {holdout_fraction}"
            )
        self.client_id = int(client_id)
        self.spec = spec
        self.latency_model = latency_model
        self.comm_model = comm_model or CommModel()
        # Independent streams: shuffling must not perturb latency noise.
        # Spawning is arithmetic on the seed sequence's key; the v1 latency
        # generator is built on first use -- cohort-stream runs never do.
        if not isinstance(rng, np.random.SeedSequence):
            rng = make_rng(rng).bit_generator.seed_seq
        train_seed, self._latency_seed = rng.spawn(2)
        self._train_rng = np.random.default_rng(train_seed)

        self._pool = data
        self._name = data.name if indices is None else f"{data.name}/client{self.client_id}"
        holdout_size = max(min_holdout, int(round(n * holdout_fraction)))
        holdout_size = min(holdout_size, n - 1) if n > 1 else 0
        if holdout_size > 0:
            self._holdout_rows, self._train_rows = data.split_rows(
                holdout_size, self._train_rng, indices
            )
        else:
            self._holdout_rows = np.empty(0, dtype=np.int64)
            self._train_rows = np.arange(n, dtype=np.int64) if indices is None else indices

    @cached_property
    def _latency_rng(self) -> np.random.Generator:
        """The v1 per-client latency stream, built when first drawn."""
        return np.random.default_rng(self._latency_seed)

    def rng_states(self) -> Tuple[dict, Optional[dict]]:
        """``(train, latency)`` stream positions; latency ``None`` while undrawn."""
        latency = self.__dict__.get("_latency_rng")  # cached_property: set once built
        return self._train_rng.bit_generator.state, (
            None if latency is None else latency.bit_generator.state
        )

    def restore_rng_states(
        self, train_state: Optional[dict], latency_state: Optional[dict]
    ) -> None:
        """Set stream positions; ``None`` leaves that stream where it is."""
        if train_state is not None:
            self._train_rng.bit_generator.state = train_state
        if latency_state is not None:
            self._latency_rng.bit_generator.state = latency_state

    # ------------------------------------------------------------------
    @property
    def num_train_samples(self) -> int:
        """The FedAvg weight ``s_c`` of Alg. 1."""
        return len(self._train_rows)

    @property
    def num_holdout_samples(self) -> int:
        """The holdout's size, counted from its rows (no gather)."""
        return len(self._holdout_rows)

    @property
    def train_data(self) -> Dataset:
        """The train split, gathered from the pool on each access.

        :meth:`train` never builds it: it gathers each minibatch from
        the pool by row."""
        return self._pool.subset(self._train_rows, self._name)

    @property
    def holdout(self) -> Dataset:
        """The local holdout, gathered from the pool on each access.

        :meth:`score_holdout` gathers it once per score and drops it, so
        a resident client holds its holdout rows, not the samples."""
        return self._pool.subset(self._holdout_rows, self._name)

    def response_latency(
        self,
        num_params: int,
        epochs: int = 1,
        round_idx: int = 0,
        fault: Optional[FaultInjector] = None,
    ) -> float:
        """Sample this round's simulated response latency (seconds).

        This is the **v1 per-client stream**: noise comes from this
        client's private ``_latency_rng``, so draw positions depend on
        how often this client has been sampled.  The cohort-level v2
        path (:class:`~repro.simcluster.latency.CohortLatencySampler`)
        bypasses ``_latency_rng`` entirely and applies ``fault`` the same
        way, so fault semantics stay identical across stream versions.
        """
        compute = self.latency_model.sample_compute(
            self.num_train_samples, self.spec, epochs=epochs, rng=self._latency_rng
        )
        comm = self.comm_model.sample_round_trip(
            num_params, self.spec, rng=self._latency_rng
        )
        latency = compute + comm
        return latency if fault is None else fault.apply(self.client_id, round_idx, latency)

    def mean_response_latency(self, num_params: int, epochs: int = 1) -> float:
        """Noise-free expected latency (used by the estimator tests)."""
        return self.latency_model.mean_compute(
            self.num_train_samples, self.spec, epochs=epochs
        ) + self.comm_model.mean_round_trip(num_params, self.spec)

    # ------------------------------------------------------------------
    def train(
        self,
        workspace: Sequential,
        global_weights: np.ndarray,
        optimizer_factory: OptimizerFactory,
        batch_size: int = 10,
        epochs: int = 1,
        prox_mu: float = 0.0,
    ) -> np.ndarray:
        """Run ``epochs`` local epochs starting from ``global_weights``.

        Returns the updated flat weight vector.  ``workspace`` is the
        shared model shell; its weights are overwritten on entry.
        """
        if epochs <= 0:
            raise ValueError(f"epochs must be positive, got {epochs}")
        workspace.set_flat_weights(global_weights)
        optimizer = optimizer_factory()
        anchor = workspace.get_weights() if prox_mu > 0.0 else None
        for _ in range(epochs):
            workspace.fit_epoch(
                self._pool.x,
                self._pool.y,
                optimizer,
                batch_size=batch_size,
                rng=self._train_rng,
                prox_anchor=anchor,
                prox_mu=prox_mu,
                rows=self._train_rows,
            )
        return workspace.get_flat_weights()

    def evaluate(self, workspace: Sequential, flat_weights: np.ndarray) -> float:
        """Accuracy of ``flat_weights`` on this client's local holdout.

        This is the per-client signal pooled into the per-tier accuracy
        ``A_t^r`` of Alg. 2 -- it never exposes raw data to the server.
        The one-client form of :func:`repro.execution.base.
        evaluate_holdouts`, which loads once and scores a whole cohort.
        """
        workspace.set_flat_weights(flat_weights)
        return self.score_holdout(workspace)

    def score_holdout(self, workspace: Sequential) -> float:
        """Holdout accuracy of the weights ``workspace`` already holds."""
        if self.num_holdout_samples == 0:
            raise RuntimeError(
                f"client {self.client_id} has no holdout data; construct it "
                "with holdout_fraction > 0 to use per-tier evaluation"
            )
        holdout = self.holdout
        return workspace.evaluate(holdout.x, holdout.y)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SimClient(id={self.client_id}, train={self.num_train_samples}, "
            f"holdout={self.num_holdout_samples}, cpu={self.spec.cpu_fraction}, "
            f"group={self.spec.group})"
        )
