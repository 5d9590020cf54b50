"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Set

import numpy as np
import pytest

from repro.data.datasets import Dataset
from repro.data.partition import FederatedData
from repro.data.synthetic import SyntheticSpec, generate_synthetic
from repro.distributed import spawn_local_workers, terminate_workers
from repro.execution import create_executor
from repro.rng import RngLike, make_rng
from repro.simcluster.client import SimClient
from repro.simcluster.faults import FaultInjector
from repro.simcluster.latency import LatencyModel
from repro.simcluster.network import CommModel
from repro.simcluster.population import PopulationStore
from repro.simcluster.resources import ResourceSpec


def subprocess_env() -> dict:
    """A fresh interpreter's environment with the repro package importable."""
    import repro

    env = os.environ.copy()
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_dir if not existing else src_dir + os.pathsep + existing
    return env


@contextlib.contextmanager
def open_executor(backend: str, workers: int):
    """``create_executor(backend, workers)``; a ``distributed`` one is
    served by ``workers`` local agents."""
    ex = create_executor(backend, workers=workers)
    procs = spawn_local_workers(ex.listen(), workers) if backend == "distributed" else []
    try:
        yield ex
    finally:
        ex.close()
        terminate_workers(procs)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_tiny_dataset(
    n: int = 40,
    num_classes: int = 3,
    shape=(4, 4, 1),
    seed: int = 0,
    difficulty: float = 0.2,
    proto_seed: int = 42,
) -> Dataset:
    """Small, easily separable synthetic dataset for fast tests.

    All tiny datasets share one prototype geometry (``proto_seed``) so that
    data drawn with different ``seed`` values still belongs to the *same*
    classification task -- a requirement for FedAvg across test clients to
    be meaningful.
    """
    from repro.data.synthetic import class_prototypes

    spec = SyntheticSpec(shape=shape, num_classes=num_classes, difficulty=difficulty)
    protos = class_prototypes(spec, rng=proto_seed)
    labels = np.arange(n) % num_classes
    x, y = generate_synthetic(spec, n, rng=seed, labels=labels, prototypes=protos)
    return Dataset(x, y, num_classes, name="tiny")


def make_test_client(
    client_id: int = 0,
    n: int = 30,
    cpu: float = 1.0,
    seed: int = 0,
    noise_sigma: float = 0.0,
    holdout_fraction: float = 0.2,
    cost_per_sample: float = 0.01,
    base_overhead: float = 0.1,
) -> SimClient:
    """A deterministic-latency client over a tiny dataset."""
    data = make_tiny_dataset(n=n, seed=seed + 1000 * client_id)
    return SimClient(
        client_id=client_id,
        data=data,
        spec=ResourceSpec(cpu_fraction=cpu, group=0),
        latency_model=LatencyModel(
            cost_per_sample=cost_per_sample,
            base_overhead=base_overhead,
            noise_sigma=noise_sigma,
        ),
        comm_model=CommModel(rtt=0.01, jitter_sigma=0.0),
        holdout_fraction=holdout_fraction,
        rng=seed + client_id,
    )


def advance_train_stream(client: SimClient) -> np.ndarray:
    """Draw what one local epoch of :meth:`SimClient.train` draws from
    the client's train stream -- one shuffle permutation -- and return it."""
    return client._train_rng.permutation(client.num_train_samples)


def make_test_population(
    num_clients: int,
    cpus=None,
    n=30,
    seed: int = 0,
    noise_sigma: float = 0.0,
    holdout_fraction: float = 0.2,
    cost_per_sample: float = 0.01,
    base_overhead: float = 0.1,
) -> PopulationStore:
    """The pool servers take: ``make_test_client``'s clients ``0..N-1`` as a store.

    Client ``cid`` holds the same ``make_tiny_dataset(seed=seed + 1000 *
    cid)`` samples and the same latency/comm models as
    ``make_test_client(cid, ...)``; ``cpus`` and ``n`` may be per-client
    sequences (``n=1`` makes a client without a holdout).  Only the
    per-client RNG seeds differ (``SeedAddress.child(cid)`` in place of
    ``seed + cid``).  The dataset provider is a bound method of a
    :class:`FederatedData` over the concatenated samples, so ``process``
    and ``distributed`` workers can unpickle a shard of it without
    importing ``tests``.
    """
    sizes = [n] * num_clients if isinstance(n, int) else list(n)
    parts = [
        make_tiny_dataset(n=size, seed=seed + 1000 * cid)
        for cid, size in enumerate(sizes)
    ]
    pool = Dataset(
        np.concatenate([d.x for d in parts]),
        np.concatenate([d.y for d in parts]),
        parts[0].num_classes,
        name="tiny",
    )
    bounds = np.cumsum([0] + sizes)
    fed = FederatedData(
        train=pool,
        test=pool,
        client_indices=[
            np.arange(bounds[cid], bounds[cid + 1]) for cid in range(num_clients)
        ],
    )
    return PopulationStore(
        num_samples=sizes,
        cpu_fraction=[1.0] * num_clients if cpus is None else list(cpus),
        bandwidth_mbps=[ResourceSpec(1.0).bandwidth_mbps] * num_clients,
        group=[0] * num_clients,
        dataset_for=fed.client_rows,
        latency_model=LatencyModel(
            cost_per_sample=cost_per_sample,
            base_overhead=base_overhead,
            noise_sigma=noise_sigma,
        ),
        comm_model=CommModel(rtt=0.01, jitter_sigma=0.0),
        holdout_fraction=holdout_fraction,
        seed_rng=seed,
    )


@dataclass
class DropoutInjector(FaultInjector):
    """Clients in ``always_drop`` never respond; others drop i.i.d. with
    probability ``drop_prob`` per round (a latency of ``inf``)."""

    drop_prob: float = 0.0
    always_drop: Optional[Set[int]] = None
    rng: RngLike = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ValueError(f"drop_prob must be in [0, 1], got {self.drop_prob}")
        self._rng = make_rng(self.rng)
        self.always_drop = set(self.always_drop or ())

    def apply(self, client_id: int, round_idx: int, latency: float) -> float:
        if client_id in self.always_drop:
            return float("inf")
        if self.drop_prob > 0.0 and self._rng.random() < self.drop_prob:
            return float("inf")
        return latency


def numeric_gradient(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar ``f`` w.r.t. array ``x``."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax: the reference the fused loss's
    gradient is tested against."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax: the reference the fused loss is
    tested against."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def assert_bits_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    """Same dtype, shape and bytes: ``-0.0`` differs from ``0.0`` here."""
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes(), (actual, expected)
