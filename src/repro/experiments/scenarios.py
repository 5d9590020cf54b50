"""Scenario builders for the paper's evaluation settings (Section 5.1).

A :class:`ScenarioConfig` names a dataset, a resource profile and a data
distribution; :func:`build_scenario` turns it into a
:class:`~repro.simcluster.population.PopulationStore` of simulated
clients, a model, and test data.  Everything is reproducible from
``(config, seed)`` -- the runner rebuilds a fresh scenario per policy so
competing policies see *identical* clients, data, and latency statistics.

Default sizes are scaled down from the paper (8x8 images, linear/MLP
surrogate models, thousands rather than tens of thousands of samples) so
the complete figure suite replays in seconds; every knob accepts
paper-scale values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.config import (
    PAPER_FEMNIST_TRAINING,
    PAPER_SYNTHETIC_TRAINING,
    TrainingConfig,
)
from repro.data import (
    Dataset,
    FederatedData,
    cifar10_like,
    femnist_like,
    fmnist_like,
    make_femnist_leaf,
    mnist_like,
    partition_iid,
    partition_noniid_classes,
    partition_quantity_skew,
    partition_shards,
)
from repro.data.validation import check_partition
from repro.nn import Sequential, build_linear, build_mlp, build_model
from repro.rng import RngLike, make_rng, spawn
from repro.simcluster import (
    CASE_STUDY_CPU_GROUPS,
    CIFAR_CPU_GROUPS,
    CommModel,
    LatencyModel,
    MNIST_CPU_GROUPS,
    ResourceSpec,
    assign_resource_groups,
)
from repro.simcluster.population import (
    DEFAULT_CACHE_SIZE,
    PopulationStore,
    SeedAddress,
)

__all__ = [
    "ScenarioConfig",
    "Scenario",
    "build_scenario",
    "build_leaf_scenario",
    "build_population_scenario",
    "PooledDatasetProvider",
]

_DATASETS = {
    "mnist": mnist_like,
    "fmnist": fmnist_like,
    "cifar10": cifar10_like,
    "femnist": femnist_like,
}

#: Latency calibration per dataset: single-CPU seconds per sample, chosen so
#: the simulated CPU-group spread reproduces the paper's speedup magnitudes
#: (heavier models => higher per-sample cost).
_COST_PER_SAMPLE = {
    "mnist": 0.005,
    "fmnist": 0.005,
    "cifar10": 0.010,
    "femnist": 0.008,
}

_RESOURCE_PROFILES = {
    "heterogeneous": None,  # resolved per dataset below
    "homogeneous": (2.0,),
    "case_study": CASE_STUDY_CPU_GROUPS,
}


def _default_cpu_groups(dataset: str, profile: str) -> Tuple[float, ...]:
    if profile == "homogeneous":
        return (2.0,)
    if profile == "case_study":
        return tuple(CASE_STUDY_CPU_GROUPS)
    if profile == "heterogeneous":
        if dataset in ("mnist", "fmnist"):
            return tuple(MNIST_CPU_GROUPS)
        return tuple(CIFAR_CPU_GROUPS)
    raise ValueError(
        f"unknown resource profile {profile!r}; "
        f"use one of {sorted(_RESOURCE_PROFILES)}"
    )


@dataclass(frozen=True)
class ScenarioConfig:
    """Declarative description of one evaluation setting.

    Attributes
    ----------
    dataset:
        ``mnist | fmnist | cifar10 | femnist`` (synthetic equivalents).
    resource_profile:
        ``heterogeneous`` -- the paper's 5 CPU groups for the dataset;
        ``homogeneous`` -- 2 CPUs everywhere (data-heterogeneity studies);
        ``case_study`` -- the Section 3.3 allocation.
    data_distribution:
        ``iid`` | ``noniid`` (class-limited, see ``noniid_classes``) |
        ``shards`` (McMahan 2-shard) | ``quantity`` (10/15/20/25/30%
        groups) | ``quantity_noniid`` (both).
    model:
        ``linear`` | ``mlp`` | a model-zoo name (``cifar10_cnn`` etc.).
    shape / train_size / test_size / difficulty:
        Synthetic dataset knobs (downscaled defaults).
    """

    dataset: str = "cifar10"
    num_clients: int = 50
    clients_per_round: int = 5
    resource_profile: str = "heterogeneous"
    cpu_groups: Optional[Tuple[float, ...]] = None
    data_distribution: str = "iid"
    noniid_classes: int = 5
    shards_per_client: int = 2
    quantity_fractions: Tuple[float, ...] = (0.10, 0.15, 0.20, 0.25, 0.30)
    shape: Tuple[int, ...] = (8, 8, 1)
    train_size: int = 4000
    test_size: int = 1000
    difficulty: Optional[float] = None
    model: str = "linear"
    mlp_hidden: Tuple[int, ...] = (32,)
    training: Optional[TrainingConfig] = None
    cost_per_sample: Optional[float] = None
    base_overhead: float = 0.2
    noise_sigma: float = 0.05
    holdout_fraction: float = 0.2
    shuffle_resources: bool = False

    def __post_init__(self) -> None:
        if self.dataset not in _DATASETS:
            raise ValueError(
                f"unknown dataset {self.dataset!r}; use one of {sorted(_DATASETS)}"
            )
        if self.data_distribution not in (
            "iid",
            "noniid",
            "shards",
            "quantity",
            "quantity_noniid",
        ):
            raise ValueError(
                f"unknown data_distribution {self.data_distribution!r}"
            )
        if self.resource_profile not in _RESOURCE_PROFILES:
            raise ValueError(
                f"unknown resource profile {self.resource_profile!r}"
            )
        if self.num_clients <= 0 or self.clients_per_round <= 0:
            raise ValueError("num_clients and clients_per_round must be positive")
        if self.clients_per_round > self.num_clients:
            raise ValueError("clients_per_round cannot exceed num_clients")

    def with_(self, **changes) -> "ScenarioConfig":
        return replace(self, **changes)

    def resolved_training(self) -> TrainingConfig:
        if self.training is not None:
            return self.training
        if self.dataset == "femnist":
            return PAPER_FEMNIST_TRAINING
        return PAPER_SYNTHETIC_TRAINING


@dataclass
class Scenario:
    """One evaluation setting, ready to hand to a server.

    ``clients`` is the lazy
    :class:`~repro.simcluster.population.PopulationStore` servers take
    (``clients[cid]`` materialises a :class:`SimClient`).  ``fed`` is
    ``None`` for pool-backed population scenarios, which carry their
    shared test set in ``test`` instead.
    """

    config: ScenarioConfig
    clients: PopulationStore
    model: Sequential
    fed: Optional[FederatedData]
    training: TrainingConfig
    latency_model: LatencyModel
    comm_model: CommModel
    test: Optional[Dataset] = None

    @property
    def test_data(self) -> Dataset:
        if self.test is not None:
            return self.test
        return self.fed.test

    @property
    def clients_per_round(self) -> int:
        return self.config.clients_per_round

    @property
    def population(self) -> PopulationStore:
        """Alias of ``clients``."""
        return self.clients


def _partition(
    cfg: ScenarioConfig, labels: np.ndarray, rng: np.random.Generator
) -> List[np.ndarray]:
    if cfg.data_distribution == "iid":
        return partition_iid(labels, cfg.num_clients, rng)
    if cfg.data_distribution == "noniid":
        return partition_noniid_classes(
            labels, cfg.num_clients, cfg.noniid_classes, rng
        )
    if cfg.data_distribution == "shards":
        return partition_shards(labels, cfg.num_clients, cfg.shards_per_client, rng)
    if cfg.data_distribution == "quantity":
        return partition_quantity_skew(
            labels, cfg.num_clients, cfg.quantity_fractions, rng
        )
    # quantity_noniid: class-limited partition, then thin each client to the
    # group quantity share ("shard the dataset unevenly ... and limit the
    # number of classes", Sec. 5.1).
    base = partition_noniid_classes(labels, cfg.num_clients, cfg.noniid_classes, rng)
    fractions = np.asarray(cfg.quantity_fractions, dtype=np.float64)
    num_groups = fractions.size
    if cfg.num_clients % num_groups != 0:
        raise ValueError(
            f"num_clients={cfg.num_clients} not divisible by {num_groups} "
            "quantity groups"
        )
    per_group = cfg.num_clients // num_groups
    out: List[np.ndarray] = []
    for cid, idx in enumerate(base):
        group = cid // per_group
        keep_frac = min(1.0, fractions[group] / fractions.max())
        keep = max(1, int(round(idx.size * keep_frac)))
        out.append(np.sort(rng.choice(idx, size=keep, replace=False)))
    return out


def build_scenario(cfg: ScenarioConfig, seed: RngLike = None) -> Scenario:
    """Build a scenario: dataset -> partition -> client store -> model."""
    base = make_rng(seed)
    data_rng, part_rng, model_rng, client_seed_rng = spawn(base, 4)

    factory = _DATASETS[cfg.dataset]
    train, test = factory(
        train_size=cfg.train_size,
        test_size=cfg.test_size,
        shape=cfg.shape,
        difficulty_override=cfg.difficulty,
        rng=data_rng,
    )
    client_indices = _partition(cfg, train.y, part_rng)
    require_cover = cfg.data_distribution != "quantity_noniid"
    check_partition(
        client_indices, len(train), require_cover=require_cover
    )
    fed = FederatedData(train=train, test=test, client_indices=client_indices)

    num_classes = train.num_classes
    if cfg.model == "linear":
        model = build_linear(cfg.shape, num_classes, rng=model_rng)
    elif cfg.model == "mlp":
        model = build_mlp(cfg.shape, num_classes, hidden=cfg.mlp_hidden, rng=model_rng)
    else:
        model = build_model(
            cfg.model, input_shape=cfg.shape, num_classes=num_classes, rng=model_rng
        )

    cpu_groups = cfg.cpu_groups or _default_cpu_groups(
        cfg.dataset, cfg.resource_profile
    )
    specs = assign_resource_groups(
        cfg.num_clients,
        cpu_groups,
        shuffle=cfg.shuffle_resources,
        rng=client_seed_rng,
    )
    latency_model = LatencyModel(
        cost_per_sample=cfg.cost_per_sample or _COST_PER_SAMPLE[cfg.dataset],
        base_overhead=cfg.base_overhead,
        noise_sigma=cfg.noise_sigma,
    )
    comm_model = CommModel()
    # The store captures client_seed_rng's spawn coordinates: clients[cid]
    # seeds from the child spawn(client_seed_rng, N)[cid] would get.  Its
    # cache holds a whole paper-shape federation, so v1 profiling never
    # sees an eviction.
    clients = PopulationStore(
        num_samples=fed.client_sizes(),
        cpu_fraction=[s.cpu_fraction for s in specs],
        bandwidth_mbps=[s.bandwidth_mbps for s in specs],
        group=[s.group for s in specs],
        dataset_for=fed.client_rows,
        latency_model=latency_model,
        comm_model=comm_model,
        holdout_fraction=cfg.holdout_fraction,
        seed_rng=client_seed_rng,
        cache_size=max(DEFAULT_CACHE_SIZE, cfg.num_clients),
    )
    return Scenario(
        config=cfg,
        clients=clients,
        model=model,
        fed=fed,
        training=cfg.resolved_training(),
        latency_model=latency_model,
        comm_model=comm_model,
    )


def build_leaf_scenario(
    num_clients: int = 182,
    clients_per_round: int = 10,
    shape: Tuple[int, ...] = (8, 8, 1),
    num_classes: int = 62,
    sample_scale: float = 0.25,
    model: str = "linear",
    cpu_groups: Sequence[float] = CIFAR_CPU_GROUPS,
    base_overhead: float = 0.2,
    cost_per_sample: float = 0.008,
    noise_sigma: float = 0.05,
    holdout_fraction: float = 0.2,
    training: Optional[TrainingConfig] = None,
    seed: RngLike = None,
) -> Scenario:
    """The LEAF / FEMNIST scenario of Section 5.2.6.

    182 writer-clients with LEAF's inherent quantity + class + feature
    skew, resource heterogeneity added by uniform-random assignment to the
    five hardware groups (equal clients per type, like the paper's
    extension), ``|C| = 10`` and 1 local epoch.

    ``num_clients`` must be divisible by ``len(cpu_groups)``; the paper's
    182 clients need a 2-client remainder handled, so when it is not
    divisible the last ``num_clients % len(cpu_groups)`` clients join the
    final group.
    """
    base = make_rng(seed)
    data_rng, model_rng, client_seed_rng = spawn(base, 3)
    fed = make_femnist_leaf(
        num_clients=num_clients,
        shape=shape,
        num_classes=num_classes,
        scale=sample_scale,
        rng=data_rng,
    )
    if model == "linear":
        net = build_linear(shape, num_classes, rng=model_rng)
    elif model == "mlp":
        net = build_mlp(shape, num_classes, rng=model_rng)
    else:
        net = build_model(
            model, input_shape=shape, num_classes=num_classes, rng=model_rng
        )

    groups = list(cpu_groups)
    divisible = (num_clients // len(groups)) * len(groups)
    specs = assign_resource_groups(
        divisible, groups, shuffle=True, rng=client_seed_rng
    )
    # Remainder clients (182 % 5 = 2) join the slowest group.
    for _ in range(num_clients - divisible):
        specs.append(
            ResourceSpec(cpu_fraction=groups[-1], group=len(groups) - 1)
        )

    latency_model = LatencyModel(
        cost_per_sample=cost_per_sample,
        base_overhead=base_overhead,
        noise_sigma=noise_sigma,
    )
    comm_model = CommModel()
    # Seeded and sized as in build_scenario; the shuffle above drew
    # values only, so the spawn coordinates captured here are unmoved.
    clients = PopulationStore(
        num_samples=fed.client_sizes(),
        cpu_fraction=[s.cpu_fraction for s in specs],
        bandwidth_mbps=[s.bandwidth_mbps for s in specs],
        group=[s.group for s in specs],
        dataset_for=fed.client_rows,
        latency_model=latency_model,
        comm_model=comm_model,
        holdout_fraction=holdout_fraction,
        seed_rng=client_seed_rng,
        cache_size=max(DEFAULT_CACHE_SIZE, num_clients),
    )
    cfg = ScenarioConfig(
        dataset="femnist",
        num_clients=num_clients,
        clients_per_round=clients_per_round,
        resource_profile="heterogeneous",
        shape=shape,
        model=model,
    )
    return Scenario(
        config=cfg,
        clients=clients,
        model=net,
        fed=fed,
        training=training or PAPER_FEMNIST_TRAINING,
        latency_model=latency_model,
        comm_model=comm_model,
    )


@dataclass(frozen=True)
class PooledDatasetProvider:
    """Picklable per-client dataset provider over a shared sample pool.

    The population scenario's dataset rule -- "client ``cid`` owns a
    sorted, seed-addressed sample of the shared pool" -- as a frozen
    dataclass instead of a closure, so a :class:`PopulationStore` shard
    can carry it across a process boundary (``ASSIGN_SHARD`` /
    fork-time shared memory) and a worker materialises the exact same
    datasets the coordinator would.
    """

    pool: Dataset
    num_samples: np.ndarray
    data_address: SeedAddress
    pool_size: int

    def __call__(self, cid: int) -> Tuple[Dataset, np.ndarray]:
        r = make_rng(self.data_address.child(cid))
        size = int(self.num_samples[cid])
        return self.pool, np.sort(r.choice(self.pool_size, size=size, replace=False))


def build_population_scenario(
    num_clients: int = 100_000,
    clients_per_round: int = 20,
    pool_size: int = 2048,
    samples_range: Tuple[int, int] = (16, 64),
    shape: Tuple[int, ...] = (8, 8, 1),
    test_size: int = 256,
    model: str = "linear",
    heavy_tailed: bool = True,
    num_groups: int = 5,
    holdout_fraction: float = 0.2,
    cost_per_sample: float = 0.005,
    base_overhead: float = 0.2,
    noise_sigma: float = 0.05,
    training: Optional[TrainingConfig] = None,
    cache_size: int = DEFAULT_CACHE_SIZE,
    seed: RngLike = None,
) -> Scenario:
    """A population-scale scenario the paper never could run.

    Build cost is O(num_clients) *columns*, never objects: every
    per-client quantity (sample count, heavy-tailed CPU capacity and
    bandwidth) is one vectorised draw, and each client's local dataset
    is a lazily-drawn subset of a shared ``pool_size``-sample synthetic
    pool, addressed by its own SeedSequence spawn key -- so a
    10^6-client scenario costs a few int64/float64 arrays plus one small
    pool, and materialising any client is deterministic regardless of
    order.

    ``heavy_tailed=True`` draws CPU fractions and bandwidths from
    log-normal distributions (right-skewed, like real device fleets)
    and buckets them into ``num_groups`` capacity quantiles (group 0 =
    fastest, mirroring the paper's ordering).  Pair with
    :class:`~repro.simcluster.population.DiurnalSchedule` via
    ``scenario.clients.attach_diurnal(clock, schedule)`` for
    availability churn.
    """
    lo, hi = int(samples_range[0]), int(samples_range[1])
    if not 1 <= lo <= hi <= pool_size:
        raise ValueError(
            f"samples_range must satisfy 1 <= lo <= hi <= pool_size, "
            f"got {samples_range} with pool_size={pool_size}"
        )
    base = make_rng(seed)
    data_rng, model_rng, client_seed_rng = spawn(base, 3)

    pool, test = mnist_like(
        train_size=pool_size, test_size=test_size, shape=shape, rng=data_rng
    )
    num_classes = pool.num_classes
    if model == "linear":
        net = build_linear(shape, num_classes, rng=model_rng)
    elif model == "mlp":
        net = build_mlp(shape, num_classes, rng=model_rng)
    else:
        net = build_model(
            model, input_shape=shape, num_classes=num_classes, rng=model_rng
        )

    # Columns: one vectorised draw each (value draws leave the spawn
    # counter alone, so the capture below stays addressable).
    num_samples = client_seed_rng.integers(
        lo, hi, size=num_clients, endpoint=True
    )
    if heavy_tailed:
        cpu = np.clip(
            client_seed_rng.lognormal(0.0, 1.0, size=num_clients), 0.05, 16.0
        )
        bandwidth = np.clip(
            client_seed_rng.lognormal(np.log(100.0), 0.75, size=num_clients),
            1.0,
            1000.0,
        )
        edges = np.quantile(cpu, np.linspace(0.0, 1.0, num_groups + 1)[1:-1])
        # group 0 = fastest quantile, like assign_resource_groups.
        group = (num_groups - 1) - np.searchsorted(edges, cpu, side="right")
    else:
        cpu = np.full(num_clients, 2.0)
        bandwidth = np.full(num_clients, 100.0)
        group = np.zeros(num_clients, dtype=np.int64)

    # Per-client dataset streams get their own spawn-key domain (child 0
    # of client_seed_rng), then client seeds are captured on top -- both
    # lazily addressable, neither allocates N generators.
    (data_seed_parent,) = spawn(client_seed_rng, 1)
    data_address = SeedAddress.capture(data_seed_parent)

    dataset_for = PooledDatasetProvider(
        pool=pool,
        num_samples=num_samples,
        data_address=data_address,
        pool_size=pool_size,
    )

    latency_model = LatencyModel(
        cost_per_sample=cost_per_sample,
        base_overhead=base_overhead,
        noise_sigma=noise_sigma,
    )
    comm_model = CommModel()
    store = PopulationStore(
        num_samples=num_samples,
        cpu_fraction=cpu,
        bandwidth_mbps=bandwidth,
        group=group,
        dataset_for=dataset_for,
        latency_model=latency_model,
        comm_model=comm_model,
        holdout_fraction=holdout_fraction,
        seed_rng=client_seed_rng,
        cache_size=cache_size,
    )
    cfg = ScenarioConfig(
        dataset="mnist",
        num_clients=num_clients,
        clients_per_round=clients_per_round,
        resource_profile="heterogeneous",
        shape=shape,
        train_size=pool_size,
        test_size=test_size,
        model=model,
        cost_per_sample=cost_per_sample,
        base_overhead=base_overhead,
        noise_sigma=noise_sigma,
        holdout_fraction=holdout_fraction,
    )
    return Scenario(
        config=cfg,
        clients=store,
        model=net,
        fed=None,
        training=training or cfg.resolved_training(),
        latency_model=latency_model,
        comm_model=comm_model,
        test=test,
    )
