"""Scenario builders for the paper's evaluation settings (Section 5.1).

A :class:`ScenarioConfig` names a dataset, a resource profile and a data
distribution; :func:`build_scenario` turns it into a
:class:`~repro.simcluster.population.PopulationStore` of simulated
clients, a model, and test data.  Everything is reproducible from
``(config, seed)`` -- the runner rebuilds a fresh scenario per policy so
competing policies see *identical* clients, data, and latency statistics
(and, while alive together, one read-only copy of the data:
:meth:`PoolRecipe.draw` is memoised per process).

The three public builders -- partitioned benchmarks, LEAF / FEMNIST and
the population scale -- only differ in how they draw the data and the
resource columns.  Each draws its pool from a :class:`PoolRecipe`, wraps
pool, test set and client rows in one
:class:`~repro.data.partition.FederatedData` (whose ``client_rows`` is
the store's dataset provider, pickled as the recipe), records its knobs
in a :class:`ScenarioConfig`, and hands both to one assembler, which
builds the model, the latency/comm models and the store from that record.

Default sizes are scaled down from the paper (8x8 images, linear/MLP
surrogate models, thousands rather than tens of thousands of samples) so
the complete figure suite replays in seconds; every knob accepts
paper-scale values.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.config import PAPER_FEMNIST_TRAINING, PAPER_SYNTHETIC_TRAINING, TrainingConfig
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
)
from repro.data.partition import SeededRows
from repro.data.validation import check_partition
from repro.nn import Sequential, build_model
from repro.nn.zoo import MODEL_NAMES, check_model
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
from repro.simcluster.population import DEFAULT_CACHE_SIZE, PopulationStore, SeedAddress

__all__ = [
    "ScenarioConfig",
    "Scenario",
    "build_scenario",
    "build_leaf_scenario",
    "build_population_scenario",
    "PoolRecipe",
]

DATASETS = {
    "mnist": mnist_like,
    "fmnist": fmnist_like,
    "cifar10": cifar10_like,
    "femnist": femnist_like,
}

#: Latency calibration per dataset: single-CPU seconds per sample, chosen so
#: the simulated CPU-group spread reproduces the paper's speedup magnitudes
#: (heavier models => higher per-sample cost).
_COST_PER_SAMPLE = {"mnist": 0.005, "fmnist": 0.005, "cifar10": 0.010, "femnist": 0.008}

#: CPU groups per resource profile; ``heterogeneous`` is the paper's five
#: groups for the dataset (``build_scenario`` resolves it).
RESOURCE_PROFILES = {
    "heterogeneous": None,
    "homogeneous": (2.0,),
    "case_study": CASE_STUDY_CPU_GROUPS,
}
DATA_DISTRIBUTIONS = ("iid", "noniid", "quantity", "quantity_noniid")
#: Each client group's share of the data under the ``quantity``
#: distributions (Sec. 5.1: 10/15/20/25/30%).
_QUANTITY_FRACTIONS = (0.10, 0.15, 0.20, 0.25, 0.30)


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
        ``quantity`` (10/15/20/25/30% groups) | ``quantity_noniid`` (both).
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
        if self.dataset not in DATASETS:
            raise ValueError(
                f"unknown dataset {self.dataset!r}; use one of {sorted(DATASETS)}"
            )
        if self.data_distribution not in DATA_DISTRIBUTIONS:
            raise ValueError(
                f"unknown data_distribution {self.data_distribution!r}"
            )
        if self.resource_profile not in RESOURCE_PROFILES:
            raise ValueError(
                f"unknown resource profile {self.resource_profile!r}"
            )
        if self.model not in MODEL_NAMES:
            raise ValueError(f"unknown model {self.model!r}; use one of {list(MODEL_NAMES)}")
        if self.num_clients <= 0 or self.clients_per_round <= 0:
            raise ValueError("num_clients and clients_per_round must be positive")
        if self.clients_per_round > self.num_clients:
            raise ValueError("clients_per_round cannot exceed num_clients")

    def resolved_cpu_groups(self) -> Tuple[float, ...]:
        """The CPU groups :func:`build_scenario` deals the clients over."""
        groups = self.cpu_groups or RESOURCE_PROFILES[self.resource_profile]
        if groups is None:
            mnist = self.dataset in ("mnist", "fmnist")
            groups = MNIST_CPU_GROUPS if mnist else CIFAR_CPU_GROUPS
        return tuple(groups)

    def check_buildable(self) -> None:
        """Raise the ``ValueError`` :func:`build_scenario` would raise for
        this config, before anything is drawn -- a model whose layers
        cannot take ``shape`` included, checked without building it.

        Not part of ``__post_init__``: the LEAF and population builders
        record configs that ``build_scenario`` could not build (182
        clients over 5 groups, a pool smaller than the population).
        """
        n = self.num_clients
        if self.train_size < n:
            raise ValueError(
                f"cannot split {self.train_size} samples among {n} clients "
                "(each client needs at least one sample)"
            )
        if self.data_distribution in ("noniid", "quantity_noniid"):
            # The pool's labels cycle through the classes.
            classes = min(DATASETS[self.dataset].num_classes, self.train_size)
            if not 1 <= self.noniid_classes <= classes:
                raise ValueError(
                    f"classes_per_client must be in [1, {classes}], "
                    f"got {self.noniid_classes}"
                )
        if self.data_distribution in ("quantity", "quantity_noniid"):
            groups = len(_QUANTITY_FRACTIONS)
            if n % groups:
                raise ValueError(f"num_clients={n} not divisible by {groups} quantity groups")
        groups = len(self.resolved_cpu_groups())
        if n % groups:
            raise ValueError(f"num_clients={n} not divisible by {groups} groups")
        classes = DATASETS[self.dataset].num_classes
        check_model(self.model, self.shape, classes, **self._model_kwargs())

    def _model_kwargs(self) -> dict:
        return {"hidden": self.mlp_hidden} if self.model == "mlp" else {}

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
    (``clients[cid]`` materialises a :class:`SimClient`); ``fed`` holds
    the pool, the global test set and every client's rows.  ``config``
    records the values the scenario was built with.
    """

    config: ScenarioConfig
    clients: PopulationStore
    model: Sequential
    fed: FederatedData
    training: TrainingConfig
    latency_model: LatencyModel
    comm_model: CommModel

    @property
    def test_data(self) -> Dataset:
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
    if cfg.data_distribution == "quantity":
        return partition_quantity_skew(
            labels, cfg.num_clients, _QUANTITY_FRACTIONS, rng
        )
    # quantity_noniid: class-limited partition, then thin each client to the
    # group quantity share ("shard the dataset unevenly ... and limit the
    # number of classes", Sec. 5.1).
    base = partition_noniid_classes(labels, cfg.num_clients, cfg.noniid_classes, rng)
    fractions = np.asarray(_QUANTITY_FRACTIONS, dtype=np.float64)
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


def _assemble(
    cfg: ScenarioConfig,
    fed: FederatedData,
    columns: Tuple[Sequence[float], Sequence[float], Sequence[int]],
    model_rng: np.random.Generator,
    client_seed_rng: np.random.Generator,
    cache_size: int,
) -> Scenario:
    """The tail every builder shares: model, latency/comm models, store
    and :class:`Scenario`, all read off ``cfg``, so the record is what
    was built.  ``columns`` are the per-client CPU fractions, bandwidths
    and resource groups."""
    classes = fed.train.num_classes
    model = build_model(cfg.model, cfg.shape, classes, model_rng, **cfg._model_kwargs())
    latency_model = LatencyModel(
        cost_per_sample=cfg.cost_per_sample or _COST_PER_SAMPLE[cfg.dataset],
        base_overhead=cfg.base_overhead,
        noise_sigma=cfg.noise_sigma,
    )
    comm_model = CommModel()
    cpu_fraction, bandwidth_mbps, group = columns
    # The store captures client_seed_rng's spawn coordinates: clients[cid]
    # seeds from the child spawn(client_seed_rng, N)[cid] would get.
    # Value draws (a resource shuffle, the population's columns) leave
    # them unmoved; a builder's own spawn is counted in them.
    clients = PopulationStore(
        num_samples=fed.client_sizes(),
        cpu_fraction=cpu_fraction,
        bandwidth_mbps=bandwidth_mbps,
        group=group,
        dataset_for=fed.client_rows,
        latency_model=latency_model,
        comm_model=comm_model,
        holdout_fraction=cfg.holdout_fraction,
        seed_rng=client_seed_rng,
        cache_size=cache_size,
    )
    return Scenario(cfg, clients, model, fed, cfg.resolved_training(), latency_model, comm_model)


def _spec_columns(specs: Sequence[ResourceSpec]) -> Tuple[list, list, list]:
    """``assign_resource_groups`` output as the store's three columns."""
    return (
        [s.cpu_fraction for s in specs],
        [s.bandwidth_mbps for s in specs],
        [s.group for s in specs],
    )


#: ``build_mlp``'s default width: what ``model="mlp"`` has always meant
#: in the LEAF and population builders, which take no width.
_BUILDER_MLP_HIDDEN = (64,)


def build_scenario(cfg: ScenarioConfig, seed: RngLike = None) -> Scenario:
    """Build a scenario: dataset -> partition -> client store -> model."""
    cfg.check_buildable()
    data_rng, part_rng, model_rng, client_seed_rng = spawn(make_rng(seed), 4)
    address = SeedAddress.capture(data_rng)
    recipe = PoolRecipe(cfg.dataset, cfg.shape, cfg.train_size, address, difficulty=cfg.difficulty)
    train, test = recipe.draw(cfg.test_size)
    client_indices = _partition(cfg, train.y, part_rng)
    require_cover = cfg.data_distribution != "quantity_noniid"
    check_partition(client_indices, len(train), require_cover=require_cover)
    fed = FederatedData(train, test, client_indices, recipe)

    specs = assign_resource_groups(
        cfg.num_clients,
        cfg.resolved_cpu_groups(),
        shuffle=cfg.shuffle_resources,
        rng=client_seed_rng,
    )
    # The store's cache holds a whole paper-shape federation, so v1
    # profiling never sees an eviction.
    cache_size = max(DEFAULT_CACHE_SIZE, cfg.num_clients)
    return _assemble(cfg, fed, _spec_columns(specs), model_rng, client_seed_rng, cache_size)


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
    data_rng, model_rng, client_seed_rng = spawn(make_rng(seed), 3)
    address = SeedAddress.capture(data_rng)
    # This draw also makes the client rows, so it bypasses the recipe's
    # memo: the pool is as read-only as a memoised one, but not shared
    # with another build of the same arguments.
    fed = make_femnist_leaf(num_clients, shape, num_classes, scale=sample_scale, rng=data_rng)
    _read_only(fed.train)
    _read_only(fed.test)
    leaf = dict(writers=num_clients, num_classes=num_classes, scale=sample_scale)
    fed.recipe = PoolRecipe(_LEAF, shape, len(fed.train), address, **leaf)

    groups = tuple(cpu_groups)
    divisible = num_clients - num_clients % len(groups)
    specs = assign_resource_groups(divisible, groups, shuffle=True, rng=client_seed_rng)
    # Remainder clients (182 % 5 = 2) join the slowest group.
    specs += [ResourceSpec(groups[-1], group=len(groups) - 1)] * (num_clients - divisible)

    cfg = ScenarioConfig(
        dataset="femnist",
        num_clients=num_clients,
        clients_per_round=clients_per_round,
        cpu_groups=groups,
        shape=shape,
        train_size=len(fed.train),
        test_size=len(fed.test),
        model=model,
        mlp_hidden=_BUILDER_MLP_HIDDEN,
        training=training,
        cost_per_sample=cost_per_sample,
        base_overhead=base_overhead,
        noise_sigma=noise_sigma,
        holdout_fraction=holdout_fraction,
        shuffle_resources=True,
    )
    cache_size = max(DEFAULT_CACHE_SIZE, num_clients)
    return _assemble(cfg, fed, _spec_columns(specs), model_rng, client_seed_rng, cache_size)


#: ``PoolRecipe.dataset`` of the LEAF draw (:func:`make_femnist_leaf`).
_LEAF = "femnist-leaf"


@dataclass(frozen=True)
class PoolRecipe:
    """A synthetic ``(pool, test)`` draw as a frozen, hashable value.

    ``dataset`` names a ``DATASETS`` factory, which draws ``size`` pool
    rows of ``shape`` at ``difficulty`` (``None``: the factory's own), or
    is ``"femnist-leaf"``: :func:`make_femnist_leaf` over ``writers``
    writers and ``num_classes`` classes at sample ``scale``, whose pool
    size ``size`` records.  Either draw is a pure function of these
    fields and the seed sequence of the fresh generator it draws from
    (its :class:`SeedAddress`), so :meth:`draw` makes the same bytes in
    any process.  The pool is drawn before the test set, so it does not
    depend on ``test_size``: a process that needs only the pool draws it
    with none.  :meth:`draw` is memoised per process;
    :func:`build_leaf_scenario` alone draws outside the memo, because
    its draw also returns the client rows.
    """

    dataset: str
    shape: Tuple[int, ...]
    size: int
    seed: SeedAddress
    difficulty: Optional[float] = None
    writers: int = 0
    num_classes: int = 0
    scale: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))

    @property
    def nbytes(self) -> int:
        """Bytes of the pool's arrays: float64 samples and int64 labels."""
        return 8 * self.size * (math.prod(self.shape) + 1)

    def draw(self, test_size: int = 0) -> Tuple[Dataset, Dataset]:
        """The ``(pool, test)`` pair the recipe describes, one per process.

        Both come from one weak memo -- the pool keyed by the recipe, the
        test set by ``(recipe, test_size)`` -- and their arrays are
        read-only, so every federation of this recipe alive in the
        process shares them: each policy a ``compare`` rebuilds from
        ``(config, seed)``, and each shard unpickled here.  A miss draws
        both; the pool is drawn first, so its bytes do not depend on
        ``test_size``.  A hit on the pool alone needs no draw when
        ``test_size`` is 0: the empty test set is built beside it.
        """
        pool, test = _DRAWN.get(self), _DRAWN.get((self, test_size))
        if pool is not None and test is None and test_size == 0:
            # What ``_draw(0)`` returns beside the pool, without the draw.
            x, y = np.empty((0, *self.shape)), np.empty(0, dtype=np.int64)
            empty = Dataset(x, y, pool.num_classes, f"{self.dataset}-test")
            test = _DRAWN[(self, 0)] = _read_only(empty)
        if pool is None or test is None:
            fresh_pool, fresh_test = self._draw(test_size)
            if pool is None:
                pool = _DRAWN[self] = _read_only(fresh_pool)
            test = _DRAWN[(self, test_size)] = _read_only(fresh_test)
        return pool, test

    def _draw(self, test_size: int) -> Tuple[Dataset, Dataset]:
        rng = self.seed.sequence()
        if self.dataset == _LEAF:
            fed = make_femnist_leaf(
                self.writers, self.shape, self.num_classes, test_size=test_size,
                scale=self.scale, rng=rng,
            )
            return fed.train, fed.test
        return DATASETS[self.dataset](
            self.size, test_size, self.shape, difficulty_override=self.difficulty, rng=rng
        )


#: Every :meth:`PoolRecipe.draw` made in this process: a pool by its
#: recipe, a test set by ``(recipe, test_size)``.  Values are weak, so an
#: entry lives exactly as long as a federation or a client holds it.
_DRAWN: "weakref.WeakValueDictionary[object, Dataset]" = weakref.WeakValueDictionary()


def _read_only(data: Dataset) -> Dataset:
    """Freeze ``data``'s arrays in place: a drawn dataset is shared."""
    data.x.flags.writeable = False
    data.y.flags.writeable = False
    return data


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
    fastest, mirroring the paper's ordering); ``False`` gives every
    client 2 CPUs and 100 Mbps, the ``homogeneous`` profile.  Pair with
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
    data_rng, model_rng, client_seed_rng = spawn(make_rng(seed), 3)
    recipe = PoolRecipe("mnist", shape, int(pool_size), SeedAddress.capture(data_rng))
    pool, test = recipe.draw(test_size)

    # Columns: one vectorised draw each (value draws leave the spawn
    # counter alone, so the store's capture stays addressable).
    num_samples = client_seed_rng.integers(lo, hi, size=num_clients, endpoint=True)
    if heavy_tailed:
        cpu = np.clip(client_seed_rng.lognormal(0.0, 1.0, size=num_clients), 0.05, 16.0)
        bandwidth = np.clip(
            client_seed_rng.lognormal(np.log(100.0), 0.75, size=num_clients), 1.0, 1000.0
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
    rows = SeededRows(num_samples, SeedAddress.capture(data_seed_parent), recipe.size)
    cfg = ScenarioConfig(
        dataset="mnist",
        num_clients=num_clients,
        clients_per_round=clients_per_round,
        resource_profile="heterogeneous" if heavy_tailed else "homogeneous",
        shape=shape,
        train_size=pool_size,
        test_size=test_size,
        model=model,
        mlp_hidden=_BUILDER_MLP_HIDDEN,
        training=training,
        cost_per_sample=cost_per_sample,
        base_overhead=base_overhead,
        noise_sigma=noise_sigma,
        holdout_fraction=holdout_fraction,
    )
    fed = FederatedData(pool, test, rows, recipe)
    return _assemble(cfg, fed, (cpu, bandwidth, group), model_rng, client_seed_rng, cache_size)
