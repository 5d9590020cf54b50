"""Federated partitioners (Section 5.1 "Heterogeneous Data Distribution").

Each partitioner maps a dataset's label vector to a list of per-client
index arrays.  The schemes used in the paper:

* :func:`partition_iid` -- uniform random equal split (the IID baseline),
* :func:`partition_noniid_classes` -- every client holds an equal number of
  images from exactly ``k`` classes (CIFAR-10 non-IID(2)/(5)/(10), after
  Zhao et al.),
* :func:`partition_quantity_skew` -- client groups receive 10/15/20/25/30%
  of the data (the data-quantity heterogeneity study).

Invariants (property-tested): client index sets are pairwise disjoint, all
within range, and cover the requested fraction of the dataset.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.datasets import Dataset, row_indices
from repro.rng import RngLike, make_rng

if TYPE_CHECKING:
    from repro.experiments.scenarios import PoolRecipe
    from repro.simcluster.population import SeedAddress

__all__ = [
    "FederatedData",
    "SeededRows",
    "partition_iid",
    "partition_noniid_classes",
    "partition_quantity_skew",
    "partition_dirichlet",
]


@dataclass(frozen=True, eq=False)
class SeededRows:
    """A row rule that stores no rows: client ``cid`` owns a sorted draw
    of ``sizes[cid]`` distinct rows of a ``pool_size``-row pool, from the
    generator seeded by ``address.child(cid)``.  Indexing it gives the
    same array a stored list would, so a population of any size costs
    one column."""

    sizes: np.ndarray
    address: SeedAddress
    pool_size: int

    def __getitem__(self, cid: int) -> np.ndarray:
        r = make_rng(self.address.child(cid))
        return np.sort(r.choice(self.pool_size, size=int(self.sizes[cid]), replace=False))


@dataclass
class FederatedData:
    """A federated view: shared train/test pools plus per-client indices.

    ``client_indices[i]`` selects client ``i``'s local samples from
    ``train``: a list of index arrays, or a :class:`SeededRows` rule.
    ``test`` is the global held-out set used for the reported accuracy;
    per-tier test sets are derived later from client-local held-out
    slices (see :class:`repro.tifl.server.TiFLServer`).

    ``client_rows`` is the dataset provider every scenario hands its
    :class:`~repro.simcluster.population.PopulationStore`, so this is
    what a store shard pickles.  With a ``recipe`` (a
    :class:`~repro.experiments.scenarios.PoolRecipe` that draws
    ``train``) it pickles as the recipe, the digest of ``train`` and the
    row rule, and the unpickling process draws the pool through the
    recipe's per-process memo (see :func:`_federation_from_recipe`); the
    test set stays behind.  A federation built by hand has no recipe and
    pickles its arrays.  Index arrays must be integers (``TypeError``
    otherwise: a mask or a float array is not rows).
    """

    train: Dataset
    test: Dataset
    client_indices: Sequence[np.ndarray]
    recipe: Optional[PoolRecipe] = None

    def __post_init__(self) -> None:
        if isinstance(self.client_indices, SeededRows):
            return
        self.client_indices = [row_indices(ix) for ix in self.client_indices]
        n = len(self.train)
        for cid, ix in enumerate(self.client_indices):
            if ix.size and (ix.min() < 0 or ix.max() >= n):
                raise ValueError(f"client {cid} has out-of-range indices")

    def client_rows(self, cid: int) -> Tuple[Dataset, np.ndarray]:
        """``(train, client_indices[cid])``: the shared pool and client ``cid``'s
        rows in it -- the provider shape ``PopulationStore(dataset_for=)`` takes."""
        return self.train, self.client_indices[cid]

    def client_sizes(self) -> np.ndarray:
        """Per-client sample counts (the ``s_c`` weights of Alg. 1)."""
        if isinstance(self.client_indices, SeededRows):
            return self.client_indices.sizes
        return np.array([ix.size for ix in self.client_indices], dtype=np.int64)

    @property
    def pool_digest(self) -> str:
        """The digest of ``train`` (:func:`_pool_digest`): computed when
        the federation is first pickled, never at build time, and once per
        pool object."""
        return _pool_digest(self.train)

    def __reduce_ex__(self, protocol):
        if self.recipe is None:
            return super().__reduce_ex__(protocol)
        return _federation_from_recipe, (self.recipe, self.pool_digest, self.client_indices)


#: Digest per pool object.  Recipe pools are read-only, so every
#: federation and every shard that shares one hashes it once.
_DIGESTS: "weakref.WeakKeyDictionary[Dataset, str]" = weakref.WeakKeyDictionary()


def _pool_digest(pool: Dataset) -> str:
    """sha256 over the sha256s of a pool's sample bytes, in two halves,
    and its label bytes, cached per object.  The halves hash in two
    threads (``hashlib`` releases the interpreter lock), so a second
    core halves the wait a ``process`` pool's set-up spends here."""
    digest = _DIGESTS.get(pool)
    if digest is None:
        x, y = (np.ascontiguousarray(a).reshape(-1).view(np.uint8) for a in (pool.x, pool.y))
        first, second = hashlib.sha256(), hashlib.sha256()
        thread = threading.Thread(target=first.update, args=(x[: x.size // 2],))
        thread.start()
        second.update(x[x.size // 2 :])
        thread.join()
        parts = first.digest() + second.digest() + hashlib.sha256(y).digest()
        digest = _DIGESTS[pool] = hashlib.sha256(parts).hexdigest()
    return digest


def _federation_from_recipe(
    recipe: PoolRecipe, digest: str, client_indices: Sequence[np.ndarray]
) -> FederatedData:
    """Unpickle a :class:`FederatedData`: draw its pool from the recipe.

    :meth:`~repro.experiments.scenarios.PoolRecipe.draw` is memoised per
    process, so a shard unpickled where its federation was built, or
    after another shard of it (a rejoined worker's session), shares
    that pool.  Pickled bytes come from a peer, so a recipe whose pool
    would not fit in one frame (``MAX_FRAME_PAYLOAD``) is refused before
    anything is allocated, and a pool whose bytes do not hash to
    ``digest`` is refused after the draw -- on a memo hit too.  Both
    raise ``ValueError``, which a worker reports as a ``ProtocolError``.
    The test set is not re-derived: the result's is empty.
    """
    from repro.distributed.transport import MAX_FRAME_PAYLOAD

    if recipe.nbytes > MAX_FRAME_PAYLOAD:
        raise ValueError(
            f"pool recipe describes {recipe.nbytes} bytes, more than one "
            f"frame carries ({MAX_FRAME_PAYLOAD})"
        )
    pool, empty_test = recipe.draw()
    if _pool_digest(pool) != digest:
        raise ValueError(
            f"pool digest mismatch: recipe {recipe} does not derive a "
            f"pool whose digest (_pool_digest) is {digest}"
        )
    return FederatedData(pool, empty_test, client_indices, recipe)


def _check_args(n: int, num_clients: int) -> None:
    if num_clients <= 0:
        raise ValueError(f"num_clients must be positive, got {num_clients}")
    if n < num_clients:
        raise ValueError(
            f"cannot split {n} samples among {num_clients} clients "
            "(each client needs at least one sample)"
        )


def partition_iid(
    labels: np.ndarray, num_clients: int, rng: RngLike = None
) -> List[np.ndarray]:
    """Uniform random equal-size split."""
    labels = np.asarray(labels)
    _check_args(labels.shape[0], num_clients)
    order = make_rng(rng).permutation(labels.shape[0])
    return [np.sort(part) for part in np.array_split(order, num_clients)]


def partition_noniid_classes(
    labels: np.ndarray,
    num_clients: int,
    classes_per_client: int,
    rng: RngLike = None,
) -> List[np.ndarray]:
    """Each client receives an equal number of images from exactly
    ``classes_per_client`` classes (Zhao et al. / the paper's CIFAR-10
    non-IID(k) setting).

    Class subsets are assigned round-robin over a shuffled class list so
    every class is held by roughly the same number of clients, then each
    class's samples are dealt evenly to its holders.
    """
    labels = np.asarray(labels)
    _check_args(labels.shape[0], num_clients)
    num_classes = int(labels.max()) + 1 if labels.size else 0
    if not 1 <= classes_per_client <= num_classes:
        raise ValueError(
            f"classes_per_client must be in [1, {num_classes}], "
            f"got {classes_per_client}"
        )
    g = make_rng(rng)
    # Build the client -> classes assignment with balanced class load.
    assignment: List[List[int]] = [[] for _ in range(num_clients)]
    deck: List[int] = []
    for c in range(num_clients):
        for _ in range(classes_per_client):
            if not deck:
                deck = list(g.permutation(num_classes))
            # Avoid giving the same class to one client twice when possible.
            pick = None
            for j, cls in enumerate(deck):
                if cls not in assignment[c]:
                    pick = deck.pop(j)
                    break
            if pick is None:  # tiny configs may force a duplicate; take top
                pick = deck.pop(0)
            assignment[c].append(int(pick))

    holders: List[List[int]] = [[] for _ in range(num_classes)]
    for cid, classes in enumerate(assignment):
        for cls in set(classes):
            holders[cls].append(cid)

    out: List[List[np.ndarray]] = [[] for _ in range(num_clients)]
    for cls in range(num_classes):
        idx = np.flatnonzero(labels == cls)
        if idx.size == 0:
            continue
        idx = g.permutation(idx)
        who = holders[cls]
        if not who:
            continue  # class unused by any client; acceptable for small k
        for part, cid in zip(np.array_split(idx, len(who)), who):
            out[cid].append(part)
    return [
        np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)
        for parts in out
    ]


def partition_quantity_skew(
    labels: np.ndarray,
    num_clients: int,
    group_fractions: Sequence[float] = (0.10, 0.15, 0.20, 0.25, 0.30),
    rng: RngLike = None,
) -> List[np.ndarray]:
    """Data-quantity heterogeneity: client *groups* own unequal data shares.

    ``group_fractions`` gives each group's share of the total training data
    (paper default 10/15/20/25/30%); clients within a group split their
    group's share evenly.  ``num_clients`` must be divisible by the number
    of groups.  Label distribution within every client stays IID.
    """
    labels = np.asarray(labels)
    _check_args(labels.shape[0], num_clients)
    fractions = np.asarray(group_fractions, dtype=np.float64)
    if fractions.ndim != 1 or fractions.size == 0:
        raise ValueError("group_fractions must be a non-empty 1-D sequence")
    if np.any(fractions <= 0):
        raise ValueError("all group fractions must be positive")
    if not np.isclose(fractions.sum(), 1.0, atol=1e-9):
        raise ValueError(f"group fractions must sum to 1, got {fractions.sum()}")
    num_groups = fractions.size
    if num_clients % num_groups != 0:
        raise ValueError(
            f"num_clients={num_clients} not divisible by "
            f"{num_groups} groups"
        )
    per_group = num_clients // num_groups
    n = labels.shape[0]
    order = make_rng(rng).permutation(n)

    # Integer group boundaries via cumulative rounding (keeps totals exact).
    bounds = np.round(np.cumsum(fractions) * n).astype(np.int64)
    starts = np.concatenate([[0], bounds[:-1]])
    out: List[np.ndarray] = []
    for gidx in range(num_groups):
        block = order[starts[gidx] : bounds[gidx]]
        for part in np.array_split(block, per_group):
            out.append(np.sort(part))
    return out


def partition_dirichlet(
    labels: np.ndarray,
    num_clients: int,
    alpha: float = 0.5,
    min_samples: int = 1,
    rng: RngLike = None,
) -> List[np.ndarray]:
    """Dirichlet label-skew partition (Hsu et al.; the de-facto standard
    non-IID generator in the FL literature, provided as a library
    extension beyond the paper's shard/class schemes).

    For every class, the class's samples are distributed over clients
    according to a ``Dirichlet(alpha)`` draw: ``alpha -> infinity``
    approaches IID, small ``alpha`` concentrates each class on few
    clients.  Clients left below ``min_samples`` are topped up from the
    largest client so every client can train.
    """
    labels = np.asarray(labels)
    _check_args(labels.shape[0], num_clients)
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if min_samples < 0:
        raise ValueError(f"min_samples must be non-negative, got {min_samples}")
    g = make_rng(rng)
    num_classes = int(labels.max()) + 1 if labels.size else 0

    buckets: List[List[np.ndarray]] = [[] for _ in range(num_clients)]
    for cls in range(num_classes):
        idx = np.flatnonzero(labels == cls)
        if idx.size == 0:
            continue
        idx = g.permutation(idx)
        props = g.dirichlet(np.full(num_clients, alpha))
        # cumulative rounding keeps the split exact
        bounds = np.round(np.cumsum(props) * idx.size).astype(np.int64)
        starts = np.concatenate([[0], bounds[:-1]])
        for cid in range(num_clients):
            part = idx[starts[cid] : bounds[cid]]
            if part.size:
                buckets[cid].append(part)

    out = [
        np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)
        for parts in buckets
    ]
    # top-up: move samples from the largest client to starved ones
    if min_samples > 0:
        for cid in range(num_clients):
            while out[cid].size < min_samples:
                donor = int(np.argmax([o.size for o in out]))
                if out[donor].size <= min_samples:
                    break  # nothing left to redistribute
                moved, rest = out[donor][:1], out[donor][1:]
                out[donor] = rest
                out[cid] = np.sort(np.concatenate([out[cid], moved]))
    return out
