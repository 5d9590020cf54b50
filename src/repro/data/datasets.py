"""Dataset container and named dataset factories.

Each ``*_like`` factory mirrors one of the paper's benchmarks: same tensor
shape and class count, synthetic content (see :mod:`repro.data.synthetic`).
Sizes default to paper scale but every harness in this repo passes smaller
``train_size``/``shape`` values so the full evaluation replays in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.data.synthetic import SyntheticSpec, class_prototypes, generate_synthetic
from repro.rng import RngLike, make_rng

__all__ = [
    "Dataset",
    "make_dataset",
    "mnist_like",
    "fmnist_like",
    "cifar10_like",
    "femnist_like",
]


@dataclass
class Dataset:
    """An in-memory labelled dataset.

    Attributes
    ----------
    x:
        ``(n, *shape)`` float64 samples.
    y:
        ``(n,)`` int64 labels.
    num_classes:
        Label cardinality (may exceed ``y.max()+1`` for sparse subsets).
    name:
        Human-readable identifier for tables/figures.
    """

    x: np.ndarray
    y: np.ndarray
    num_classes: int
    name: str = "dataset"

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError(
                f"x/y length mismatch: {self.x.shape[0]} vs {self.y.shape[0]}"
            )
        if self.y.size and (self.y.min() < 0 or self.y.max() >= self.num_classes):
            raise ValueError("labels out of range for num_classes")

    def __len__(self) -> int:
        return int(self.x.shape[0])

    def subset(self, indices: np.ndarray, name: Optional[str] = None) -> "Dataset":
        """The rows at ``indices``, gathered into fresh buffers (an
        integer-array index always copies, so clients stay isolated)."""
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.x[idx], self.y[idx], self.num_classes, name or self.name)

    def split(
        self, first_size: int, rng: RngLike = None,
        rows: Optional[np.ndarray] = None, name: Optional[str] = None,
    ) -> Tuple["Dataset", "Dataset"]:
        """Random disjoint split into (first_size, rest) -- of ``rows``
        (int64) when given, composed with the permutation so each half is
        one gather from ``self`` and ``subset(rows)`` is never built."""
        n = len(self) if rows is None else len(rows)
        if not 0 <= first_size <= n:
            raise ValueError(f"first_size must be in [0, {n}], got {first_size}")
        order = make_rng(rng).permutation(n)
        if rows is not None:
            order = rows[order]
        return self.subset(order[:first_size], name), self.subset(order[first_size:], name)


def make_dataset(
    spec: SyntheticSpec,
    train_size: int,
    test_size: int,
    rng: RngLike = None,
    name: str = "synthetic",
) -> Tuple[Dataset, Dataset]:
    """Generate a (train, test) pair sharing one prototype geometry."""
    g = make_rng(rng)
    protos = class_prototypes(spec, g)
    # Balanced labels: the paper's benchmarks are class-balanced overall.
    def balanced_labels(n: int) -> np.ndarray:
        reps = int(np.ceil(n / spec.num_classes))
        labels = np.tile(np.arange(spec.num_classes), reps)[:n]
        return g.permutation(labels)

    xtr, ytr = generate_synthetic(
        spec, train_size, g, prototypes=protos, labels=balanced_labels(train_size)
    )
    xte, yte = generate_synthetic(
        spec, test_size, g, prototypes=protos, labels=balanced_labels(test_size)
    )
    train = Dataset(xtr, ytr, spec.num_classes, name=f"{name}-train")
    test = Dataset(xte, yte, spec.num_classes, name=f"{name}-test")
    return train, test


def _factory(
    name: str,
    default_shape: Tuple[int, ...],
    num_classes: int,
    difficulty: float,
):
    def build(
        train_size: int = 5000,
        test_size: int = 1000,
        shape: Optional[Tuple[int, ...]] = None,
        difficulty_override: Optional[float] = None,
        rng: RngLike = None,
    ) -> Tuple[Dataset, Dataset]:
        spec = SyntheticSpec(
            shape=shape or default_shape,
            num_classes=num_classes,
            difficulty=(
                difficulty if difficulty_override is None else difficulty_override
            ),
        )
        return make_dataset(spec, train_size, test_size, rng=rng, name=name)

    build.__name__ = f"{name}_like"
    build.__doc__ = (
        f"Synthetic {name.upper()}-like dataset: shape {default_shape}, "
        f"{num_classes} classes, difficulty {difficulty}. "
        "Pass a smaller `shape` (e.g. (8, 8, 1)) for fast experiments."
    )
    return build


# Difficulty ordering mirrors the paper: MNIST easiest, CIFAR-10 hardest
# ("richer features"), FEMNIST in between with many classes.
mnist_like = _factory("mnist", (28, 28, 1), 10, difficulty=0.25)
fmnist_like = _factory("fmnist", (28, 28, 1), 10, difficulty=0.35)
cifar10_like = _factory("cifar10", (32, 32, 3), 10, difficulty=0.55)
femnist_like = _factory("femnist", (28, 28, 1), 62, difficulty=0.40)
