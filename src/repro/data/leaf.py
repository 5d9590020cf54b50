"""LEAF-style FEMNIST federated dataset (Section 5.2.6).

LEAF's FEMNIST splits handwritten characters *by writer*: each client is
one writer, which yields (a) heavy data-quantity skew (writers contributed
very different numbers of characters, roughly log-normal), and (b) feature
skew (every writer's style is different) on top of mild class skew.  The
paper samples LEAF at fraction 0.05, giving **182 clients**.

This module reproduces those three properties synthetically:

* per-writer sample counts drawn from a log-normal fitted to LEAF's
  reported FEMNIST statistics (mean ≈ 226, std ≈ 88 samples/writer),
* per-writer class distribution drawn from a Dirichlet over the 62 classes
  (alpha controls class skew; LEAF FEMNIST is mildly skewed),
* per-writer feature shift applied to the shared class prototypes (the
  writer-style analogue).

The result is a :class:`~repro.data.partition.FederatedData` with one
client per writer.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.data.datasets import Dataset
from repro.data.partition import FederatedData
from repro.data.synthetic import SyntheticSpec, class_prototypes, generate_synthetic
from repro.rng import RngLike, make_rng

__all__ = ["make_femnist_leaf"]

#: Number of clients at LEAF's 0.05 sampling fraction (paper Sec. 5.1).
PAPER_NUM_CLIENTS = 182
#: LEAF FEMNIST per-writer sample statistics (train split).
LEAF_MEAN_SAMPLES = 226.83
LEAF_STD_SAMPLES = 88.94
#: Dirichlet concentration of each writer's class distribution; lower =
#: more skewed (LEAF FEMNIST is mildly skewed).
CLASS_SKEW_ALPHA = 2.0


def _writer_sample_counts(
    g: np.random.Generator, num_clients: int, mean: float, std: float, min_samples: int
) -> np.ndarray:
    """Log-normal per-writer counts matching LEAF's mean/std."""
    # Method-of-moments fit of a log-normal to (mean, std).
    sigma2 = np.log(1.0 + (std / mean) ** 2)
    mu = np.log(mean) - sigma2 / 2.0
    counts = np.exp(g.normal(mu, np.sqrt(sigma2), size=num_clients))
    return np.maximum(np.round(counts).astype(np.int64), min_samples)


def make_femnist_leaf(
    num_clients: int = PAPER_NUM_CLIENTS,
    shape: Tuple[int, ...] = (28, 28, 1),
    num_classes: int = 62,
    min_samples: int = 12,
    writer_style_scale: float = 0.35,
    difficulty: float = 0.40,
    test_size: int = 2000,
    scale: float = 1.0,
    rng: RngLike = None,
) -> FederatedData:
    """Build the synthetic LEAF/FEMNIST federation.

    Parameters
    ----------
    scale:
        Multiplies the per-writer sample counts; harnesses use ``scale <<
        1`` (e.g. 0.05) to keep benches fast while preserving the *relative*
        quantity skew across writers.
    writer_style_scale:
        Magnitude of the per-writer feature shift relative to the class
        signal (0 disables feature skew).
    """
    if num_clients <= 0:
        raise ValueError(f"num_clients must be positive, got {num_clients}")
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    g = make_rng(rng)
    spec = SyntheticSpec(shape=shape, num_classes=num_classes, difficulty=difficulty)
    protos = class_prototypes(spec, g)

    counts = _writer_sample_counts(
        g, num_clients, LEAF_MEAN_SAMPLES * scale, LEAF_STD_SAMPLES * scale, min_samples
    )
    class_probs = g.dirichlet(np.full(num_classes, CLASS_SKEW_ALPHA), size=num_clients)
    shifts = (
        g.standard_normal((num_clients, spec.dim))
        * writer_style_scale
        / np.sqrt(spec.dim)
    )

    xs: List[np.ndarray] = []
    ys: List[np.ndarray] = []
    client_indices: List[np.ndarray] = []
    offset = 0
    for cid in range(num_clients):
        n_c = int(counts[cid])
        labels = g.choice(num_classes, size=n_c, p=class_probs[cid])
        x, y = generate_synthetic(
            spec, n_c, g, prototypes=protos, labels=labels, writer_shift=shifts[cid]
        )
        xs.append(x)
        ys.append(y)
        client_indices.append(np.arange(offset, offset + n_c, dtype=np.int64))
        offset += n_c

    train = Dataset(
        np.concatenate(xs), np.concatenate(ys), num_classes, name="femnist-leaf"
    )
    # Global test set: balanced labels, *no* writer shift -- it plays the
    # role of LEAF's held-out users for the reported accuracy.
    te_labels = np.tile(np.arange(num_classes), int(np.ceil(test_size / num_classes)))
    te_labels = g.permutation(te_labels[:test_size])
    xte, yte = generate_synthetic(
        spec, test_size, g, prototypes=protos, labels=te_labels
    )
    test = Dataset(xte, yte, num_classes, name="femnist-leaf-test")
    return FederatedData(train=train, test=test, client_indices=client_indices)
