"""Synthetic image-classification generator.

Samples are built as ``class_prototype * signal + writer_shift + noise``:

* each class has a random smooth prototype tensor,
* ``difficulty`` in [0, 1) shrinks the signal-to-noise ratio so learning
  curves saturate below 100% (matching the qualitative CIFAR-vs-MNIST gap
  in the paper: CIFAR-like tasks are configured harder),
* an optional *writer* id adds a per-writer affine feature shift, the
  mechanism :mod:`repro.data.leaf` uses for FEMNIST-style feature skew.

All generation is vectorised: the gaussian noise is drawn in row blocks
and added in place, with no per-sample Python loops and no second
dataset-sized buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.rng import RngLike, make_rng

__all__ = ["SyntheticSpec", "generate_synthetic", "class_prototypes"]

#: Rows of noise drawn per ``standard_normal`` call in
#: :func:`generate_synthetic` (the pins in
#: ``tests/data/test_synthetic_pins.py`` straddle it).
_NOISE_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class SyntheticSpec:
    """Declarative description of a synthetic dataset.

    Attributes
    ----------
    shape:
        Per-sample tensor shape, e.g. ``(28, 28, 1)``.
    num_classes:
        Label cardinality.
    difficulty:
        0 = trivially separable; towards 1 the class signal vanishes.
    prototype_smoothness:
        Size of the blur kernel applied to prototypes (images have spatial
        correlation; pure white-noise prototypes would be unrealistically
        easy for linear models).
    """

    shape: Tuple[int, ...]
    num_classes: int
    difficulty: float = 0.35
    prototype_smoothness: int = 3

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError(f"need >= 2 classes, got {self.num_classes}")
        if not 0.0 <= self.difficulty < 1.0:
            raise ValueError(f"difficulty must be in [0, 1), got {self.difficulty}")
        if any(int(s) <= 0 for s in self.shape):
            raise ValueError(f"all shape dims must be positive, got {self.shape}")

    @property
    def dim(self) -> int:
        return int(np.prod(self.shape))


def _smooth(flat_protos: np.ndarray, shape: Tuple[int, ...], k: int) -> np.ndarray:
    """Box-blur each prototype along its first spatial axis.

    A cheap stand-in for spatial correlation; exactness is irrelevant, only
    that nearby pixels co-vary.
    """
    if k <= 1 or len(shape) < 2:
        return flat_protos
    c, _ = flat_protos.shape
    imgs = flat_protos.reshape((c,) + shape)
    kernel = np.ones(k) / k
    # Convolve along the two leading spatial axes via FFT-free cumsum trick.
    for axis in (1, 2):
        imgs = np.apply_along_axis(
            lambda v: np.convolve(v, kernel, mode="same"), axis, imgs
        )
    return imgs.reshape(c, -1)


def class_prototypes(
    spec: SyntheticSpec, rng: RngLike = None
) -> np.ndarray:
    """Generate ``(num_classes, dim)`` unit-norm class prototypes."""
    g = make_rng(rng)
    protos = g.standard_normal((spec.num_classes, spec.dim))
    protos = _smooth(protos, spec.shape, spec.prototype_smoothness)
    norms = np.linalg.norm(protos, axis=1, keepdims=True)
    return protos / norms


def generate_synthetic(
    spec: SyntheticSpec,
    n: int,
    rng: RngLike = None,
    prototypes: Optional[np.ndarray] = None,
    labels: Optional[np.ndarray] = None,
    writer_shift: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` samples.

    Parameters
    ----------
    prototypes:
        Reuse an existing prototype matrix so that train/test (and every
        client) share the same class geometry.  Generated when omitted.
    labels:
        Fix the label vector (used by partition-aware generation); uniform
        over classes when omitted.
    writer_shift:
        Optional ``(dim,)`` additive feature shift modelling writer style.

    Returns
    -------
    (x, y):
        ``x`` of shape ``(n, *spec.shape)`` float64, ``y`` int64 labels.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    g = make_rng(rng)
    if prototypes is None:
        prototypes = class_prototypes(spec, g)
    if prototypes.shape != (spec.num_classes, spec.dim):
        raise ValueError(
            f"prototype matrix shape {prototypes.shape} does not match spec "
            f"({spec.num_classes}, {spec.dim})"
        )
    if labels is None:
        labels = g.integers(0, spec.num_classes, size=n)
    else:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (n,):
            raise ValueError(f"labels must have shape ({n},), got {labels.shape}")
        if n and (labels.min() < 0 or labels.max() >= spec.num_classes):
            raise ValueError("labels out of class range")

    shift = None
    if writer_shift is not None:
        shift = np.asarray(writer_shift, dtype=np.float64).ravel()
        if shift.size != spec.dim:
            raise ValueError(
                f"writer_shift must have {spec.dim} entries, got {shift.size}"
            )

    signal = 1.0 - spec.difficulty
    noise_scale = 0.25 + spec.difficulty
    root_dim = np.sqrt(spec.dim)
    x = np.asarray(prototypes, dtype=np.float64)[labels]  # a fresh buffer
    x *= signal
    # The noise is drawn and added a row block at a time: the generator
    # yields the same values in blocks as in one (n, dim) call, and the
    # arithmetic is the same per element, so the output is identical
    # without a second dataset-sized buffer.
    for start in range(0, n, _NOISE_BLOCK_ROWS):
        rows = x[start : start + _NOISE_BLOCK_ROWS]
        noise = g.standard_normal(rows.shape)
        noise *= noise_scale
        noise /= root_dim
        rows += noise
    if shift is not None:
        x += shift
    return x.reshape((n,) + tuple(spec.shape)), labels.astype(np.int64)
