"""Federated-averaging aggregation (Alg. 1, line 8).

The global update is the sample-count-weighted mean of client weights::

    w_{r+1} = sum_c (w_c * s_c) / sum_c s_c

:func:`fedavg` operates on flat weight vectors (the wire format of this
simulation).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["fedavg"]


def fedavg(
    weights: Sequence[np.ndarray], sizes: Sequence[float]
) -> np.ndarray:
    """Weighted average of flat weight vectors.

    One running sum in request order, into one output buffer through one
    scratch vector: ``acc = w_0 s_0``, ``acc += w_c s_c``, ``acc /= total``.
    For every length ``P >= 2`` this is bit for bit numpy's
    ``(s[:, None] * np.stack(weights)).sum(axis=0) / total``, which adds
    the rows of a C-contiguous stack one after another, without the two
    ``C x P`` temporaries (``docs/numerics.md``, "Aggregation order").

    Parameters
    ----------
    weights:
        Per-client flat parameter vectors, all the same length.
    sizes:
        Per-client training-set sizes ``s_c`` (must be positive overall).
    """
    if len(weights) == 0:
        raise ValueError("fedavg needs at least one client update")
    if len(weights) != len(sizes):
        raise ValueError(
            f"got {len(weights)} weight vectors but {len(sizes)} sizes"
        )
    length = np.shape(weights[0])
    if len(length) != 1 or any(np.shape(w) != length for w in weights):
        raise ValueError("all weight vectors must be 1-D and equal length")
    s = _checked_sizes(sizes)
    total = s.sum()
    if total <= 0:
        raise ValueError("total sample count must be positive")
    acc = np.multiply(np.asarray(weights[0], dtype=np.float64), s[0])
    scratch = np.empty_like(acc)
    for w, size in zip(weights[1:], s[1:]):
        np.multiply(np.asarray(w, dtype=np.float64), size, out=scratch)
        acc += scratch
    acc /= total
    return acc


def _checked_sizes(sizes: Sequence[float]) -> np.ndarray:
    """``sizes`` as float64, refusing NaN, infinite and negative counts
    (any of them turns the weighted mean into NaN)."""
    s = np.asarray(sizes, dtype=np.float64)
    if not np.isfinite(s).all() or np.any(s < 0):
        raise ValueError(f"client sizes must be finite and non-negative, got {sizes}")
    return s

