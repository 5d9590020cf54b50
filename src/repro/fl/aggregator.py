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
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError("all weight vectors must be 1-D and equal length")
    s = _checked_sizes(sizes)
    total = s.sum()
    if total <= 0:
        raise ValueError("total sample count must be positive")
    return (s[:, None] * w).sum(axis=0) / total


def _checked_sizes(sizes: Sequence[float]) -> np.ndarray:
    """``sizes`` as float64, refusing NaN, infinite and negative counts
    (any of them turns the weighted mean into NaN)."""
    s = np.asarray(sizes, dtype=np.float64)
    if not np.isfinite(s).all() or np.any(s < 0):
        raise ValueError(f"client sizes must be finite and non-negative, got {sizes}")
    return s

