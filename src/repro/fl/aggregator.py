"""Federated-averaging aggregation (Alg. 1, line 8).

The global update is the sample-count-weighted mean of client weights::

    w_{r+1} = sum_c (w_c * s_c) / sum_c s_c

:class:`FedAvgAccumulator` is the one summation rule: a running sum of
flat weight vectors (the wire format of this simulation) in call order.
A synchronous round adds each client's vector as the executor hands it
over, so no round holds its cohort; :func:`fedavg` is the same rule over
a list.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

__all__ = ["FedAvgAccumulator", "fedavg"]


class FedAvgAccumulator:
    """A weighted mean built one client vector at a time.

    ``add(w, s)`` in request order keeps ``acc = w_0 s_0``,
    ``acc += w_c s_c`` in one output buffer; the product ``w_c s_c`` is
    a temporary of the one add, so between adds the sum is the only
    vector alive.  :meth:`mean` then divides by the float64 sum of every
    size added, summed once at the end as an array.  For every length
    ``P >= 2`` this is bit for bit numpy's
    ``(s[:, None] * np.stack(weights)).sum(axis=0) / total``, which adds
    the rows of a C-contiguous stack one after another
    (``docs/numerics.md``, "Aggregation order").  An added vector is
    read, never kept or written.
    """

    def __init__(self) -> None:
        self._sum: Optional[np.ndarray] = None
        self._sizes: List[float] = []

    def add(self, weights: np.ndarray, size: float) -> None:
        """Fold one client's flat vector in, weighted by its ``size``."""
        s = np.float64(size)
        if not np.isfinite(s) or s < 0:
            # either turns the weighted mean into NaN
            raise ValueError(f"client sizes must be finite and non-negative, got {size}")
        w = np.asarray(weights, dtype=np.float64)
        if self._sum is None:
            if w.ndim != 1:
                raise ValueError("all weight vectors must be 1-D and equal length")
            self._sum = np.multiply(w, s)
        else:
            if w.shape != self._sum.shape:
                raise ValueError("all weight vectors must be 1-D and equal length")
            self._sum += np.multiply(w, s)
        self._sizes.append(s)

    def mean(self) -> np.ndarray:
        """The weighted mean of everything added, as a fresh vector.

        Hands its buffer over and leaves the accumulator empty."""
        if self._sum is None:
            raise ValueError("fedavg needs at least one client update")
        total = np.asarray(self._sizes, dtype=np.float64).sum()
        if total <= 0:
            raise ValueError("total sample count must be positive")
        out = self._sum
        self._sum, self._sizes = None, []
        out /= total
        return out


def fedavg(
    weights: Sequence[np.ndarray], sizes: Sequence[float]
) -> np.ndarray:
    """Weighted average of flat weight vectors: each ``(w_c, s_c)`` added
    to one :class:`FedAvgAccumulator` in order, then its mean.

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
    acc = FedAvgAccumulator()
    for w, size in zip(weights, sizes):
        acc.add(w, size)
    return acc.mean()
