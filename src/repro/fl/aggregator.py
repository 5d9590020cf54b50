"""Federated-averaging aggregation (Alg. 1, line 8).

The global update is the sample-count-weighted mean of client weights::

    w_{r+1} = sum_c (w_c * s_c) / sum_c s_c

:func:`fedavg` operates on flat weight vectors (the wire format of this
simulation).  :class:`HierarchicalAggregator` reproduces the master/child
aggregator tree of Bonawitz et al. that the paper's testbed follows; the
tree is algebraically equivalent to flat averaging (a tested invariant),
so TiFL's tiering composes with the scalable architecture unchanged.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = ["fedavg", "HierarchicalAggregator"]


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
    s = np.asarray(sizes, dtype=np.float64)
    if np.any(s < 0):
        raise ValueError(f"client sizes must be non-negative, got {sizes}")
    total = s.sum()
    if total <= 0:
        raise ValueError("total sample count must be positive")
    return (s[:, None] * w).sum(axis=0) / total


class HierarchicalAggregator:
    """Master/child aggregation tree.

    Child aggregators each average a disjoint shard of the round's client
    updates (weighted by sample counts) and forward ``(child_mean,
    child_total_samples)`` to the master, which computes the final
    weighted mean.  Because weighted means compose, the result equals
    :func:`fedavg` over all updates.
    """

    def __init__(self, num_children: int) -> None:
        if num_children <= 0:
            raise ValueError(f"num_children must be positive, got {num_children}")
        self.num_children = num_children

    def shard(self, n_updates: int) -> List[np.ndarray]:
        """Deterministic contiguous sharding of update indices to children."""
        return np.array_split(np.arange(n_updates), self.num_children)

    def aggregate(
        self, weights: Sequence[np.ndarray], sizes: Sequence[float]
    ) -> np.ndarray:
        """Two-level weighted mean; equivalent to flat :func:`fedavg`."""
        if len(weights) != len(sizes):
            raise ValueError(
                f"got {len(weights)} weight vectors but {len(sizes)} sizes"
            )
        child_means: List[np.ndarray] = []
        child_sizes: List[float] = []
        for shard in self.shard(len(weights)):
            if shard.size == 0:
                continue  # more children than updates: idle child
            shard_w = [weights[i] for i in shard]
            shard_s = [sizes[i] for i in shard]
            child_means.append(fedavg(shard_w, shard_s))
            child_sizes.append(float(np.sum(shard_s)))
        return fedavg(child_means, child_sizes)
