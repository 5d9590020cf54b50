"""Evaluation metrics."""

from __future__ import annotations

import numpy as np

__all__ = ["top_k_accuracy"]


def top_k_accuracy(logits: np.ndarray, labels: np.ndarray, k: int = 5) -> float:
    """Fraction of samples whose true label is among the top-k logits."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
    if not 1 <= k <= logits.shape[1]:
        raise ValueError(f"k must be in [1, {logits.shape[1]}], got {k}")
    if logits.shape[0] == 0:
        raise ValueError("top-k accuracy of an empty batch is undefined")
    topk = np.argpartition(-logits, k - 1, axis=1)[:, :k]
    hits = (topk == labels[:, None]).any(axis=1)
    return float(np.mean(hits))
