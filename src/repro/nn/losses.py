"""Loss functions and regularisation penalties.

The primary loss is softmax cross-entropy, fused with the softmax for the
standard ``(p - y) / n`` gradient.  The proximal penalty implements the
FedProx local objective used as a baseline in the related-work comparison.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.nn.tensor_ops import one_hot

__all__ = [
    "softmax_cross_entropy",
    "proximal_penalty",
]


def _log_softmax_and_softmax(logits: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Both over the last axis, from one ``shifted`` / ``exp`` / row sum.

    The unfused ``log_softmax`` and ``softmax`` (the references in
    ``tests/conftest.py``) each compute those three on the same operands; sharing them applies the same operations to the same
    values, so both results keep their bits.  Both are fresh buffers
    the caller may finish in place; ``logits`` is only read.  ndarray
    methods, not ``np.*`` wrappers: on 10-sample batches dispatch dominates.
    """
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-1, keepdims=True)
    shifted -= np.log(total)
    e /= total
    return shifted, e


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> Tuple[float, np.ndarray]:
    """Mean softmax cross-entropy and its gradient w.r.t. ``logits``.

    Parameters
    ----------
    logits:
        ``(n, num_classes)`` raw scores.
    labels:
        ``(n,)`` integer class labels.

    Returns
    -------
    (loss, grad):
        The mean loss over the batch and the ``(p - y) / n`` gradient,
        shaped like ``logits``.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
    labels = np.asarray(labels)
    if labels.shape != logits.shape[:1]:
        raise ValueError(
            f"labels of shape {labels.shape} do not match logits of shape "
            f"{logits.shape}: expected labels of shape {logits.shape[:1]}"
        )
    n, k = logits.shape
    if n == 0:
        raise ValueError("cannot compute a loss over an empty batch")
    y = one_hot(labels, k)
    lsm, grad = _log_softmax_and_softmax(logits)
    lsm *= y
    loss = -lsm.sum() / n
    grad -= y
    grad /= n
    return loss, grad


def proximal_penalty(
    params: Dict[str, np.ndarray],
    anchor: Dict[str, np.ndarray],
    mu: float,
) -> Tuple[float, Dict[str, np.ndarray]]:
    """FedProx proximal term ``mu/2 * ||w - w_global||^2``.

    ``anchor`` holds the global weights broadcast at the start of the round.
    """
    if mu < 0:
        raise ValueError(f"proximal coefficient must be non-negative, got {mu}")
    missing = set(params) ^ set(anchor)
    if missing:
        raise KeyError(f"params/anchor key mismatch: {sorted(missing)}")
    loss = 0.0
    grads: Dict[str, np.ndarray] = {}
    for name, w in params.items():
        diff = w - anchor[name]
        loss += 0.5 * mu * float(np.sum(diff * diff))
        grads[name] = mu * diff
    return loss, grads
