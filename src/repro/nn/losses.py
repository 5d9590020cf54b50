"""Loss functions and regularisation penalties.

The primary loss is softmax cross-entropy, fused with the softmax for the
standard ``(p - y) / n`` gradient.  The proximal penalty implements the
FedProx local objective used as a baseline in the related-work comparison.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.nn.tensor_ops import one_hot, stacked_one_hot

__all__ = [
    "softmax_cross_entropy",
    "stacked_softmax_cross_entropy",
    "l2_penalty",
    "proximal_penalty",
]


def _log_softmax_and_softmax(logits: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Both over the last axis, from one ``shifted`` / ``exp`` / row sum.

    :func:`~repro.nn.tensor_ops.log_softmax` and
    :func:`~repro.nn.tensor_ops.softmax` each compute those three on the
    same operands; sharing them applies the same operations to the same
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
        Scalar mean loss and ``(n, num_classes)`` gradient.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
    n, k = logits.shape
    if n == 0:
        raise ValueError("cannot compute a loss over an empty batch")
    y = one_hot(labels, k)
    lsm, grad = _log_softmax_and_softmax(logits)
    lsm *= y
    loss = float(-lsm.sum() / n)
    grad -= y
    grad /= n
    return loss, grad


def stacked_softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-client softmax cross-entropy over a stacked cohort.

    The leading-axis twin of :func:`softmax_cross_entropy`: every client
    in the stack gets its *own* mean loss and its own ``(p - y) / n``
    gradient -- losses never mix across the client axis, which is what
    keeps stacked local objectives independent.

    Parameters
    ----------
    logits:
        ``(C, n, num_classes)`` raw scores, one slice per client.
    labels:
        ``(C, n)`` integer class labels.

    Returns
    -------
    (losses, grad):
        ``(C,)`` per-client mean losses and the ``(C, n, num_classes)``
        gradient w.r.t. ``logits``.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 3:
        raise ValueError(f"stacked logits must be 3-D, got shape {logits.shape}")
    c, n, k = logits.shape
    if n == 0:
        raise ValueError("cannot compute a loss over an empty batch")
    labels = np.asarray(labels)
    if labels.shape != (c, n):
        raise ValueError(
            f"stacked labels must have shape {(c, n)}, got {labels.shape}"
        )
    y = stacked_one_hot(labels, k)
    lsm, grad = _log_softmax_and_softmax(logits)
    lsm *= y
    losses = -lsm.sum(axis=(1, 2)) / n
    grad -= y
    grad /= n
    return losses, grad


def l2_penalty(
    params: Dict[str, np.ndarray], lam: float
) -> Tuple[float, Dict[str, np.ndarray]]:
    """``lam/2 * ||w||^2`` over every tensor in ``params``; returns grads too."""
    if lam < 0:
        raise ValueError(f"l2 coefficient must be non-negative, got {lam}")
    loss = 0.0
    grads: Dict[str, np.ndarray] = {}
    for name, w in params.items():
        loss += 0.5 * lam * float(np.sum(w * w))
        grads[name] = lam * w
    return loss, grads


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
