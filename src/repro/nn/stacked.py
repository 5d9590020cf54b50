"""Cohort-stacked tensor program: ``C`` clients as one leading axis.

:class:`StackedSequential` mirrors a template :class:`~repro.nn.model.
Sequential` but carries every activation as ``(C, batch, ...)`` and every
parameter as ``(C,) + shape`` -- ``C`` independent per-client models that
advance together, so each SGD step of a cohort is one batched GEMM per
layer instead of ``C`` small ones.  This is the kernel behind the
``batched`` executor (:mod:`repro.execution.batched`), the "train the
whole cohort as one tensor program" lever the round hot-path benchmark
exposes: same-tier TiFL cohorts are homogeneous by construction, which is
exactly what lets their per-client matmuls fuse.

There is no second set of kernels: the stack holds copies of the
template's layers and calls the same ``forward`` / ``backward`` and the
same loss :class:`~repro.nn.model.Sequential` does, which read the client
axis from their input (:mod:`repro.nn.layers`, "Stacked mode").  What is
the stack's own is what is specific to a cohort: storage, the template's
layout with a leading client axis -- one ``(C, P)`` arena and its
gradient twin (:func:`repro.nn.model.bind_arena`), row ``c`` being client
``c``'s flat weight vector and every layer tensor a view across the rows
-- the broadcast of one global vector to every row, the per-client
FedProx terms, and the per-client shuffle orders.

Numerics
--------
The stacked program performs the *same* floating-point operations as
``C`` serial passes, but batched ``matmul`` may reduce in a different
order than ``C`` separate GEMMs; float64 addition is not associative, so
stacked results are equal to serial only to rounding, not to the bit.
The ``batched`` executor is therefore a separate versioned numerics
stream -- excluded from the bit-identity harness, gated by golden-value
and accuracy-tolerance tests instead (see ``docs/numerics.md``).

Per-client independence
-----------------------
Nothing in the stack mixes clients: the loss
(:func:`~repro.nn.losses.softmax_cross_entropy`) returns one mean per
client, divided by that client's own batch, parameterised layers
contract only within a slice (batched GEMM), and optimizer updates are
elementwise, so optimizer state along the leading axis is exactly ``C``
independent optimizers -- property-tested in ``tests/nn/test_stacked.py``.
"""

from __future__ import annotations

import copy
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.layers import Dropout, Layer
from repro.nn.losses import softmax_cross_entropy
from repro.nn.model import ARENA_KEY, Sequential, bind_arena, first_param_index
from repro.nn.optimizers import Optimizer
from repro.rng import RngLike, make_rng

__all__ = ["StackedSequential"]


class StackedSequential:
    """``C`` independent replicas of a template model, stacked on axis 0.

    Parameters
    ----------
    template:
        The built model whose architecture (and parameter slot order) the
        stack mirrors.  The template itself is never touched.
    num_clients:
        ``C``, the leading-axis extent.  Weights start as ``C`` copies of
        the template's weights; load cohort weights with
        :meth:`set_flat_weights`.
    rng:
        Seed spec for stochastic layers (Dropout mask streams).  Stacked
        mask streams are stacked-stream-specific: one draw covers the
        whole ``(C, batch, ...)`` tensor.
    """

    def __init__(
        self, template: Sequential, num_clients: int, rng: RngLike = None
    ) -> None:
        if num_clients <= 0:
            raise ValueError(f"num_clients must be positive, got {num_clients}")
        self.num_clients = int(num_clients)
        self.input_shape = template.input_shape
        base = make_rng(rng)
        self.layers: List[Layer] = []
        for layer in template.layers:
            stacked = copy.copy(layer)
            # The template's tensors, for bind_arena to broadcast into
            # the stack's own arena (the dict itself must not be shared).
            stacked.params = dict(layer.params)
            stacked.grads = {}
            if isinstance(stacked, Dropout):
                # Private mask stream per stacked program (never shared
                # with the template's workspace draws).
                stacked._rng = np.random.default_rng(
                    base.integers(0, 2**63 - 1)
                )
            self.layers.append(stacked)
        self._flat, self._gflat = bind_arena(self.layers, (self.num_clients,))
        self._slots: List[Tuple[Layer, str]] = [
            (layer, name) for layer in self.layers for name in sorted(layer.params)
        ]
        self._first_param_idx = first_param_index(self.layers)

    # ------------------------------------------------------------------
    # weight interface
    # ------------------------------------------------------------------
    def num_params(self) -> int:
        """Per-client flat parameter count (matches the template)."""
        return self._flat.shape[1]

    def set_flat_weights(self, flat: np.ndarray) -> None:
        """Load per-client flat vectors ``(C, P)`` -- or one ``(P,)``
        vector broadcast to every client (a round's global broadcast)."""
        flat = np.asarray(flat, dtype=np.float64)
        if flat.ndim == 1:
            flat = np.broadcast_to(flat, (self.num_clients, flat.size))
        if flat.shape != self._flat.shape:
            raise ValueError(
                f"expected flat weights of shape "
                f"{self._flat.shape}, got {flat.shape}"
            )
        np.copyto(self._flat, flat)

    def get_flat_weights(self) -> np.ndarray:
        """Per-client flat weight vectors, shape ``(C, P)`` (a copy)."""
        return self._flat.copy()

    # ------------------------------------------------------------------
    # forward / backward
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run the stacked stack; returns logits ``(C, n, num_classes)``."""
        out = np.asarray(x, dtype=np.float64)
        if (
            out.ndim < 2
            or out.shape[0] != self.num_clients
            or out.shape[2:] != self.input_shape
        ):
            raise ValueError(
                f"stacked input shape {out.shape} does not match "
                f"({self.num_clients}, batch, *{self.input_shape})"
            )
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    # The backward loop is Sequential's: every layer reads the client
    # axis from the gradient, and ``input_grad=False`` truncates at the
    # bottom-most parameterised layer the same way.
    backward = Sequential.backward

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def train_step(
        self,
        x: np.ndarray,
        y: np.ndarray,
        optimizer: Optimizer,
        prox_anchor: Optional[Sequence[np.ndarray]] = None,
        prox_mu: float = 0.0,
    ) -> np.ndarray:
        """One cohort-wide mini-batch step; returns per-client losses ``(C,)``.

        ``optimizer`` is one optimizer instance whose state is one
        ``(C, P)`` array beside the arena: every update rule in
        :mod:`repro.nn.optimizers` is elementwise, so the rows stay
        independent (no cross-client mixing).  ``prox_anchor`` takes the
        template-shaped global weights (same anchor for every client,
        exactly the FedProx broadcast semantics).
        """
        logits = self.forward(x, training=True)
        losses, grad = softmax_cross_entropy(logits, y)
        self.backward(grad, input_grad=False)
        if prox_mu > 0.0:
            if prox_anchor is None:
                raise ValueError("prox_mu > 0 requires prox_anchor weights")
            anchors = list(prox_anchor)
            if len(anchors) != len(self._slots):
                raise ValueError(
                    f"expected {len(self._slots)} anchor tensors, "
                    f"got {len(anchors)}"
                )
            for (layer, name), a in zip(self._slots, anchors):
                diff = layer.params[name] - a  # (C,)+shape minus shape
                losses = losses + 0.5 * prox_mu * np.sum(
                    diff.reshape(self.num_clients, -1) ** 2, axis=1
                )
                layer.grads[name] += prox_mu * diff
        optimizer.update(ARENA_KEY, self._flat, self._gflat)
        return losses

    def fit_epoch(
        self,
        x: np.ndarray,
        y: np.ndarray,
        optimizer: Optimizer,
        batch_size: int,
        orders: np.ndarray,
        prox_anchor: Optional[Sequence[np.ndarray]] = None,
        prox_mu: float = 0.0,
    ) -> np.ndarray:
        """One stacked local epoch; returns per-client mean losses ``(C,)``.

        ``orders`` is the ``(C, n)`` matrix of per-client shuffle
        permutations -- drawn by the caller from each client's own train
        RNG (one :func:`~numpy.random.Generator.permutation` per client
        per epoch, the same consumption as the serial path), so a
        batched round leaves every client's RNG in the state a serial
        round would.  All clients must share ``n`` and the batch
        schedule: that cohort homogeneity is what makes stacking exact.
        """
        c, n = x.shape[0], x.shape[1]
        if n == 0:
            raise ValueError("cannot train on an empty dataset")
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if orders.shape != (c, n):
            raise ValueError(
                f"orders must have shape {(c, n)}, got {orders.shape}"
            )
        ci = np.arange(c)[:, None]
        x_ord = x[ci, orders]
        y_ord = y[ci, orders]
        losses = []
        for start in range(0, n, batch_size):
            losses.append(
                self.train_step(
                    x_ord[:, start : start + batch_size],
                    y_ord[:, start : start + batch_size],
                    optimizer,
                    prox_anchor=prox_anchor,
                    prox_mu=prox_mu,
                )
            )
        return np.mean(np.stack(losses), axis=0)
