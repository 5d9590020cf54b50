"""The :class:`Sequential` model container.

Beyond the usual fit/evaluate surface, the container exposes the federated
weight interface used by every aggregator in :mod:`repro.fl`:

* :meth:`Sequential.get_weights` / :meth:`Sequential.set_weights` -- list of
  arrays in a stable order,
* :meth:`Sequential.get_flat_weights` / :meth:`Sequential.set_flat_weights`
  -- a single 1-D vector (what travels "over the wire" in the simulation and
  what :func:`repro.fl.aggregator.fedavg` averages),
* :meth:`Sequential.num_params` -- payload size used by the communication
  model to compute transfer latencies.

The flat vector is not assembled on demand: it *is* the model's storage.
:func:`bind_arena` moves every parameter into one contiguous array (the
arena), with a gradient array beside it, and re-points each layer's
``params[name]`` / ``grads[name]`` at reshaped views of the two.  Layers
write gradients into their views in place, the optimizer runs once per
step over the whole arena, and the flat weight interface is one copy in
and one copy out.  Nothing may re-bind ``layer.params[name]`` or
``layer.grads[name]`` afterwards -- the arena would silently stop seeing
that tensor; write through the view (``np.copyto``, ``out=``, ``+=``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.layers import Layer
from repro.nn.losses import proximal_penalty, softmax_cross_entropy
from repro.nn.optimizers import Optimizer
from repro.rng import RngLike, make_rng

__all__ = ["Sequential", "bind_arena"]

#: The one optimizer-state key of a model: its whole arena.
ARENA_KEY = ("arena", "flat")


def bind_arena(
    layers: Sequence[Layer], lead: Tuple[int, ...] = ()
) -> Tuple[np.ndarray, np.ndarray]:
    """Move ``layers``' parameters into one array; returns it and its gradient twin.

    Both are ``lead + (P,)`` float64, parameters laid out in
    ``get_weights()`` order along the last axis.  Each ``params[name]``
    (shape ``s`` going in) is replaced by a ``lead + s`` view holding its
    values -- broadcast over ``lead``, which is how a stacked cohort
    starts as ``C`` copies of its template -- and ``grads[name]`` by the
    matching view of the zeroed gradient array.  Splitting the last axis
    of a slice never copies, so every view aliases its arena.
    """
    slots = [(layer, name) for layer in layers for name in sorted(layer.params)]
    total = sum(layer.params[name].size for layer, name in slots)
    flat = np.empty(lead + (total,), dtype=np.float64)
    gflat = np.zeros_like(flat)
    offset = 0
    for layer, name in slots:
        value = layer.params[name]
        stop = offset + value.size
        shape = lead + value.shape
        layer.params[name] = flat[..., offset:stop].reshape(shape)
        np.copyto(layer.params[name], value)
        layer.grads[name] = gflat[..., offset:stop].reshape(shape)
        offset = stop
    return flat, gflat


def first_param_index(layers: Sequence[Layer]) -> int:
    """Index of the bottom-most parameterised layer, ``-1`` if there is none."""
    return next((i for i, layer in enumerate(layers) if layer.params), -1)


class Sequential:
    """A linear stack of layers with analytic backprop.

    Parameters
    ----------
    layers:
        Layer instances, applied in order.
    input_shape:
        Per-sample input shape, e.g. ``(28, 28, 1)`` or ``(64,)``.
    rng:
        Seed spec for parameter initialization (see :mod:`repro.rng`).
    """

    def __init__(
        self,
        layers: Sequence[Layer],
        input_shape: Tuple[int, ...],
        rng: RngLike = None,
    ) -> None:
        if not layers:
            raise ValueError("a Sequential model needs at least one layer")
        self.layers: List[Layer] = list(layers)
        self.input_shape = tuple(int(s) for s in input_shape)
        self.output_shape = self._build(make_rng(rng))
        self._bind()

    def _build(self, rng: np.random.Generator) -> Tuple[int, ...]:
        shape = self.input_shape
        for layer in self.layers:
            shape = layer.build(shape, rng)
        return shape

    def _bind(self) -> None:
        self._flat, self._gflat = bind_arena(self.layers)
        self._first_param_idx = first_param_index(self.layers)

    def __getstate__(self) -> Dict[str, object]:
        # Each parameter is pickled once, through its layer's view (a
        # view pickles as an independent array); the arenas would only
        # repeat them, and the index is derived.
        state = self.__dict__.copy()
        del state["_flat"], state["_gflat"], state["_first_param_idx"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        # pickle and deepcopy hand back layers whose params are
        # independent arrays again: move them into a fresh arena.
        self.__dict__.update(state)
        self._bind()

    # ------------------------------------------------------------------
    # forward / backward
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run the full stack; returns logits ``(n, num_classes)``."""
        out = np.asarray(x, dtype=np.float64)
        expected = (out.shape[0],) + self.input_shape
        if out.shape != expected:
            raise ValueError(
                f"input shape {out.shape} does not match model input "
                f"{expected} (batch, *input_shape)"
            )
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def backward(
        self, grad: np.ndarray, input_grad: bool = True
    ) -> Optional[np.ndarray]:
        """Propagate ``grad`` (w.r.t. logits) back through the stack.

        Fills every ``layer.grads`` and returns the gradient w.r.t. the
        model input.  With ``input_grad=False`` -- what :meth:`train_step`
        asks for -- backprop stops at the bottom-most parameterised layer
        and skips that layer's input-gradient term (a GEMM, plus
        ``col2im`` for a conv): nothing below it learns, so nothing
        reads the value.  ``grads`` come out the same; the return value
        is ``None``.
        """
        first = -1 if input_grad else self._first_param_idx
        for layer in reversed(self.layers[first + 1 :]):
            grad = layer.backward(grad)
        if first < 0:
            return grad
        self.layers[first].backward(grad, input_grad=False)
        return None

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def train_step(
        self,
        x: np.ndarray,
        y: np.ndarray,
        optimizer: Optimizer,
        prox_anchor: Optional[List[np.ndarray]] = None,
        prox_mu: float = 0.0,
    ) -> float:
        """One mini-batch gradient step; returns the batch loss.

        When ``prox_anchor``/``prox_mu`` are given the FedProx proximal term
        ``mu/2 ||w - w_anchor||^2`` is added to the objective.
        """
        logits = self.forward(x, training=True)
        loss, grad = softmax_cross_entropy(logits, y)
        self.backward(grad, input_grad=False)
        if prox_mu > 0.0:
            if prox_anchor is None:
                raise ValueError("prox_mu > 0 requires prox_anchor weights")
            anchors = self._weights_as_dicts(prox_anchor)
            for li, layer in enumerate(self._param_layers()):
                ploss, pgrads = proximal_penalty(layer.params, anchors[li], prox_mu)
                loss += ploss
                for name, g in pgrads.items():
                    layer.grads[name] += g
        optimizer.update(ARENA_KEY, self._flat, self._gflat)
        return loss

    def fit_epoch(
        self,
        x: np.ndarray,
        y: np.ndarray,
        optimizer: Optimizer,
        batch_size: int,
        rng: RngLike = None,
        prox_anchor: Optional[List[np.ndarray]] = None,
        prox_mu: float = 0.0,
    ) -> float:
        """One local epoch of mini-batch SGD over ``(x, y)``.

        Returns the mean batch loss.  Shuffling uses the supplied stream.
        """
        n = x.shape[0]
        if n == 0:
            raise ValueError("cannot train on an empty dataset")
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        order = make_rng(rng).permutation(n)
        losses = []
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            losses.append(
                self.train_step(
                    x[idx], y[idx], optimizer, prox_anchor=prox_anchor, prox_mu=prox_mu
                )
            )
        return float(np.mean(losses))

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Class predictions ``(n,)`` computed in inference mode."""
        preds = []
        for start in range(0, x.shape[0], batch_size):
            logits = self.forward(x[start : start + batch_size], training=False)
            preds.append(np.argmax(logits, axis=1))
        if not preds:
            return np.empty((0,), dtype=np.int64)
        return np.concatenate(preds)

    def evaluate(self, x: np.ndarray, y: np.ndarray, batch_size: int = 256) -> float:
        """Top-1 accuracy on ``(x, y)``."""
        if x.shape[0] == 0:
            raise ValueError("cannot evaluate on an empty dataset")
        preds = self.predict(x, batch_size=batch_size)
        return float(np.mean(preds == np.asarray(y)))

    # ------------------------------------------------------------------
    # federated weight interface
    # ------------------------------------------------------------------
    def _param_layers(self) -> List[Layer]:
        return [layer for layer in self.layers if layer.params]

    def _weights_as_dicts(
        self, weights: Sequence[np.ndarray]
    ) -> List[Dict[str, np.ndarray]]:
        """Regroup a ``get_weights()``-ordered list into per-layer dicts."""
        out: List[Dict[str, np.ndarray]] = []
        it = iter(weights)
        for layer in self._param_layers():
            out.append({name: next(it) for name in sorted(layer.params)})
        leftover = sum(1 for _ in it)
        if leftover:
            raise ValueError(f"{leftover} extra weight tensors supplied")
        return out

    def get_weights(self) -> List[np.ndarray]:
        """Copies of all parameter tensors in deterministic order -- the
        order they occupy in the arena (layer by layer, names sorted)."""
        out: List[np.ndarray] = []
        for layer in self.layers:
            for name in sorted(layer.params):
                out.append(layer.params[name].copy())
        return out

    def set_weights(self, weights: Iterable[np.ndarray]) -> None:
        """Load tensors produced by :meth:`get_weights` (shape-checked),
        writing each through its layer's view into the arena."""
        weights = list(weights)
        slots = [
            (layer, name) for layer in self.layers for name in sorted(layer.params)
        ]
        if len(weights) != len(slots):
            raise ValueError(
                f"expected {len(slots)} weight tensors, got {len(weights)}"
            )
        for (layer, name), w in zip(slots, weights):
            if layer.params[name].shape != w.shape:
                raise ValueError(
                    f"shape mismatch for {type(layer).__name__}.{name}: "
                    f"{layer.params[name].shape} vs {w.shape}"
                )
            np.copyto(layer.params[name], w)

    def get_flat_weights(self) -> np.ndarray:
        """All parameters as one 1-D float64 vector: a copy of the arena.

        It has to be a copy -- the serial executor trains the next client
        in this same workspace while the previous client's returned
        vector is still held.
        """
        return self._flat.copy()

    def set_flat_weights(self, flat: np.ndarray) -> None:
        """Inverse of :meth:`get_flat_weights`: one copy into the arena."""
        flat = np.asarray(flat, dtype=np.float64)
        if flat.ndim != 1:
            raise ValueError(f"flat weights must be 1-D, got shape {flat.shape}")
        if flat.size != self._flat.size:
            raise ValueError(f"expected {self._flat.size} values, got {flat.size}")
        np.copyto(self._flat, flat)

    def num_params(self) -> int:
        """Total scalar parameter count (communication payload size)."""
        return self._flat.size

    def clone_architecture(self, rng: RngLike = None) -> "Sequential":
        """Fresh model with the same topology and new random weights.

        Used to stamp out per-client replicas; call :meth:`set_weights`
        afterwards to sync them to the global model.
        """
        import copy

        new_layers = []
        for layer in self.layers:
            blank = copy.copy(layer)
            blank.params = {}
            blank.grads = {}
            blank.built = False
            new_layers.append(blank)
        return Sequential(new_layers, self.input_shape, rng=rng)

    def summary(self) -> str:
        """Human-readable layer table."""
        lines = [f"Sequential(input={self.input_shape}, output={self.output_shape})"]
        for i, layer in enumerate(self.layers):
            lines.append(f"  [{i:2d}] {layer!r}")
        lines.append(f"  total params: {self.num_params()}")
        return "\n".join(lines)
