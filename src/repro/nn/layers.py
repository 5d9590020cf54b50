"""Differentiable layers.

Every layer implements ``forward(x, training)`` and ``backward(grad)``;
``backward`` must be called with the upstream gradient of the *most recent*
forward pass and returns the gradient w.r.t. the layer input while
filling ``layer.grads`` (keyed like ``layer.params``) **in place**.

``build`` allocates each parameter as an array of its own; a model then
moves them into its arena (:func:`repro.nn.model.bind_arena`), after
which ``params[name]`` and ``grads[name]`` are views of the one weight
vector the aggregator averages and of its gradient twin.  ``backward``
therefore writes through ``grads[name]`` and never re-binds it -- the
optimizer reads the arena, not the dict.  A layer used without a model
has no views to write through and allocates its gradient buffers on its
first ``backward`` (:meth:`Layer._grad`).

Stacked (leading client-axis) mode
----------------------------------
Every layer additionally implements ``forward_stacked`` /
``backward_stacked``, the cohort-batched twins used by
:class:`repro.nn.stacked.StackedSequential`: activations carry a leading
client axis (``(C, batch, ...)``) and parameters, where the layer has
any, carry the same leading axis (``(C,) + param.shape``) so ``C``
independent per-client layers advance in one call.  Parameter-free
layers fold the client axis into the batch axis (exact); parameterised
layers map onto numpy's batched ``matmul``, whose reduction order may
differ from the per-client GEMMs -- that reassociation is why the
``batched`` executor is its own versioned numerics stream (see
``docs/numerics.md``).  A stacked layer instance stores its stacked
parameters in the same ``params``/``grads`` dicts (views of a ``(C, P)``
arena); the two modes are never mixed on one instance.

Discarded input gradients
-------------------------
``backward`` / ``backward_stacked`` of a parameterised layer take
``input_grad=False``: fill ``grads`` and return ``None`` without
computing the input-gradient term (a GEMM, plus ``col2im`` for a conv).
A model's train step passes it to its bottom-most parameterised layer
only -- nothing below that layer learns, so nothing reads the value --
which is why parameter-free layers do not take the flag.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.nn import tensor_ops as T
from repro.nn.initializers import glorot_uniform, zeros_init

__all__ = [
    "Layer",
    "Dense",
    "ReLU",
    "Conv2D",
    "MaxPool2D",
    "Flatten",
    "Dropout",
]

Initializer = Callable[[np.random.Generator, Tuple[int, ...]], np.ndarray]


class Layer:
    """Base class: parameter bookkeeping plus the fwd/bwd contract."""

    def __init__(self) -> None:
        self.params: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}
        self.built = False

    # -- construction -------------------------------------------------
    def build(
        self, input_shape: Tuple[int, ...], rng: np.random.Generator
    ) -> Tuple[int, ...]:
        """Allocate parameters for ``input_shape`` (sans batch dim).

        Returns the output shape (sans batch dim).  Default: shape-preserving,
        parameter-free.
        """
        self.built = True
        return input_shape

    # -- compute ------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _grad(self, name: str) -> np.ndarray:
        """The buffer ``backward`` writes ``grads[name]`` into: the arena
        view a model bound, or -- for a layer used on its own -- one
        allocated on first use."""
        out = self.grads.get(name)
        if out is None:
            out = self.grads[name] = np.empty_like(self.params[name])
        return out

    def __getstate__(self) -> Dict[str, object]:
        # Gradients are scratch the next backward refills (and, under a
        # model, views that would each pickle as a full array): a copied
        # or shipped layer starts without them.
        return {**self.__dict__, "grads": {}}

    # -- stacked compute ----------------------------------------------
    def forward_stacked(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Cohort-batched forward: ``x`` is ``(C, batch, ...)``.

        Layers with parameters read them with a leading client axis
        (``(C,) + shape``); parameter-free layers treat every client
        slice exactly as :meth:`forward` would.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support stacked execution"
        )

    def backward_stacked(self, grad: np.ndarray) -> np.ndarray:
        """Cohort-batched backward for the most recent stacked forward."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support stacked execution"
        )

    # -- introspection ------------------------------------------------
    @property
    def num_params(self) -> int:
        return int(sum(p.size for p in self.params.values()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(params={self.num_params})"


class Dense(Layer):
    """Fully connected layer: ``y = x @ W + b``."""

    def __init__(
        self,
        units: int,
        kernel_init: Initializer = glorot_uniform,
        bias_init: Initializer = zeros_init,
    ) -> None:
        super().__init__()
        if units <= 0:
            raise ValueError(f"units must be positive, got {units}")
        self.units = units
        self._kernel_init = kernel_init
        self._bias_init = bias_init
        self._x: Optional[np.ndarray] = None

    def build(
        self, input_shape: Tuple[int, ...], rng: np.random.Generator
    ) -> Tuple[int, ...]:
        if len(input_shape) != 1:
            raise ValueError(
                f"Dense expects flat input, got shape {input_shape}; add Flatten"
            )
        in_dim = input_shape[0]
        self.params["W"] = self._kernel_init(rng, (in_dim, self.units))
        self.params["b"] = self._bias_init(rng, (self.units,))
        self.built = True
        return (self.units,)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._x = x if training else None
        return x @ self.params["W"] + self.params["b"]

    def backward(
        self, grad: np.ndarray, input_grad: bool = True
    ) -> Optional[np.ndarray]:
        if self._x is None:
            raise RuntimeError("backward called without a training forward pass")
        np.matmul(self._x.T, grad, out=self._grad("W"))
        np.sum(grad, axis=0, out=self._grad("b"))
        return grad @ self.params["W"].T if input_grad else None

    def forward_stacked(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        # x (C, n, in) @ W (C, in, units): one batched GEMM for the cohort.
        self._x = x if training else None
        return x @ self.params["W"] + self.params["b"][:, None, :]

    def backward_stacked(
        self, grad: np.ndarray, input_grad: bool = True
    ) -> Optional[np.ndarray]:
        if self._x is None:
            raise RuntimeError("backward called without a training forward pass")
        np.matmul(self._x.transpose(0, 2, 1), grad, out=self._grad("W"))
        np.sum(grad, axis=1, out=self._grad("b"))
        return grad @ self.params["W"].transpose(0, 2, 1) if input_grad else None


class ReLU(Layer):
    """Elementwise rectifier."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        mask = x > 0
        self._mask = mask if training else None
        return np.where(mask, x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called without a training forward pass")
        return grad * self._mask

    # Elementwise: the client axis is just another batch dim.
    forward_stacked = forward
    backward_stacked = backward


class Conv2D(Layer):
    """2-D convolution over NHWC tensors via im2col + GEMM.

    ``padding`` is either ``"valid"`` (no padding) or ``"same"`` (output
    spatial size equals input size for stride 1).
    """

    def __init__(
        self,
        filters: int,
        kernel_size: int,
        stride: int = 1,
        padding: str = "valid",
        kernel_init: Initializer = glorot_uniform,
        bias_init: Initializer = zeros_init,
    ) -> None:
        super().__init__()
        if filters <= 0 or kernel_size <= 0 or stride <= 0:
            raise ValueError("filters, kernel_size and stride must be positive")
        if padding not in ("valid", "same"):
            raise ValueError(f"padding must be 'valid' or 'same', got {padding!r}")
        self.filters = filters
        self.k = kernel_size
        self.stride = stride
        self.padding = padding
        self._kernel_init = kernel_init
        self._bias_init = bias_init
        self._cache: Optional[Tuple[np.ndarray, Tuple[int, int, int, int]]] = None

    def _pad_amount(self) -> int:
        if self.padding == "valid":
            return 0
        if self.stride != 1:
            raise ValueError("'same' padding requires stride 1")
        return (self.k - 1) // 2

    def build(
        self, input_shape: Tuple[int, ...], rng: np.random.Generator
    ) -> Tuple[int, ...]:
        if len(input_shape) != 3:
            raise ValueError(f"Conv2D expects (h, w, c) input, got {input_shape}")
        h, w, c = input_shape
        pad = self._pad_amount()
        oh = T.conv_out_size(h, self.k, self.stride, pad)
        ow = T.conv_out_size(w, self.k, self.stride, pad)
        self.params["W"] = self._kernel_init(rng, (self.k, self.k, c, self.filters))
        self.params["b"] = self._bias_init(rng, (self.filters,))
        self.built = True
        return (oh, ow, self.filters)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        pad = self._pad_amount()
        cols, (oh, ow) = T.im2col(x, self.k, self.k, self.stride, pad)
        w_mat = self.params["W"].reshape(-1, self.filters)
        out = cols @ w_mat + self.params["b"]
        self._cache = (cols, x.shape) if training else None
        return out.reshape(x.shape[0], oh, ow, self.filters)

    def backward(
        self, grad: np.ndarray, input_grad: bool = True
    ) -> Optional[np.ndarray]:
        if self._cache is None:
            raise RuntimeError("backward called without a training forward pass")
        cols, x_shape = self._cache
        n, oh, ow, f = grad.shape
        g = grad.reshape(n * oh * ow, f)
        np.matmul(cols.T, g, out=self._grad("W").reshape(-1, f))
        np.sum(g, axis=0, out=self._grad("b"))
        if not input_grad:
            return None
        dcols = g @ self.params["W"].reshape(-1, f).T
        return T.col2im(dcols, x_shape, self.k, self.k, self.stride, self._pad_amount())

    def forward_stacked(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        # x (C, n, h, w, ch); per-client patch matrices against per-client
        # kernels via one batched GEMM.
        pad = self._pad_amount()
        cols, (oh, ow) = T.stacked_im2col(x, self.k, self.k, self.stride, pad)
        c = x.shape[0]
        w_mat = self.params["W"].reshape(c, -1, self.filters)
        out = cols @ w_mat + self.params["b"][:, None, :]
        self._cache = (cols, x.shape) if training else None
        return out.reshape(c, x.shape[1], oh, ow, self.filters)

    def backward_stacked(
        self, grad: np.ndarray, input_grad: bool = True
    ) -> Optional[np.ndarray]:
        if self._cache is None:
            raise RuntimeError("backward called without a training forward pass")
        cols, x_shape = self._cache
        c, n, oh, ow, f = grad.shape
        g = grad.reshape(c, n * oh * ow, f)
        np.matmul(cols.transpose(0, 2, 1), g, out=self._grad("W").reshape(c, -1, f))
        np.sum(g, axis=1, out=self._grad("b"))
        if not input_grad:
            return None
        dcols = g @ self.params["W"].reshape(c, -1, f).transpose(0, 2, 1)
        return T.stacked_col2im(
            dcols, x_shape, self.k, self.k, self.stride, self._pad_amount()
        )


class MaxPool2D(Layer):
    """Max pooling over NHWC tensors."""

    def __init__(self, pool_size: int = 2, stride: Optional[int] = None) -> None:
        super().__init__()
        if pool_size <= 0:
            raise ValueError(f"pool_size must be positive, got {pool_size}")
        self.k = pool_size
        self.stride = stride if stride is not None else pool_size
        self._cache: Optional[Tuple[np.ndarray, Tuple[int, int, int, int]]] = None

    def build(
        self, input_shape: Tuple[int, ...], rng: np.random.Generator
    ) -> Tuple[int, ...]:
        h, w, c = input_shape
        oh = T.conv_out_size(h, self.k, self.stride, 0)
        ow = T.conv_out_size(w, self.k, self.stride, 0)
        self.built = True
        return (oh, ow, c)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out, arg = T.pool2d_forward(x, self.k, self.k, self.stride)
        self._cache = (arg, x.shape) if training else None
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called without a training forward pass")
        arg, x_shape = self._cache
        return T.pool2d_backward(grad, arg, x_shape, self.k, self.k, self.stride)

    def forward_stacked(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out, arg = T.stacked_pool2d_forward(x, self.k, self.k, self.stride)
        self._cache = (arg, x.shape) if training else None
        return out

    def backward_stacked(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called without a training forward pass")
        arg, x_shape = self._cache
        return T.stacked_pool2d_backward(
            grad, arg, x_shape, self.k, self.k, self.stride
        )


class Flatten(Layer):
    """Collapse all non-batch dims."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: Optional[Tuple[int, ...]] = None

    def build(
        self, input_shape: Tuple[int, ...], rng: np.random.Generator
    ) -> Tuple[int, ...]:
        self.built = True
        return (int(np.prod(input_shape)),)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called without a forward pass")
        return grad.reshape(self._shape)

    def forward_stacked(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], x.shape[1], -1)

    def backward_stacked(self, grad: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called without a forward pass")
        return grad.reshape(self._shape)


class Dropout(Layer):
    """Inverted dropout: active only when ``training=True``.

    The mask stream comes from the generator supplied at build time (one
    child stream per layer), keeping runs reproducible.
    """

    def __init__(self, rate: float) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng: Optional[np.random.Generator] = None
        self._mask: Optional[np.ndarray] = None

    def build(
        self, input_shape: Tuple[int, ...], rng: np.random.Generator
    ) -> Tuple[int, ...]:
        self._rng = np.random.default_rng(rng.integers(0, 2**63 - 1))
        self.built = True
        return input_shape

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        if self._rng is None:
            raise RuntimeError("Dropout used before build()")
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad
        return grad * self._mask

    # Elementwise with the layer's own mask stream; in stacked mode one
    # draw covers the whole (C, batch, ...) tensor.  Mask streams are
    # therefore stacked-stream-specific (see docs/numerics.md) -- like
    # the per-worker workspaces of the process / distributed backends,
    # they are not bit-aligned with the serial workspace's draws.
    forward_stacked = forward
    backward_stacked = backward
