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

Discarded input gradients
-------------------------
``backward`` of a parameterised layer takes
``input_grad=False``: fill ``grads`` and return ``None`` without
computing the input-gradient term (a GEMM, plus ``col2im`` for a conv).
A model's train step passes it to its bottom-most parameterised layer
only -- nothing below that layer learns, so nothing reads the value --
which is why parameter-free layers do not take the flag.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

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

        Returns the output shape (sans batch dim).  Default: parameter-free.
        """
        self.built = True
        return self.output_shape(input_shape)

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """The output shape :meth:`build` returns for ``input_shape``,
        raising what it would raise, without allocating anything.
        Default: shape-preserving."""
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


class Dense(Layer):
    """Fully connected layer: ``y = x @ W + b``."""

    def __init__(self, units: int) -> None:
        super().__init__()
        if units <= 0:
            raise ValueError(f"units must be positive, got {units}")
        self.units = units
        self._x: Optional[np.ndarray] = None

    def build(
        self, input_shape: Tuple[int, ...], rng: np.random.Generator
    ) -> Tuple[int, ...]:
        out = self.output_shape(input_shape)
        self.params["W"] = glorot_uniform(rng, (input_shape[0], self.units))
        self.params["b"] = zeros_init(rng, (self.units,))
        self.built = True
        return out

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if len(input_shape) != 1:
            raise ValueError(
                f"Dense expects flat input, got shape {input_shape}; add Flatten"
            )
        return (self.units,)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._x = x if training else None
        out = x @ self.params["W"]
        out += self.params["b"]
        return out

    def backward(
        self, grad: np.ndarray, input_grad: bool = True
    ) -> Optional[np.ndarray]:
        if self._x is None:
            raise RuntimeError("backward called without a training forward pass")
        np.matmul(self._x.T, grad, out=self._grad("W"))
        np.sum(grad, axis=0, out=self._grad("b"))
        return grad @ self.params["W"].T if input_grad else None


class ReLU(Layer):
    """Elementwise rectifier.

    Every zero it returns is ``+0.0``: ``np.maximum`` returns its second
    operand when the two compare equal, so ``-0.0`` maps to ``0.0``.  A
    NaN input propagates (``np.maximum`` is NaN-propagating).
    """

    def __init__(self) -> None:
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._mask = x > 0 if training else None
        return np.maximum(x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called without a training forward pass")
        return grad * self._mask


class Conv2D(Layer):
    """2-D convolution over NHWC tensors via im2col + GEMM.

    ``padding`` is either ``"valid"`` (no padding) or ``"same"`` (output
    spatial size equals input size for stride 1; the kernel must be odd,
    since an even one cannot be padded symmetrically).
    """

    def __init__(
        self,
        filters: int,
        kernel_size: int,
        stride: int = 1,
        padding: str = "valid",
    ) -> None:
        super().__init__()
        if filters <= 0 or kernel_size <= 0 or stride <= 0:
            raise ValueError("filters, kernel_size and stride must be positive")
        if padding not in ("valid", "same"):
            raise ValueError(f"padding must be 'valid' or 'same', got {padding!r}")
        if padding == "same" and kernel_size % 2 == 0:
            raise ValueError(
                f"padding='same' needs an odd kernel_size, got kernel_size={kernel_size}"
            )
        self.filters = filters
        self.k = kernel_size
        self.stride = stride
        self.padding = padding
        #: ``(rows, cols)`` of one sample's ``im2col`` matrix, set by build.
        self.patch_shape: Optional[Tuple[int, int]] = None
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
        oh, ow, f = self.output_shape(input_shape)
        c = input_shape[2]
        self.params["W"] = glorot_uniform(rng, (self.k, self.k, c, f))
        self.params["b"] = zeros_init(rng, (f,))
        self.patch_shape = (oh * ow, self.k * self.k * c)
        self.built = True
        return (oh, ow, f)

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if len(input_shape) != 3:
            raise ValueError(f"Conv2D expects (h, w, c) input, got {input_shape}")
        h, w, _ = input_shape
        pad = self._pad_amount()
        oh = T.conv_out_size(h, self.k, self.stride, pad)
        ow = T.conv_out_size(w, self.k, self.stride, pad)
        return (oh, ow, self.filters)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        f = self.filters
        cols, (oh, ow) = T.im2col(x, self.k, self.k, self.stride, self._pad_amount())
        out = cols @ self.params["W"].reshape(-1, f)
        out += self.params["b"]
        self._cache = (cols, x.shape) if training else None
        return out.reshape(x.shape[0], oh, ow, f)

    def backward(
        self, grad: np.ndarray, input_grad: bool = True
    ) -> Optional[np.ndarray]:
        if self._cache is None:
            raise RuntimeError("backward called without a training forward pass")
        cols, x_shape = self._cache
        g = grad.reshape(-1, self.filters)
        np.matmul(cols.T, g, out=self._grad("W").reshape(-1, self.filters))
        np.sum(g, axis=0, out=self._grad("b"))
        if not input_grad:
            return None
        dcols = g @ self.params["W"].reshape(-1, self.filters).T
        return T.col2im(dcols, x_shape, self.k, self.k, self.stride, self._pad_amount())


class MaxPool2D(Layer):
    """Max pooling over NHWC tensors."""

    def __init__(self, pool_size: int = 2, stride: Optional[int] = None) -> None:
        super().__init__()
        if pool_size <= 0:
            raise ValueError(f"pool_size must be positive, got {pool_size}")
        if stride is not None and stride <= 0:
            raise ValueError(f"stride must be positive, got {stride}")
        self.k = pool_size
        self.stride = stride if stride is not None else pool_size
        self._cache: Optional[Tuple[np.ndarray, Tuple[int, int, int, int]]] = None

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if len(input_shape) != 3:
            raise ValueError(f"MaxPool2D expects (h, w, c) input, got {input_shape}")
        h, w, c = input_shape
        oh = T.conv_out_size(h, self.k, self.stride, 0)
        ow = T.conv_out_size(w, self.k, self.stride, 0)
        return (oh, ow, c)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            out, arg = T.pool2d_forward(x, self.k, self.k, self.stride)
            self._cache = (arg, x.shape)
        else:
            out = T.pool2d_max(x, self.k, self.k, self.stride)
            self._cache = None
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called without a training forward pass")
        arg, x_shape = self._cache
        return T.pool2d_backward(grad, arg, x_shape, self.k, self.k, self.stride)


class Flatten(Layer):
    """Collapse all non-batch dims into one."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: Optional[Tuple[int, ...]] = None

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (int(np.prod(input_shape)),)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
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
        return super().build(input_shape, rng)

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
