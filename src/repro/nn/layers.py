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

Stacked mode: leading client axes
---------------------------------
Each layer has one ``forward`` / ``backward``, and it reads any leading
axes in front of the batch axis from its input.  That is how
:class:`repro.nn.stacked.StackedSequential` runs a cohort of ``C``
clients as one program: activations are ``(C, batch, ...)`` and the
parameters of a stacked instance carry the same leading axis
(``(C,) + param.shape``, views of a ``(C, P)`` arena), so ``C``
independent per-client layers advance in one call.  ``Conv2D`` and
``MaxPool2D`` fold the leading axes into the NHWC batch around the
per-sample ``im2col`` / ``col2im`` / pool kernels, and ``ReLU`` /
``Dropout`` are elementwise, so all of those are exact per client.
``Dense`` and the conv GEMM map onto numpy's batched ``matmul``, whose
reduction order may differ from ``C`` per-client GEMMs -- why the
``batched`` executor is its own versioned numerics stream (see
``docs/numerics.md``).

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

import math
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

def _nhwc(shape: Tuple[int, ...]) -> Tuple[int, ...]:
    """``shape`` with its leading axes -- the batch and any client axes
    in front of it -- merged into one NHWC batch axis.  The spatial
    kernels act per sample, so running them on the merged batch is
    exactly running them per client."""
    return (math.prod(shape[:-3]),) + shape[-3:]


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
        if len(input_shape) != 1:
            raise ValueError(
                f"Dense expects flat input, got shape {input_shape}; add Flatten"
            )
        in_dim = input_shape[0]
        self.params["W"] = glorot_uniform(rng, (in_dim, self.units))
        self.params["b"] = zeros_init(rng, (self.units,))
        self.built = True
        return (self.units,)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        # Stacked: x (C, n, in) @ W (C, in, units), one batched GEMM.
        self._x = x if training else None
        out = x @ self.params["W"]
        out += self.params["b"][..., None, :]
        return out

    def backward(
        self, grad: np.ndarray, input_grad: bool = True
    ) -> Optional[np.ndarray]:
        if self._x is None:
            raise RuntimeError("backward called without a training forward pass")
        np.matmul(self._x.swapaxes(-1, -2), grad, out=self._grad("W"))
        np.sum(grad, axis=-2, out=self._grad("b"))
        return grad @ self.params["W"].swapaxes(-1, -2) if input_grad else None


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
        self.params["W"] = glorot_uniform(rng, (self.k, self.k, c, self.filters))
        self.params["b"] = zeros_init(rng, (self.filters,))
        self.built = True
        return (oh, ow, self.filters)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        # Stacked: each client's (n * oh * ow, K) patch rows against its
        # own (K, filters) kernel, one batched GEMM.
        lead, f = x.shape[:-4], self.filters
        cols, (oh, ow) = T.im2col(
            x.reshape(_nhwc(x.shape)), self.k, self.k, self.stride, self._pad_amount()
        )
        cols = cols.reshape(lead + (-1, cols.shape[-1]))
        out = cols @ self.params["W"].reshape(lead + (-1, f))
        out += self.params["b"][..., None, :]
        self._cache = (cols, x.shape) if training else None
        return out.reshape(x.shape[:-3] + (oh, ow, f))

    def backward(
        self, grad: np.ndarray, input_grad: bool = True
    ) -> Optional[np.ndarray]:
        if self._cache is None:
            raise RuntimeError("backward called without a training forward pass")
        cols, x_shape = self._cache
        mat = x_shape[:-4] + (-1, self.filters)
        g = grad.reshape(mat)
        np.matmul(cols.swapaxes(-1, -2), g, out=self._grad("W").reshape(mat))
        np.sum(g, axis=-2, out=self._grad("b"))
        if not input_grad:
            return None
        dcols = g @ self.params["W"].reshape(mat).swapaxes(-1, -2)
        dx = T.col2im(
            dcols.reshape(-1, dcols.shape[-1]),
            _nhwc(x_shape),
            self.k,
            self.k,
            self.stride,
            self._pad_amount(),
        )
        return dx.reshape(x_shape)


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

    def build(
        self, input_shape: Tuple[int, ...], rng: np.random.Generator
    ) -> Tuple[int, ...]:
        if len(input_shape) != 3:
            raise ValueError(f"MaxPool2D expects (h, w, c) input, got {input_shape}")
        h, w, c = input_shape
        oh = T.conv_out_size(h, self.k, self.stride, 0)
        ow = T.conv_out_size(w, self.k, self.stride, 0)
        self.built = True
        return (oh, ow, c)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        xf = x.reshape(_nhwc(x.shape))
        if training:
            out, arg = T.pool2d_forward(xf, self.k, self.k, self.stride)
            self._cache = (arg, x.shape)
        else:
            out = T.pool2d_max(xf, self.k, self.k, self.stride)
            self._cache = None
        return out.reshape(x.shape[:-3] + out.shape[1:])

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called without a training forward pass")
        arg, x_shape = self._cache
        dx = T.pool2d_backward(
            grad.reshape(arg.shape), arg, _nhwc(x_shape), self.k, self.k, self.stride
        )
        return dx.reshape(x_shape)


class Flatten(Layer):
    """Collapse the sample dims it was built for into one; any axes in
    front of them (the batch, and a stack's client axis) are kept."""

    def __init__(self) -> None:
        super().__init__()
        self._sample_ndim: Optional[int] = None
        self._shape: Optional[Tuple[int, ...]] = None

    def build(
        self, input_shape: Tuple[int, ...], rng: np.random.Generator
    ) -> Tuple[int, ...]:
        self._sample_ndim = len(input_shape)
        self.built = True
        return (int(np.prod(input_shape)),)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if self._sample_ndim is None:
            raise RuntimeError("Flatten used before build()")
        self._shape = x.shape
        return x.reshape(x.shape[: x.ndim - self._sample_ndim] + (-1,))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called without a forward pass")
        return grad.reshape(self._shape)


class Dropout(Layer):
    """Inverted dropout: active only when ``training=True``.

    The mask stream comes from the generator supplied at build time (one
    child stream per layer), keeping runs reproducible.  A mask is one
    draw of the input's shape, so a stacked layer draws one mask for the
    whole ``(C, batch, ...)`` tensor from its own stream: stacked masks
    are not bit-aligned with per-client draws (``docs/numerics.md``).
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
