"""Low-level tensor kernels shared by the layers.

Everything here is pure-function numpy.  The convolution path uses the
classic im2col / col2im transformation so both the forward pass and the
gradient reduce to dense GEMMs -- the single most effective vectorisation
for conv nets in pure numpy (one matmul instead of a quadruple Python
loop).  Shapes follow the NHWC convention used throughout the package:
``(batch, height, width, channels)``.

Stacked kernels
---------------
There are none: the cohort-batched program of
:class:`repro.nn.stacked.StackedSequential` runs these same kernels.
Its layers read the leading client axis from their input and fold it
into the NHWC batch before calling ``im2col`` / ``col2im`` / the pool
kernels (which act per sample, so the fold is exact), and the loss
one-hot encodes the flattened labels (:mod:`repro.nn.layers`).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

__all__ = [
    "one_hot",
    "pad_nhwc",
    "conv_out_size",
    "im2col",
    "col2im",
    "pool2d_max",
    "pool2d_forward",
    "pool2d_backward",
]


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Encode integer ``labels`` of shape ``(n,)`` as ``(n, num_classes)``."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels out of range [0, {num_classes}): "
            f"min={labels.min()}, max={labels.max()}"
        )
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def pad_nhwc(x: np.ndarray, pad_h: int, pad_w: int) -> np.ndarray:
    """Zero-pad the spatial dims of an NHWC tensor."""
    if pad_h == 0 and pad_w == 0:
        return x
    return np.pad(
        x, ((0, 0), (pad_h, pad_h), (pad_w, pad_w), (0, 0)), mode="constant"
    )


def conv_out_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Output spatial extent of a conv / pool window sweep."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive output size: input={size} kernel={kernel} "
            f"stride={stride} pad={pad}"
        )
    return out


def _window_view(
    x: np.ndarray, kh: int, kw: int, stride: int
) -> np.ndarray:
    """Strided sliding-window view of an NHWC tensor.

    Returns shape ``(n, oh, ow, kh, kw, c)`` without copying.
    """
    n, h, w, c = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    sn, sh, sw, sc = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, oh, ow, kh, kw, c),
        strides=(sn, sh * stride, sw * stride, sh, sw, sc),
        writeable=False,
    )


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold NHWC tensor into patch matrix.

    Returns ``(cols, (oh, ow))`` where ``cols`` has shape
    ``(n * oh * ow, kh * kw * c)``; each row is one receptive field.
    """
    x = pad_nhwc(x, pad, pad)
    n, h, w, c = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    view = _window_view(x, kh, kw, stride)
    cols = view.reshape(n * oh * ow, kh * kw * c)
    return np.ascontiguousarray(cols), (oh, ow)


def _window_slices(
    shape: Tuple[int, ...], kh: int, kw: int, stride: int
) -> List[Tuple[slice, ...]]:
    """Index tuples into an NHWC tensor of ``shape``, one per window
    offset in window raster order: the ``k``-th, ``k = i * kw + j``,
    selects every window's ``(i, j)`` element as an ``(n, oh, ow, c)``
    strided view."""
    oh = (shape[1] - kh) // stride + 1
    ow = (shape[2] - kw) // stride + 1
    every = slice(None)
    return [
        (every, slice(i, i + stride * oh, stride), slice(j, j + stride * ow, stride), every)
        for i in range(kh)
        for j in range(kw)
    ]


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Fold a patch matrix back into an NHWC tensor, summing overlaps.

    Exact adjoint of :func:`im2col`; used for the conv input gradient.
    """
    n, h, w, c = x_shape
    hp, wp = h + 2 * pad, w + 2 * pad
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    patches = cols.reshape(n, oh, ow, kh * kw, c)
    out = np.zeros((n, hp, wp, c), dtype=cols.dtype)
    # kh*kw additions of full (n, oh, ow, c) blocks: loop extent is the
    # kernel size (small constant), not the batch or image size.
    for k, window in enumerate(_window_slices(out.shape, kh, kw, stride)):
        out[window] += patches[:, :, :, k, :]
    if pad == 0:
        return out
    return out[:, pad:-pad, pad:-pad, :]


def pool2d_max(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Max-pool an NHWC tensor: the first maximum in window raster order,
    as ``np.argmax`` picks it.

    One ``np.maximum`` pass per window offset, folded last offset first:
    ``np.maximum`` returns its second operand when the two compare equal
    (``+-0.0``), so on a tie the earlier offset's value -- sign of zero
    included -- replaces the later one's.
    """
    windows = _window_slices(x.shape, kh, kw, stride)
    out = x[windows[-1]].copy()
    for window in reversed(windows[:-1]):
        np.maximum(out, x[window], out=out)
    return out


def pool2d_forward(
    x: np.ndarray, kh: int, kw: int, stride: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Max-pool an NHWC tensor, recording where each maximum came from.

    Returns ``(out, argmax)``: ``out`` is :func:`pool2d_max`, and
    ``argmax`` holds the flat within-window index ``i * kw + j`` of the
    first maximum in window raster order, as ``np.argmax`` picks it --
    what :func:`pool2d_backward` routes the gradient to.
    """
    out = pool2d_max(x, kh, kw, stride)
    # The first match's index is the number of offsets before it that
    # all missed the maximum; the last offset needs no comparison.
    arg = np.zeros(out.shape, dtype=np.intp)
    missed = np.ones(out.shape, dtype=bool)
    for window in _window_slices(x.shape, kh, kw, stride)[:-1]:
        missed &= x[window] != out
        arg += missed
    return out, arg


def pool2d_backward(
    grad: np.ndarray,
    arg: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
) -> np.ndarray:
    """Route ``grad`` back through the maxima :func:`pool2d_forward`
    recorded (the first maximum in window raster order, as ``np.argmax``).

    One strided ``+=`` per window offset, as :func:`col2im` folds its
    patches.  With ``stride >= kernel`` every input element receives at
    most one gradient, so the result is exact; overlapping windows sum
    in offset order.
    """
    dx = np.zeros(x_shape, dtype=grad.dtype)
    for k, window in enumerate(_window_slices(x_shape, kh, kw, stride)):
        dx[window] += np.where(arg == k, grad, 0.0)
    return dx
