"""Unit + property tests for the low-level tensor kernels."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn import tensor_ops as T
from repro.nn.layers import ReLU
from tests.nn.test_train_step_pins import assert_bits_equal


class TestOneHot:
    def test_basic(self):
        out = T.one_hot(np.array([0, 2, 1]), 3)
        assert out.shape == (3, 3)
        np.testing.assert_array_equal(out, np.eye(3)[[0, 2, 1]])

    def test_rows_sum_to_one(self):
        out = T.one_hot(np.array([1, 1, 4]), 5)
        np.testing.assert_allclose(out.sum(axis=1), 1.0)

    def test_empty(self):
        out = T.one_hot(np.empty(0, dtype=int), 4)
        assert out.shape == (0, 4)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError, match="out of range"):
            T.one_hot(np.array([3]), 3)
        with pytest.raises(ValueError, match="out of range"):
            T.one_hot(np.array([-1]), 3)

    def test_non_1d_raises(self):
        with pytest.raises(ValueError, match="1-D"):
            T.one_hot(np.zeros((2, 2), dtype=int), 3)


class TestSoftmax:
    def test_rows_are_distributions(self, rng):
        logits = rng.standard_normal((8, 5)) * 10
        p = T.softmax(logits)
        assert np.all(p >= 0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_shift_invariance(self, rng):
        logits = rng.standard_normal((4, 6))
        np.testing.assert_allclose(
            T.softmax(logits), T.softmax(logits + 100.0), atol=1e-12
        )

    def test_extreme_values_stable(self):
        logits = np.array([[1000.0, -1000.0, 0.0]])
        p = T.softmax(logits)
        assert np.isfinite(p).all()
        np.testing.assert_allclose(p[0, 0], 1.0, atol=1e-12)

    def test_log_softmax_consistent(self, rng):
        logits = rng.standard_normal((5, 4))
        np.testing.assert_allclose(
            T.log_softmax(logits), np.log(T.softmax(logits)), atol=1e-10
        )


class TestPadding:
    def test_pad_shapes(self, rng):
        x = rng.standard_normal((2, 4, 5, 3))
        out = T.pad_nhwc(x, 2, 1)
        assert out.shape == (2, 8, 7, 3)

    def test_zero_pad_is_identity(self, rng):
        x = rng.standard_normal((1, 3, 3, 1))
        assert T.pad_nhwc(x, 0, 0) is x

    def test_content_preserved(self, rng):
        x = rng.standard_normal((1, 3, 3, 2))
        out = T.pad_nhwc(x, 1, 1)
        np.testing.assert_array_equal(out[:, 1:-1, 1:-1, :], x)
        assert out[:, 0].sum() == 0.0


class TestConvOutSize:
    @pytest.mark.parametrize(
        "size,k,s,p,expected",
        [(28, 3, 1, 0, 26), (28, 3, 1, 1, 28), (32, 2, 2, 0, 16), (5, 5, 1, 0, 1)],
    )
    def test_known_values(self, size, k, s, p, expected):
        assert T.conv_out_size(size, k, s, p) == expected

    def test_invalid_raises(self):
        with pytest.raises(ValueError, match="non-positive"):
            T.conv_out_size(2, 5, 1, 0)


class TestIm2Col:
    def test_shapes(self, rng):
        x = rng.standard_normal((2, 5, 5, 3))
        cols, (oh, ow) = T.im2col(x, 3, 3, 1, 0)
        assert (oh, ow) == (3, 3)
        assert cols.shape == (2 * 9, 27)

    def test_identity_kernel_1x1(self, rng):
        x = rng.standard_normal((2, 4, 4, 3))
        cols, (oh, ow) = T.im2col(x, 1, 1, 1, 0)
        np.testing.assert_allclose(cols.reshape(2, 4, 4, 3), x)

    def test_patch_content(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 4, 4, 1)
        cols, _ = T.im2col(x, 2, 2, 2, 0)
        # first patch is the top-left 2x2 block
        np.testing.assert_array_equal(cols[0], [0, 1, 4, 5])

    def test_col2im_adjoint(self, rng):
        """<im2col(x), y> == <x, col2im(y)> -- exact adjointness."""
        x = rng.standard_normal((2, 6, 6, 2))
        for stride, pad in [(1, 0), (1, 1), (2, 0)]:
            cols, _ = T.im2col(x, 3, 3, stride, pad)
            y = rng.standard_normal(cols.shape)
            lhs = float(np.sum(cols * y))
            back = T.col2im(y, x.shape, 3, 3, stride, pad)
            rhs = float(np.sum(x * back))
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


class TestPooling:
    def test_forward_known(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 4, 4, 1)
        out, arg = T.pool2d_forward(x, 2, 2, 2)
        np.testing.assert_array_equal(out[0, :, :, 0], [[5, 7], [13, 15]])

    def test_backward_routes_to_max(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 4, 4, 1)
        out, arg = T.pool2d_forward(x, 2, 2, 2)
        grad = np.ones_like(out)
        dx = T.pool2d_backward(grad, arg, x.shape, 2, 2, 2)
        expected = np.zeros((1, 4, 4, 1))
        for i, j in [(1, 1), (1, 3), (3, 1), (3, 3)]:
            expected[0, i, j, 0] = 1.0
        np.testing.assert_array_equal(dx, expected)

    def test_gradient_sum_conserved_non_overlapping(self, rng):
        x = rng.standard_normal((3, 8, 8, 2))
        out, arg = T.pool2d_forward(x, 2, 2, 2)
        grad = rng.standard_normal(out.shape)
        dx = T.pool2d_backward(grad, arg, x.shape, 2, 2, 2)
        np.testing.assert_allclose(dx.sum(), grad.sum(), rtol=1e-10)

    def test_overlapping_windows(self, rng):
        x = rng.standard_normal((1, 5, 5, 1))
        out, arg = T.pool2d_forward(x, 3, 3, 1)
        assert out.shape == (1, 3, 3, 1)
        grad = rng.standard_normal(out.shape)
        dx = T.pool2d_backward(grad, arg, x.shape, 3, 3, 1)
        np.testing.assert_allclose(dx.sum(), grad.sum(), rtol=1e-10)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 3),
    h=st.integers(4, 8),
    c=st.integers(1, 3),
    k=st.integers(1, 3),
    stride=st.integers(1, 2),
)
def test_im2col_col2im_adjoint_property(n, h, c, k, stride):
    """Adjointness holds for arbitrary geometry (property-based)."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, h, h, c))
    cols, _ = T.im2col(x, k, k, stride, 0)
    y = rng.standard_normal(cols.shape)
    lhs = float(np.sum(cols * y))
    rhs = float(np.sum(x * T.col2im(y, x.shape, k, k, stride, 0)))
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 2),
    h=st.integers(4, 7),
    w=st.integers(4, 7),
    c=st.integers(1, 2),
    kh=st.integers(1, 3),
    kw=st.integers(1, 3),
    stride=st.integers(1, 2),
    pad=st.integers(0, 2),
)
def test_col2im_adjoint_with_padding_property(n, h, w, c, kh, kw, stride, pad):
    """<im2col(x), y> == <x, col2im(y)> over rectangular kernels AND padding.

    Extends the pad=0 square-kernel property above to the full parameter
    space the conv layers actually use.
    """
    rng = np.random.default_rng(n * 1000 + h * 100 + kh * 10 + pad)
    x = rng.standard_normal((n, h, w, c))
    cols, _ = T.im2col(x, kh, kw, stride, pad)
    y = rng.standard_normal(cols.shape)
    lhs = float(np.sum(cols * y))
    rhs = float(np.sum(x * T.col2im(y, x.shape, kh, kw, stride, pad)))
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    rows=st.integers(1, 5),
    cols=st.integers(2, 8),
    scale=st.floats(0.01, 50.0),
    seed=st.integers(0, 10_000),
)
def test_log_softmax_equals_log_of_softmax_property(rows, cols, scale, seed):
    """log_softmax == log(softmax) within tolerance across logit scales,
    and exp(log_softmax) stays a valid distribution."""
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((rows, cols)) * scale
    ls = T.log_softmax(logits)
    np.testing.assert_allclose(ls, np.log(T.softmax(logits)), atol=1e-8)
    np.testing.assert_allclose(np.exp(ls).sum(axis=1), 1.0, atol=1e-10)
    assert np.all(ls <= 1e-12)


@settings(max_examples=50, deadline=None)
@given(
    num_classes=st.integers(1, 10),
    seed=st.integers(0, 10_000),
    n=st.integers(1, 20),
)
def test_one_hot_round_trip_property(num_classes, seed, n):
    """argmax inverts one_hot for any in-range labels; each boundary
    violation (-1 below, num_classes above) is rejected."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, num_classes, size=n)
    out = T.one_hot(labels, num_classes)
    np.testing.assert_array_equal(np.argmax(out, axis=1), labels)
    np.testing.assert_allclose(out.sum(axis=1), 1.0)
    for bad in (-1, num_classes):
        corrupted = labels.copy()
        corrupted[0] = bad
        with pytest.raises(ValueError, match="out of range"):
            T.one_hot(corrupted, num_classes)


# ----------------------------------------------------------------------
# the pool and ReLU kernels against the spellings they replaced
# ----------------------------------------------------------------------
def reference_pool2d_forward(x, kh, kw, stride):
    """``argmax`` + ``take_along_axis`` over the window view."""
    view = T._window_view(x, kh, kw, stride)
    n, oh, ow, _, _, c = view.shape
    flat = view.reshape(n, oh, ow, kh * kw, c)
    arg = np.argmax(flat, axis=3)
    out = np.take_along_axis(flat, arg[:, :, :, None, :], axis=3).squeeze(3)
    return out, arg


def reference_pool2d_backward(grad, arg, x_shape, kh, kw, stride):
    """``np.add.at`` scatter into the recorded max locations."""
    n, h, w, c = x_shape
    oh, ow = grad.shape[1], grad.shape[2]
    dx = np.zeros(x_shape, dtype=grad.dtype)
    ki, kj = np.divmod(arg, kw)
    rows = np.arange(oh)[None, :, None, None] * stride + ki
    cols = np.arange(ow)[None, None, :, None] * stride + kj
    ni = np.arange(n)[:, None, None, None]
    ci = np.arange(c)[None, None, None, :]
    np.add.at(dx, (ni, rows, cols, ci), grad)
    return dx


def reference_relu(x):
    return np.where(x > 0, x, 0.0)


#: A small value set, so windows hold repeated maxima and +-0 ties.
TIE_VALUES = (-1.0, -0.0, 0.0, 2.0)

#: Overlapping windows sum at most k*k <= 16 gradients per input element,
#: in another order than the reference; reordering m float64 addends
#: moves the sum by at most (m - 1) * eps * (sum of their magnitudes).
OVERLAP_RTOL = 16 * np.finfo(np.float64).eps


@st.composite
def pool_cases(draw):
    n, h, w, c, k = (draw(st.integers(1, 4)) for _ in range(5))
    stride = draw(st.integers(1, 4))
    assume(k <= h and k <= w)
    x = draw(arrays(np.float64, (n, h, w, c), elements=st.sampled_from(TIE_VALUES)))
    oh, ow = (h - k) // stride + 1, (w - k) // stride + 1
    finite = st.floats(-4.0, 4.0, allow_nan=False)
    grad = draw(arrays(np.float64, (n, oh, ow, c), elements=finite))
    return x, k, stride, grad


@settings(max_examples=300, deadline=None)
@given(case=pool_cases())
def test_pool2d_matches_reference_spelling(case):
    """Bitwise: the max, its first-in-raster-order index and -- without
    overlap -- the routed gradient; with overlap, within OVERLAP_RTOL."""
    x, k, stride, grad = case
    out_ref, arg_ref = reference_pool2d_forward(x, k, k, stride)
    assert_bits_equal(T.pool2d_max(x, k, k, stride), out_ref)
    out, arg = T.pool2d_forward(x, k, k, stride)
    assert_bits_equal(out, out_ref)
    assert_bits_equal(arg, arg_ref)
    dx = T.pool2d_backward(grad, arg, x.shape, k, k, stride)
    dx_ref = reference_pool2d_backward(grad, arg_ref, x.shape, k, k, stride)
    if stride >= k:
        assert_bits_equal(dx, dx_ref)
    else:
        magnitude = reference_pool2d_backward(np.abs(grad), arg_ref, x.shape, k, k, stride)
        assert np.all(np.abs(dx - dx_ref) <= OVERLAP_RTOL * magnitude)


def test_relu_matches_reference_with_negative_zero_at_every_position():
    """Lengths 1..67 cover every vector-width tail of np.maximum's loop."""
    rng = np.random.default_rng(0)
    for n in range(1, 68):
        base = rng.choice(TIE_VALUES, size=n)
        for pos in range(n):
            x = base.copy()
            x[pos] = -0.0
            assert_bits_equal(ReLU().forward(x, training=True), reference_relu(x))


@settings(max_examples=100, deadline=None)
@given(x=arrays(np.float64, st.integers(1, 67), elements=st.floats(allow_nan=False)))
def test_relu_matches_reference_on_every_non_nan_input(x):
    assert_bits_equal(ReLU().forward(x), reference_relu(x))


def test_relu_propagates_nan():
    out = ReLU().forward(np.array([np.nan, -1.0, 2.0]))
    assert np.isnan(out[0]) and out[1:].tolist() == [0.0, 2.0]
