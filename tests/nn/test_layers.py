"""Analytic-vs-numeric gradient checks for every layer.

Each layer's ``backward`` is validated against central differences both
w.r.t. the input and w.r.t. every parameter tensor -- the canonical way to
certify hand-written backprop.
"""

import numpy as np
import pytest

from repro.nn.layers import Conv2D, Dense, Dropout, Flatten, MaxPool2D, ReLU
from tests.conftest import numeric_gradient


def check_input_gradient(layer, x, seed=0, atol=1e-6):
    rng = np.random.default_rng(seed)
    out = layer.forward(x, training=True)
    upstream = rng.standard_normal(out.shape)

    def loss():
        return float(np.sum(layer.forward(x, training=True) * upstream))

    num = numeric_gradient(loss, x)
    layer.forward(x, training=True)
    analytic = layer.backward(upstream)
    np.testing.assert_allclose(analytic, num, atol=atol, rtol=1e-4)


def check_param_gradients(layer, x, seed=0, atol=1e-6):
    rng = np.random.default_rng(seed)
    out = layer.forward(x, training=True)
    upstream = rng.standard_normal(out.shape)
    layer.backward(upstream)
    analytic = {k: v.copy() for k, v in layer.grads.items()}
    for name, param in layer.params.items():
        def loss():
            return float(np.sum(layer.forward(x, training=True) * upstream))

        num = numeric_gradient(loss, param)
        np.testing.assert_allclose(
            analytic[name], num, atol=atol, rtol=1e-4,
            err_msg=f"gradient mismatch for param {name!r}",
        )


class TestDense:
    def test_forward_shape(self, rng):
        layer = Dense(7)
        layer.build((5,), rng)
        out = layer.forward(rng.standard_normal((3, 5)))
        assert out.shape == (3, 7)

    def test_forward_linear(self, rng):
        layer = Dense(2)
        layer.build((3,), rng)
        layer.params["W"] = np.eye(3, 2)
        layer.params["b"] = np.array([1.0, -1.0])
        out = layer.forward(np.array([[2.0, 3.0, 4.0]]))
        np.testing.assert_allclose(out, [[3.0, 2.0]])

    def test_gradients(self, rng):
        layer = Dense(4)
        layer.build((6,), rng)
        x = rng.standard_normal((3, 6))
        check_input_gradient(layer, x)
        check_param_gradients(layer, x)

    def test_backward_without_forward_raises(self, rng):
        layer = Dense(2)
        layer.build((2,), rng)
        with pytest.raises(RuntimeError, match="backward"):
            layer.backward(np.zeros((1, 2)))

    def test_inference_forward_does_not_cache(self, rng):
        layer = Dense(2)
        layer.build((2,), rng)
        layer.forward(np.zeros((1, 2)), training=False)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 2)))

    def test_invalid_units(self):
        with pytest.raises(ValueError, match="positive"):
            Dense(0)

    def test_requires_flat_input(self, rng):
        with pytest.raises(ValueError, match="flat"):
            Dense(3).build((4, 4, 1), rng)


class TestReLU:
    def test_forward(self):
        layer = ReLU()
        out = layer.forward(np.array([[-1.0, 0.0, 2.0]]), training=True)
        np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])

    def test_gradient(self, rng):
        layer = ReLU()
        # keep values away from the kink for stable numerics
        x = rng.standard_normal((4, 5))
        x[np.abs(x) < 0.1] += 0.2
        check_input_gradient(layer, x)


class TestConv2D:
    def test_forward_shape_valid(self, rng):
        layer = Conv2D(4, 3)
        shape = layer.build((6, 6, 2), rng)
        assert shape == (4, 4, 4)
        out = layer.forward(rng.standard_normal((2, 6, 6, 2)))
        assert out.shape == (2, 4, 4, 4)

    def test_forward_shape_same(self, rng):
        layer = Conv2D(3, 3, padding="same")
        assert layer.build((5, 5, 1), rng) == (5, 5, 3)

    def test_matches_direct_convolution(self, rng):
        """im2col path equals a naive quadruple-loop convolution."""
        layer = Conv2D(2, 3)
        layer.build((5, 5, 2), rng)
        x = rng.standard_normal((1, 5, 5, 2))
        out = layer.forward(x)
        W, b = layer.params["W"], layer.params["b"]
        naive = np.zeros((1, 3, 3, 2))
        for i in range(3):
            for j in range(3):
                patch = x[0, i : i + 3, j : j + 3, :]
                for f in range(2):
                    naive[0, i, j, f] = np.sum(patch * W[:, :, :, f]) + b[f]
        np.testing.assert_allclose(out, naive, atol=1e-12)

    def test_gradients_valid(self, rng):
        layer = Conv2D(2, 3)
        layer.build((5, 5, 2), rng)
        x = rng.standard_normal((2, 5, 5, 2))
        check_input_gradient(layer, x, atol=1e-5)
        check_param_gradients(layer, x, atol=1e-5)

    def test_gradients_same_padding(self, rng):
        layer = Conv2D(2, 3, padding="same")
        layer.build((4, 4, 1), rng)
        x = rng.standard_normal((1, 4, 4, 1))
        check_input_gradient(layer, x, atol=1e-5)
        check_param_gradients(layer, x, atol=1e-5)

    def test_gradients_strided(self, rng):
        layer = Conv2D(3, 2, stride=2)
        layer.build((6, 6, 1), rng)
        x = rng.standard_normal((1, 6, 6, 1))
        check_input_gradient(layer, x, atol=1e-5)
        check_param_gradients(layer, x, atol=1e-5)

    def test_same_padding_requires_stride1(self, rng):
        layer = Conv2D(2, 3, stride=2, padding="same")
        with pytest.raises(ValueError, match="stride 1"):
            layer.build((6, 6, 1), rng)

    def test_invalid_padding(self):
        with pytest.raises(ValueError, match="padding"):
            Conv2D(2, 3, padding="full")

    @pytest.mark.parametrize("k", [2, 4])
    def test_same_padding_rejects_an_even_kernel(self, k):
        # (k - 1) // 2 rows of padding a side cannot keep an even kernel's
        # size: k = 2 would map (6, 6, 1) to (5, 5, 4).
        with pytest.raises(ValueError, match=f"padding='same'.*kernel_size={k}"):
            Conv2D(4, k, padding="same")


class TestMaxPool2D:
    def test_forward_shape(self, rng):
        layer = MaxPool2D(2)
        assert layer.build((6, 6, 3), rng) == (3, 3, 3)

    def test_gradient(self, rng):
        layer = MaxPool2D(2)
        layer.build((4, 4, 2), rng)
        # distinct values avoid argmax ties that break numeric gradients
        x = rng.permutation(np.arange(32, dtype=np.float64)).reshape(1, 4, 4, 2)
        check_input_gradient(layer, x)

    def test_custom_stride(self, rng):
        layer = MaxPool2D(3, stride=1)
        assert layer.build((5, 5, 1), rng) == (3, 3, 1)

    @pytest.mark.parametrize("stride", [0, -1])
    def test_non_positive_stride_rejected(self, stride):
        # 0 would divide by zero in build, -1 build a negative shape.
        with pytest.raises(ValueError, match="stride must be positive"):
            MaxPool2D(2, stride=stride)

    def test_build_rejects_flat_input(self, rng):
        # A flat shape used to fail unpacking it into h, w, c.
        with pytest.raises(ValueError, match=r"MaxPool2D expects \(h, w, c\).*\(8,\)"):
            MaxPool2D(2).build((8,), rng)


class TestFlatten:
    def test_round_trip(self, rng):
        layer = Flatten()
        assert layer.build((3, 4, 2), rng) == (24,)
        x = rng.standard_normal((5, 3, 4, 2))
        out = layer.forward(x, training=True)
        assert out.shape == (5, 24)
        back = layer.backward(out)
        np.testing.assert_array_equal(back, x)


class TestDropout:
    def test_inference_is_identity(self, rng):
        layer = Dropout(0.5)
        layer.build((10,), rng)
        x = rng.standard_normal((4, 10))
        np.testing.assert_array_equal(layer.forward(x, training=False), x)

    def test_training_masks_and_scales(self, rng):
        layer = Dropout(0.5)
        layer.build((1000,), rng)
        x = np.ones((1, 1000))
        out = layer.forward(x, training=True)
        kept = out != 0
        # inverted dropout: survivors are scaled by 1/keep
        np.testing.assert_allclose(out[kept], 2.0)
        assert 0.35 < kept.mean() < 0.65

    def test_mean_preserved(self, rng):
        layer = Dropout(0.3)
        layer.build((20000,), rng)
        x = np.ones((1, 20000))
        out = layer.forward(x, training=True)
        np.testing.assert_allclose(out.mean(), 1.0, atol=0.05)

    def test_backward_uses_same_mask(self, rng):
        layer = Dropout(0.5)
        layer.build((50,), rng)
        x = np.ones((2, 50))
        out = layer.forward(x, training=True)
        grad = layer.backward(np.ones_like(out))
        np.testing.assert_array_equal(grad, out)

    def test_zero_rate_passthrough(self, rng):
        layer = Dropout(0.0)
        layer.build((5,), rng)
        x = rng.standard_normal((2, 5))
        np.testing.assert_array_equal(layer.forward(x, training=True), x)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
        with pytest.raises(ValueError):
            Dropout(-0.1)

    def test_deterministic_given_seed(self):
        rng1 = np.random.default_rng(7)
        rng2 = np.random.default_rng(7)
        a, b = Dropout(0.5), Dropout(0.5)
        a.build((20,), rng1)
        b.build((20,), rng2)
        x = np.ones((1, 20))
        np.testing.assert_array_equal(
            a.forward(x, training=True), b.forward(x, training=True)
        )
