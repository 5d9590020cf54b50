"""Tests for SGD and RMSprop."""

import numpy as np
import pytest

from repro.nn.optimizers import SGD, RMSprop


def quadratic_descent(opt, steps=200, dim=4, seed=0):
    """Minimise ||w||^2 / 2; returns the final norm."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(dim)
    for _ in range(steps):
        opt.update(("w",), w, w.copy())  # grad of ||w||^2/2 is w
    return float(np.linalg.norm(w))


class TestSGD:
    def test_vanilla_step(self):
        opt = SGD(lr=0.1)
        w = np.array([1.0, -2.0])
        opt.update(("w",), w, np.array([1.0, 1.0]))
        np.testing.assert_allclose(w, [0.9, -2.1])

    def test_converges_on_quadratic(self):
        assert quadratic_descent(SGD(lr=0.1)) < 1e-6

    def test_momentum_converges(self):
        assert quadratic_descent(SGD(lr=0.05, momentum=0.9)) < 1e-4

    def test_momentum_accumulates_velocity(self):
        opt = SGD(lr=0.1, momentum=0.9)
        w = np.zeros(1)
        opt.update(("w",), w, np.ones(1))
        first = w.copy()
        opt.update(("w",), w, np.ones(1))
        # second step is larger due to velocity
        assert abs(w[0] - first[0]) > abs(first[0])

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SGD(lr=0.0)
        with pytest.raises(ValueError):
            SGD(lr=0.1, momentum=1.0)


class TestRMSprop:
    def test_converges_to_lr_scale_neighbourhood(self):
        # RMSprop's normalised steps orbit the minimum at ~lr amplitude;
        # from an O(1) start it must reach that neighbourhood.
        assert quadratic_descent(RMSprop(lr=0.05, decay=1.0), steps=400) < 0.1

    def test_first_step_magnitude(self):
        # with s = (1-rho) g^2, the first update is lr * g / (sqrt((1-rho)) |g| + eps)
        opt = RMSprop(lr=0.01, rho=0.9, decay=1.0)
        w = np.zeros(1)
        opt.update(("w",), w, np.array([2.0]))
        expected = -0.01 * 2.0 / (np.sqrt(0.1 * 4.0) + opt.eps)
        np.testing.assert_allclose(w, [expected], rtol=1e-6)

    def test_adapts_to_gradient_scale(self):
        """Per-coordinate normalisation: steps have similar magnitude."""
        opt = RMSprop(lr=0.01, decay=1.0)
        w = np.zeros(2)
        g = np.array([100.0, 0.01])
        opt.update(("w",), w, g)
        ratio = abs(w[0]) / abs(w[1])
        assert 0.5 < ratio < 2.0

    def test_state_keyed_per_param(self):
        opt = RMSprop(lr=0.01, decay=1.0)
        a, b = np.zeros(1), np.zeros(1)
        opt.update(("a",), a, np.array([10.0]))
        opt.update(("b",), b, np.array([10.0]))
        np.testing.assert_allclose(a, b)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RMSprop(rho=1.0)
        with pytest.raises(ValueError):
            RMSprop(eps=0.0)


class TestDecaySchedule:
    def test_lr_decays_multiplicatively(self):
        opt = RMSprop(lr=0.01, decay=0.995)
        assert opt.lr == 0.01
        opt.steps = 10
        np.testing.assert_allclose(opt.lr, 0.01 * 0.995**10)

    def test_decay_one_is_constant(self):
        opt = SGD(lr=0.5, decay=1.0)
        opt.steps = 5
        assert opt.lr == 0.5

    def test_invalid_decay(self):
        with pytest.raises(ValueError):
            SGD(lr=0.1, decay=0.0)
        with pytest.raises(ValueError):
            SGD(lr=0.1, decay=1.5)
