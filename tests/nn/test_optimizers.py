"""Tests for SGD and RMSprop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def make_optimizer(kind):
    if kind == "sgd":
        return SGD(lr=0.05)
    if kind == "momentum":
        return SGD(lr=0.05, momentum=0.9)
    return RMSprop(lr=0.01, decay=1.0)


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(min_value=2, max_value=5),
    steps=st.integers(min_value=1, max_value=4),
    opt_kind=st.sampled_from(["sgd", "momentum", "rmsprop"]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_one_update_over_an_array_equals_private_updates_of_its_rows(
    rows, steps, opt_kind, seed
):
    # Update rules are elementwise, so row ``r`` of an array updated
    # under one key evolves *bit-identically* to the same row updated
    # alone by an optimizer of its own -- what lets a model update its
    # whole arena in one pass.
    rng = np.random.default_rng(seed)
    whole = rng.standard_normal((rows, 3, 4))
    parts = [whole[r].copy() for r in range(rows)]
    shared = make_optimizer(opt_kind)
    privates = [make_optimizer(opt_kind) for _ in range(rows)]
    for _ in range(steps):
        grads = rng.standard_normal((rows, 3, 4))
        shared.update(("w",), whole, grads)
        for r in range(rows):
            privates[r].update(("w",), parts[r], grads[r])
    for r in range(rows):
        np.testing.assert_array_equal(whole[r], parts[r])


class TestOptimizerRewrites:
    """The in-place and blocked update rules are bit-identical to their
    textbook forms."""

    @staticmethod
    def reference_rmsprop(param, grad, s, lr, rho, eps):
        s[:] = rho * s + (1.0 - rho) * grad * grad
        param -= lr * grad / (np.sqrt(s) + eps)

    def test_blocked_rmsprop_matches_reference_across_block_boundary(self, rng):
        # Larger than RMSprop.BLOCK so the blocked loop takes multiple
        # iterations, including a ragged tail.
        size = 2 * RMSprop.BLOCK + 17
        param = rng.standard_normal(size)
        ref_param = param.copy()
        ref_s = np.zeros(size)
        opt = RMSprop(lr=0.01, decay=1.0)
        for _ in range(3):
            grad = rng.standard_normal(size)
            opt.update(("w",), param, grad)
            self.reference_rmsprop(ref_param, grad, ref_s, 0.01, opt.rho, opt.eps)
        np.testing.assert_array_equal(param, ref_param)
        np.testing.assert_array_equal(opt._sq_avg[("w",)], ref_s)

    def test_rmsprop_non_contiguous_fallback_writes_back(self, rng):
        base = rng.standard_normal(64)
        param = base[::2]  # non-contiguous view
        assert not param.flags.c_contiguous
        ref_param = param.copy()
        ref_s = np.zeros(param.size)
        grad = rng.standard_normal(param.size)
        opt = RMSprop(lr=0.01, decay=1.0)
        opt.update(("w",), param, grad)
        self.reference_rmsprop(ref_param, grad, ref_s, 0.01, opt.rho, opt.eps)
        np.testing.assert_array_equal(param, ref_param)
        np.testing.assert_array_equal(base[::2], param)  # view was written back

    def test_sgd_momentum_matches_textbook_form(self, rng):
        param = rng.standard_normal((5, 7))
        ref_param = param.copy()
        ref_v = np.zeros_like(param)
        opt = SGD(lr=0.05, momentum=0.9)
        for _ in range(4):
            grad = rng.standard_normal((5, 7))
            opt.update(("w",), param, grad)
            ref_v[:] = 0.9 * ref_v - 0.05 * grad
            ref_param += ref_v
        np.testing.assert_array_equal(param, ref_param)

    def test_scratch_reallocates_on_shape_change(self, rng):
        # The same key may see differently shaped params; the scratch
        # buffer must follow.
        opt = SGD(lr=0.1)
        a = rng.standard_normal((2, 3))
        opt.update(("w",), a, np.ones((2, 3)))
        b = rng.standard_normal((4, 3))
        before = b.copy()
        opt.update(("w",), b, np.ones((4, 3)))
        np.testing.assert_allclose(b, before - 0.1)
