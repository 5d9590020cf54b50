"""Tests for losses and penalties, including gradient checks."""

import hashlib

import numpy as np
import pytest

from repro.nn.losses import proximal_penalty, softmax_cross_entropy
from tests.conftest import numeric_gradient


class TestSoftmaxCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        logits = np.array([[100.0, 0.0, 0.0], [0.0, 100.0, 0.0]])
        loss, _ = softmax_cross_entropy(logits, np.array([0, 1]))
        assert loss < 1e-6

    def test_uniform_prediction_loss(self):
        k = 4
        logits = np.zeros((3, k))
        loss, _ = softmax_cross_entropy(logits, np.array([0, 1, 2]))
        np.testing.assert_allclose(loss, np.log(k), rtol=1e-10)

    def test_gradient_matches_numeric(self, rng):
        logits = rng.standard_normal((5, 4))
        labels = rng.integers(0, 4, size=5)

        def loss():
            return softmax_cross_entropy(logits, labels)[0]

        _, analytic = softmax_cross_entropy(logits, labels)
        num = numeric_gradient(loss, logits)
        np.testing.assert_allclose(analytic, num, atol=1e-7)

    def test_gradient_rows_sum_to_zero(self, rng):
        logits = rng.standard_normal((6, 3))
        labels = rng.integers(0, 3, size=6)
        _, grad = softmax_cross_entropy(logits, labels)
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_empty_batch_raises(self):
        with pytest.raises(ValueError, match="empty"):
            softmax_cross_entropy(np.zeros((0, 3)), np.zeros(0, dtype=int))

    def test_labels_that_do_not_match_the_batch_raise(self):
        # One label for four rows used to broadcast: log 3, no error.
        with pytest.raises(ValueError, match=r"\(1,\).*\(4, 3\)"):
            softmax_cross_entropy(np.zeros((4, 3)), [1])

    def test_wrong_ndim_raises(self):
        with pytest.raises(ValueError, match="2-D"):
            softmax_cross_entropy(np.zeros(3), np.zeros(1, dtype=int))

    def test_loss_is_finite_for_extreme_logits(self):
        logits = np.array([[1e4, -1e4, 0.0]])
        loss, grad = softmax_cross_entropy(logits, np.array([1]))
        assert np.isfinite(loss)
        assert np.isfinite(grad).all()


def pin_cases():
    """``name -> (logits, labels)`` on one seeded stream: the batch sizes
    a 10-sample-batch epoch produces, one class repeated across the whole
    batch, and logits at +-700 (``exp`` underflows to 0 on the far side)."""
    g = np.random.default_rng(2021)
    cases = {}
    for n in (1, 7, 10):
        cases[f"n{n}"] = (
            3.0 * g.standard_normal((n, 10)),
            g.integers(0, 10, size=n),
        )
    cases["repeated_labels"] = (g.standard_normal((10, 10)), np.full(10, 4))
    extreme = g.standard_normal((7, 10))
    extreme[:, 2] = 700.0
    extreme[:, 5] = -700.0
    extreme[3] = -700.0
    cases["logits_pm700"] = (extreme, g.integers(0, 10, size=7))
    return cases


def grad_digest(grad: np.ndarray) -> str:
    assert grad.dtype == np.float64
    return hashlib.sha256(grad.tobytes()).hexdigest()[:32]


class TestLossPins:
    """``float.hex`` loss and gradient-byte literals recorded at
    ``fef89f1``, before the softmax helper moved onto ndarray methods and
    in-place updates.  The rewrite applies the same operations to the same
    operands in the same order, so these do not move
    (``docs/numerics.md``); a failure means the serial stream did."""

    SERIAL = {
        "n1": ("0x1.ef664a8ad75f8p-4", "f37db8ee8fee020dd7db155a18b8c1ed"),
        "n7": ("0x1.43f970447fc49p+2", "e232f6ebc527bfd2a2e549b499f644b9"),
        "n10": ("0x1.8a35069d7adddp+2", "a991bc18f75f9597ea9df96ebf266a7c"),
        "repeated_labels": (
            "0x1.59d745652c3b6p+1",
            "2e080f3c1521c51c6d7d7ce42cf2262f",
        ),
        "logits_pm700": (
            "0x1.5e05656d56bf6p+9",
            "38acaa7f20016b94140b5c9fbc5088d1",
        ),
    }

    @pytest.mark.parametrize("name", sorted(pin_cases()))
    def test_serial(self, name):
        logits, labels = pin_cases()[name]
        before = logits.copy()
        loss, grad = softmax_cross_entropy(logits, labels)
        assert isinstance(loss, float)
        assert (loss.hex(), grad_digest(grad)) == self.SERIAL[name]
        np.testing.assert_array_equal(logits, before)  # caller's buffer untouched


class TestProximalPenalty:
    def test_zero_at_anchor(self, rng):
        w = {"W": rng.standard_normal((3, 3))}
        loss, grads = proximal_penalty(w, {"W": w["W"].copy()}, mu=1.0)
        assert loss == 0.0
        np.testing.assert_array_equal(grads["W"], 0.0)

    def test_value_and_grad(self):
        params = {"W": np.array([2.0])}
        anchor = {"W": np.array([0.0])}
        loss, grads = proximal_penalty(params, anchor, mu=0.5)
        np.testing.assert_allclose(loss, 0.5 * 0.5 * 4.0)
        np.testing.assert_allclose(grads["W"], [1.0])

    def test_key_mismatch_raises(self):
        with pytest.raises(KeyError, match="mismatch"):
            proximal_penalty({"W": np.zeros(1)}, {"V": np.zeros(1)}, mu=0.1)

    def test_negative_mu_raises(self):
        with pytest.raises(ValueError):
            proximal_penalty({}, {}, mu=-0.1)

    def test_gradient_matches_numeric(self, rng):
        w = rng.standard_normal(4)
        anchor = {"W": rng.standard_normal(4)}
        params = {"W": w}

        def loss():
            return proximal_penalty(params, anchor, mu=0.7)[0]

        _, grads = proximal_penalty(params, anchor, mu=0.7)
        num = numeric_gradient(loss, w)
        np.testing.assert_allclose(grads["W"], num, atol=1e-7)
