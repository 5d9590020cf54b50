"""Tests for the cohort-stacked tensor program (:class:`StackedSequential`).

The stacked program is the engine of the ``batched`` executor, so the
load-bearing guarantees live here: every stacked forward/backward/train
result must match ``C`` independent serial passes to floating-point
rounding (the batched numerics stream is tolerance-gated, not
bit-gated -- see ``docs/numerics.md``), and byte for byte for the
parameter-free layers; truncated backprop and the blocked RMSprop
update must be *bit-identical* to their straightforward forms;
optimizer state along the leading client axis must behave as ``C``
fully independent optimizers (property-tested with hypothesis); and
the stream itself is pinned as sha256 literals.

Models here are dropout-free unless a test is specifically about
Dropout: stacked mask streams are stacked-stream-specific, so only
deterministic layers admit a serial reference.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    StackedSequential,
    build_cifar10_cnn,
    build_femnist_cnn,
    build_mlp,
    build_mnist_cnn,
)
from repro.nn.layers import Conv2D, Dense, Dropout, Flatten, MaxPool2D, ReLU
from repro.nn.losses import softmax_cross_entropy
from repro.nn.model import Sequential
from repro.nn.optimizers import RMSprop, SGD
from tests.conftest import assert_bits_equal

# Stacked matmul may reassociate float64 sums relative to per-client
# GEMMs; this is the documented tolerance of the batched stream.  (On
# many BLAS builds the results are in fact bit-identical.)
STACK_RTOL = 1e-9
STACK_ATOL = 1e-12

INPUT_SHAPE = (4, 4, 1)
NUM_CLASSES = 3


def make_mlp(seed=0):
    return build_mlp(INPUT_SHAPE, NUM_CLASSES, hidden=(8,), rng=seed)


def make_cnn(seed=0):
    """Tiny dropout-free CNN exercising Conv2D/MaxPool2D on a client axis."""
    return Sequential(
        [Conv2D(4, 3), ReLU(), MaxPool2D(2), Flatten(), Dense(NUM_CLASSES)],
        input_shape=(6, 6, 1),
        rng=seed,
    )


def make_batch(rng, c, n, input_shape):
    x = rng.standard_normal((c, n) + input_shape)
    y = rng.integers(0, NUM_CLASSES, size=(c, n))
    return x, y


def per_client_weights(template, c, rng):
    """``(C, P)`` weights: the template's, independently perturbed."""
    base = template.get_flat_weights()
    return np.stack(
        [base + 0.01 * rng.standard_normal(base.size) for _ in range(c)]
    )


def assert_stack_close(actual, desired):
    np.testing.assert_allclose(actual, desired, rtol=STACK_RTOL, atol=STACK_ATOL)


# ----------------------------------------------------------------------
# forward / backward equivalence
# ----------------------------------------------------------------------
class TestForwardBackwardEquivalence:
    @pytest.mark.parametrize("make_model", [make_mlp, make_cnn])
    def test_forward_matches_per_client_serial(self, rng, make_model):
        template = make_model(seed=3)
        c = 4
        stack = StackedSequential(template, c)
        weights = per_client_weights(template, c, rng)
        stack.set_flat_weights(weights)
        x, _ = make_batch(rng, c, 6, template.input_shape)
        stacked_logits = stack.forward(x, training=False)
        for ci in range(c):
            template.set_flat_weights(weights[ci])
            assert_stack_close(stacked_logits[ci], template.forward(x[ci]))

    @pytest.mark.parametrize("make_model", [make_mlp, make_cnn])
    def test_backward_grads_match_per_client_serial(self, rng, make_model):
        template = make_model(seed=5)
        c = 3
        stack = StackedSequential(template, c)
        weights = per_client_weights(template, c, rng)
        stack.set_flat_weights(weights)
        x, y = make_batch(rng, c, 5, template.input_shape)

        logits = stack.forward(x, training=True)
        stacked_losses, grad = softmax_cross_entropy(logits, y)
        stacked_dx = stack.backward(grad)

        for ci in range(c):
            template.set_flat_weights(weights[ci])
            serial_logits = template.forward(x[ci], training=True)
            loss, sgrad = softmax_cross_entropy(serial_logits, y[ci])
            serial_dx = template.backward(sgrad)
            assert_stack_close(stacked_losses[ci], loss)
            assert_stack_close(stacked_dx[ci], serial_dx)
            for sl, tl in zip(stack.layers, template.layers):
                for name in tl.grads:
                    assert_stack_close(sl.grads[name][ci], tl.grads[name])

    def test_forward_rejects_wrong_shapes(self, rng):
        template = make_mlp()
        stack = StackedSequential(template, 3)
        with pytest.raises(ValueError, match="does not match"):
            stack.forward(rng.standard_normal((2, 5) + INPUT_SHAPE))
        with pytest.raises(ValueError, match="does not match"):
            stack.forward(rng.standard_normal((3, 5, 2, 2, 1)))


# Few distinct values, both zeros among them: most pool windows hold a tie.
TIE_VALUES = np.array([-1.0, -0.0, 0.0, 0.5, 2.0])


class TestParameterFreeFold:
    @settings(max_examples=60, deadline=None)
    @given(
        c=st.integers(1, 4),
        n=st.integers(1, 4),
        h=st.integers(1, 4),
        w=st.integers(1, 4),
        ch=st.integers(1, 4),
        data=st.data(),
    )
    def test_client_axis_equals_per_client_calls(self, c, n, h, w, ch, data):
        # One (C, n, ...) call of a parameter-free layer is C per-client
        # calls, byte for byte, forward (train and eval) and backward;
        # MaxPool2D includes overlapping windows (stride < k).
        k = data.draw(st.integers(1, min(h, w)), label="k")
        stride = data.draw(st.integers(1, 4), label="stride")
        g = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        x = g.choice(TIE_VALUES, size=(c, n, h, w, ch))
        for layer in (ReLU(), MaxPool2D(k, stride), Flatten(), Dropout(0.0)):
            layer.build((h, w, ch), g)
            evaluated = layer.forward(x, training=False)
            out = layer.forward(x, training=True)
            grad = g.choice(TIE_VALUES, size=out.shape)
            dx = layer.backward(grad)
            for ci in range(c):
                assert_bits_equal(layer.forward(x[ci], training=False), evaluated[ci])
                assert_bits_equal(layer.forward(x[ci], training=True), out[ci])
                assert_bits_equal(layer.backward(grad[ci]), dx[ci])


# ----------------------------------------------------------------------
# training equivalence
# ----------------------------------------------------------------------
def make_optimizer(kind):
    if kind == "sgd":
        return SGD(lr=0.05)
    if kind == "momentum":
        return SGD(lr=0.05, momentum=0.9)
    return RMSprop(lr=0.01, decay=1.0)


class TestTrainingEquivalence:
    @pytest.mark.parametrize("opt_kind", ["sgd", "momentum", "rmsprop"])
    def test_train_step_matches_per_client_serial(self, rng, opt_kind):
        template = make_mlp(seed=7)
        c = 4
        stack = StackedSequential(template, c)
        weights = per_client_weights(template, c, rng)
        stack.set_flat_weights(weights)
        x, y = make_batch(rng, c, 8, template.input_shape)

        stacked_losses = stack.train_step(x, y, make_optimizer(opt_kind))
        trained = stack.get_flat_weights()

        for ci in range(c):
            template.set_flat_weights(weights[ci])
            loss = template.train_step(x[ci], y[ci], make_optimizer(opt_kind))
            assert_stack_close(stacked_losses[ci], loss)
            assert_stack_close(trained[ci], template.get_flat_weights())

    def test_fit_epoch_matches_per_client_serial(self, rng):
        template = make_mlp(seed=11)
        c, n, batch_size = 3, 10, 4
        stack = StackedSequential(template, c)
        broadcast = template.get_flat_weights()
        stack.set_flat_weights(broadcast)
        x, y = make_batch(rng, c, n, template.input_shape)
        orders = np.stack([rng.permutation(n) for _ in range(c)])

        stacked_losses = stack.fit_epoch(
            x, y, RMSprop(lr=0.01, decay=1.0), batch_size=batch_size, orders=orders
        )
        trained = stack.get_flat_weights()

        for ci in range(c):
            template.set_flat_weights(broadcast)
            opt = RMSprop(lr=0.01, decay=1.0)
            losses = []
            xo, yo = x[ci][orders[ci]], y[ci][orders[ci]]
            for start in range(0, n, batch_size):
                losses.append(
                    template.train_step(
                        xo[start : start + batch_size],
                        yo[start : start + batch_size],
                        opt,
                    )
                )
            assert_stack_close(stacked_losses[ci], np.mean(losses))
            assert_stack_close(trained[ci], template.get_flat_weights())

    def test_fedprox_matches_per_client_serial(self, rng):
        template = make_mlp(seed=13)
        c, mu = 3, 0.1
        anchor_flat = template.get_flat_weights()
        anchor = template.get_weights()
        stack = StackedSequential(template, c)
        weights = per_client_weights(template, c, rng)
        stack.set_flat_weights(weights)
        x, y = make_batch(rng, c, 6, template.input_shape)

        stacked_losses = stack.train_step(
            x, y, SGD(lr=0.05), prox_anchor=anchor, prox_mu=mu
        )
        trained = stack.get_flat_weights()

        for ci in range(c):
            template.set_flat_weights(weights[ci])
            loss = template.train_step(
                x[ci], y[ci], SGD(lr=0.05), prox_anchor=anchor, prox_mu=mu
            )
            assert_stack_close(stacked_losses[ci], loss)
            assert_stack_close(trained[ci], template.get_flat_weights())
        # The anchor itself must be untouched by training.
        np.testing.assert_array_equal(anchor_flat, template_flat_anchor(anchor))

    def test_prox_requires_anchor(self, rng):
        stack = StackedSequential(make_mlp(), 2)
        x, y = make_batch(rng, 2, 4, INPUT_SHAPE)
        with pytest.raises(ValueError, match="prox_anchor"):
            stack.train_step(x, y, SGD(lr=0.05), prox_mu=0.1)

    def test_truncated_backprop_is_bit_identical_to_full(self, rng):
        # train_step stops backprop at the bottom-most parameterised
        # layer; the skipped input-gradient GEMM must not change any
        # parameter gradient, so weights match the full backward bit
        # for bit.
        template = make_cnn(seed=17)
        c = 3
        weights = per_client_weights(template, c, rng)
        x, y = make_batch(rng, c, 5, template.input_shape)

        fast = StackedSequential(template, c)
        fast.set_flat_weights(weights)
        fast.train_step(x, y, SGD(lr=0.05))

        full = StackedSequential(template, c)
        full.set_flat_weights(weights)
        logits = full.forward(x, training=True)
        _, grad = softmax_cross_entropy(logits, y)
        full.backward(grad)
        opt = SGD(lr=0.05)
        for li, layer in enumerate(full.layers):
            for name, param in layer.params.items():
                opt.update((li, name), param, layer.grads[name])

        np.testing.assert_array_equal(
            fast.get_flat_weights(), full.get_flat_weights()
        )

    def test_fit_epoch_validates_inputs(self, rng):
        stack = StackedSequential(make_mlp(), 2)
        stack.set_flat_weights(make_mlp().get_flat_weights())
        x, y = make_batch(rng, 2, 6, INPUT_SHAPE)
        good_orders = np.stack([np.arange(6)] * 2)
        with pytest.raises(ValueError, match="batch_size"):
            stack.fit_epoch(x, y, SGD(lr=0.1), batch_size=0, orders=good_orders)
        with pytest.raises(ValueError, match="orders"):
            stack.fit_epoch(
                x, y, SGD(lr=0.1), batch_size=2, orders=np.arange(6)[None]
            )
        with pytest.raises(ValueError, match="empty"):
            stack.fit_epoch(
                x[:, :0],
                y[:, :0],
                SGD(lr=0.1),
                batch_size=2,
                orders=good_orders[:, :0],
            )


def template_flat_anchor(anchor):
    return np.concatenate([a.ravel() for a in anchor])


# ----------------------------------------------------------------------
# weight interface / construction
# ----------------------------------------------------------------------
class TestWeightInterface:
    def test_broadcast_then_roundtrip(self):
        template = make_mlp(seed=19)
        stack = StackedSequential(template, 4)
        flat = template.get_flat_weights()
        stack.set_flat_weights(flat)  # (P,) broadcast
        out = stack.get_flat_weights()
        assert out.shape == (4, template.num_params())
        for ci in range(4):
            np.testing.assert_array_equal(out[ci], flat)

    def test_per_client_roundtrip(self, rng):
        template = make_mlp(seed=19)
        stack = StackedSequential(template, 3)
        weights = per_client_weights(template, 3, rng)
        stack.set_flat_weights(weights)
        np.testing.assert_array_equal(stack.get_flat_weights(), weights)

    def test_broadcast_slices_are_independent_copies(self):
        # A broadcast load must not alias slices: updating one client's
        # parameters may never leak into another's.
        template = make_mlp()
        stack = StackedSequential(template, 3)
        stack.set_flat_weights(template.get_flat_weights())
        layer = next(sl for sl in stack.layers if sl.params)
        layer.params["W"][0] += 1.0
        assert not np.array_equal(layer.params["W"][0], layer.params["W"][1])

    def test_shape_validation(self):
        template = make_mlp()
        stack = StackedSequential(template, 3)
        p = template.num_params()
        with pytest.raises(ValueError, match="expected flat weights"):
            stack.set_flat_weights(np.zeros((2, p)))
        with pytest.raises(ValueError, match="expected flat weights"):
            stack.set_flat_weights(np.zeros(p + 1))

    def test_num_clients_must_be_positive(self):
        with pytest.raises(ValueError, match="num_clients"):
            StackedSequential(make_mlp(), 0)


# ----------------------------------------------------------------------
# per-client independence of optimizer state (property-based)
# ----------------------------------------------------------------------
class TestOptimizerIndependence:
    @settings(max_examples=25, deadline=None)
    @given(
        c=st.integers(min_value=2, max_value=5),
        steps=st.integers(min_value=1, max_value=4),
        opt_kind=st.sampled_from(["sgd", "momentum", "rmsprop"]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_stacked_state_equals_private_per_client_optimizers(
        self, c, steps, opt_kind, seed
    ):
        # Update rules are elementwise, so slice ``ci`` of a stacked
        # (C,)+shape state array must evolve *bit-identically* to a
        # private optimizer owned by client ``ci`` alone.
        rng = np.random.default_rng(seed)
        stacked_param = rng.standard_normal((c, 3, 4))
        private_params = [stacked_param[ci].copy() for ci in range(c)]
        shared = make_optimizer(opt_kind)
        privates = [make_optimizer(opt_kind) for _ in range(c)]
        for _ in range(steps):
            grads = rng.standard_normal((c, 3, 4))
            shared.update(("w",), stacked_param, grads)
            for ci in range(c):
                privates[ci].update(("w",), private_params[ci], grads[ci])
        for ci in range(c):
            np.testing.assert_array_equal(stacked_param[ci], private_params[ci])

    def test_perturbing_one_client_leaves_others_bit_identical(self, rng):
        # End-to-end independence: change client 0's data and every
        # other client's trained weights must not move by a single bit.
        template = make_mlp(seed=23)
        c = 4
        weights = per_client_weights(template, c, rng)
        x, y = make_batch(rng, c, 6, template.input_shape)

        ref = StackedSequential(template, c)
        ref.set_flat_weights(weights)
        ref.train_step(x, y, RMSprop(lr=0.01, decay=1.0))

        x2 = x.copy()
        x2[0] += 1.0
        alt = StackedSequential(template, c)
        alt.set_flat_weights(weights)
        alt.train_step(x2, y, RMSprop(lr=0.01, decay=1.0))

        ref_w, alt_w = ref.get_flat_weights(), alt.get_flat_weights()
        assert not np.array_equal(ref_w[0], alt_w[0])
        np.testing.assert_array_equal(ref_w[1:], alt_w[1:])


# ----------------------------------------------------------------------
# in-place / blocked optimizer rewrites stay bit-identical
# ----------------------------------------------------------------------
class TestOptimizerRewrites:
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
        # The same key may see differently shaped params across stack
        # sizes; the scratch buffer must follow.
        opt = SGD(lr=0.1)
        a = rng.standard_normal((2, 3))
        opt.update(("w",), a, np.ones((2, 3)))
        b = rng.standard_normal((4, 3))
        before = b.copy()
        opt.update(("w",), b, np.ones((4, 3)))
        np.testing.assert_allclose(b, before - 0.1)


# ----------------------------------------------------------------------
# Dropout: the one stacked-stream-specific layer
# ----------------------------------------------------------------------
class TestStackedDropout:
    def make_dropout_mlp(self, seed=0):
        return Sequential(
            [Dense(8), ReLU(), Dropout(0.5), Dense(NUM_CLASSES)],
            input_shape=(4,),
            rng=seed,
        )

    def test_inference_matches_serial_exactly(self, rng):
        # Dropout is identity at inference, so eval has no mask stream
        # and must match the per-client serial forward.
        template = self.make_dropout_mlp(seed=29)
        c = 3
        stack = StackedSequential(template, c)
        weights = per_client_weights(template, c, rng)
        stack.set_flat_weights(weights)
        x = rng.standard_normal((c, 6, 4))
        out = stack.forward(x, training=False)
        for ci in range(c):
            template.set_flat_weights(weights[ci])
            assert_stack_close(out[ci], template.forward(x[ci]))

    def test_training_draws_fresh_masks_and_stays_finite(self, rng):
        stack = StackedSequential(self.make_dropout_mlp(seed=29), 2, rng=1)
        stack.set_flat_weights(self.make_dropout_mlp(seed=29).get_flat_weights())
        x = rng.standard_normal((2, 16, 4))
        y = rng.integers(0, NUM_CLASSES, size=(2, 16))
        a = stack.forward(x, training=True)
        b = stack.forward(x, training=True)
        assert not np.array_equal(a, b)  # fresh mask per pass
        losses = stack.train_step(x, y, SGD(lr=0.05))
        assert np.all(np.isfinite(losses))
        assert np.all(np.isfinite(stack.get_flat_weights()))

    def test_mask_stream_is_private_to_the_stack(self, rng):
        # Construction must not consume or share the template's RNG:
        # two stacks built from one template draw identical mask
        # streams only if seeded identically.
        template = self.make_dropout_mlp(seed=29)
        x = rng.standard_normal((2, 8, 4))
        s1 = StackedSequential(template, 2, rng=7)
        s2 = StackedSequential(template, 2, rng=7)
        np.testing.assert_array_equal(
            s1.forward(x, training=True), s2.forward(x, training=True)
        )


# ----------------------------------------------------------------------
# literal pins of the stacked stream
# ----------------------------------------------------------------------
def sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


#: name -> (builder, input shape, classes, seed): the three paper CNNs at
#: small inputs; ``cifar10_cnn`` and ``femnist_cnn`` add ``"same"`` padding.
STACK_PIN_CASES = {
    "mnist_cnn": (build_mnist_cnn, (12, 12, 1), 10, 41),
    "cifar10_cnn": (build_cifar10_cnn, (12, 12, 3), 10, 42),
    "femnist_cnn": (build_femnist_cnn, (8, 8, 1), 62, 43),
}


def run_stacked_pin(name):
    """Eval logits, 3 RMSprop steps (Dropout active) and one SGD epoch
    of a 3-client stack with perturbed per-client weights."""
    builder, shape, classes, seed = STACK_PIN_CASES[name]
    g = np.random.default_rng(seed)
    template = builder(input_shape=shape, num_classes=classes, rng=seed)
    c, n = 3, 6
    base = template.get_flat_weights()
    weights = base + 0.05 * g.standard_normal((c, base.size))
    x = g.standard_normal((c, n) + shape)
    y = g.integers(0, classes, size=(c, n))
    stack = StackedSequential(template, c, rng=seed)
    stack.set_flat_weights(weights)
    out = {"eval": sha(stack.forward(x, training=False))}
    opt = RMSprop(lr=0.01)
    losses = [stack.train_step(x, y, opt) for _ in range(3)]
    out["rmsprop"] = sha(stack.get_flat_weights(), *losses)
    stack.set_flat_weights(weights)
    orders = np.stack([g.permutation(n) for _ in range(c)])
    losses = stack.fit_epoch(x, y, SGD(lr=0.05), batch_size=4, orders=orders)
    out["sgd_epoch"] = sha(stack.get_flat_weights(), losses)
    return out


def run_stacked_fedprox_pin():
    g = np.random.default_rng(44)
    template = make_mlp(seed=13)
    anchor = template.get_weights()
    stack = StackedSequential(template, 3)
    stack.set_flat_weights(per_client_weights(template, 3, g))
    x, y = make_batch(g, 3, 6, template.input_shape)
    losses = stack.train_step(x, y, SGD(lr=0.05), prox_anchor=anchor, prox_mu=0.1)
    return sha(stack.get_flat_weights(), losses)


class TestStackedPins:
    """sha256 literals of the stacked stream, recorded at ``4dc8b9d`` --
    the last tree whose layers carried hand-written ``forward_stacked`` /
    ``backward_stacked`` twins.  ``STACK_RTOL`` cannot tell a rewrite that
    keeps the bits from one that moves them; these can."""

    PINNED = {
        "mnist_cnn": {
            "eval": "c3097ae5971bb843da7609cede8dd3d40c3a6d735693d516bfb2bf0675766406",
            "rmsprop": "68337aa1c82cf4ffafac9843be19b22fc7fdf660795f5f9bfeae50579112d066",
            "sgd_epoch": "1a541b19c1c0729de01dd66ffd5cf8df67c98c146def11e750e9654fc1b713b0",
        },
        "cifar10_cnn": {
            "eval": "f94fa64a820cfd2ff91ca1327b281905f3be0a4b7d164bf2376e8db112143a87",
            "rmsprop": "26fdb7177990ae86307ada7993b11bf722830c406088cf1160adf397950d5887",
            "sgd_epoch": "f0abe6f8a21fa16fcbb834b42d4a5c5791de1bebc6b0e45aaee1a9d4f1f0541d",
        },
        "femnist_cnn": {
            "eval": "558e56d20c6b95de524b293c9094c6625135c3a1390c02e656361bd1703afab1",
            "rmsprop": "c49c4afe7a6b4cd937ae758491b7da74dc4f196a678a8118316df3a05e4a5905",
            "sgd_epoch": "37aa745406dce24e4a78e88bbea5bb2ca9f923ab112456b3f6ec1a957301e301",
        },
    }
    FEDPROX = "2479e2fbc966d1a234bdcdf8a8454a7e76718f85d0494c78bf7caed805af9ae0"

    @pytest.mark.parametrize("name", sorted(STACK_PIN_CASES))
    def test_cnn_stream_is_pinned(self, name):
        assert run_stacked_pin(name) == self.PINNED[name]

    def test_fedprox_step_is_pinned(self):
        assert run_stacked_fedprox_pin() == self.FEDPROX
