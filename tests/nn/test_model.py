"""Tests for the Sequential container and its federated weight interface."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    SGD,
    Conv2D,
    Dense,
    Flatten,
    ReLU,
    RMSprop,
    Sequential,
    build_cifar10_cnn,
    build_femnist_cnn,
    build_linear,
    build_mlp,
    build_mnist_cnn,
    softmax_cross_entropy,
)
from repro.nn import tensor_ops as T
from tests.conftest import log_softmax, make_tiny_dataset, softmax


def tiny_model(seed=0, in_dim=16, classes=3):
    return Sequential(
        [Dense(8), ReLU(), Dense(classes)], input_shape=(in_dim,), rng=seed
    )


class TestConstruction:
    def test_shapes_propagate(self):
        m = Sequential([Flatten(), Dense(5)], input_shape=(2, 3, 1), rng=0)
        assert m.output_shape == (5,)

    def test_empty_layers_raises(self):
        with pytest.raises(ValueError, match="at least one layer"):
            Sequential([], input_shape=(4,))

    def test_deterministic_init(self):
        a, b = tiny_model(seed=42), tiny_model(seed=42)
        np.testing.assert_array_equal(a.get_flat_weights(), b.get_flat_weights())

    def test_different_seeds_differ(self):
        a, b = tiny_model(seed=1), tiny_model(seed=2)
        assert not np.array_equal(a.get_flat_weights(), b.get_flat_weights())

    def test_input_shape_checked(self, rng):
        m = tiny_model()
        with pytest.raises(ValueError, match="input shape"):
            m.forward(rng.standard_normal((2, 7)))


class TestWeightInterface:
    def test_get_set_round_trip(self, rng):
        m = tiny_model()
        ws = m.get_weights()
        m2 = tiny_model(seed=99)
        m2.set_weights(ws)
        x = rng.standard_normal((4, 16))
        np.testing.assert_allclose(m.forward(x), m2.forward(x))

    def test_get_weights_returns_copies(self):
        m = tiny_model()
        ws = m.get_weights()
        ws[0][:] = 0.0
        assert not np.array_equal(m.get_weights()[0], ws[0])

    def test_flat_round_trip(self, rng):
        m = tiny_model()
        flat = m.get_flat_weights()
        assert flat.shape == (m.num_params(),)
        m2 = tiny_model(seed=7)
        m2.set_flat_weights(flat)
        np.testing.assert_allclose(m2.get_flat_weights(), flat)
        x = rng.standard_normal((3, 16))
        np.testing.assert_allclose(m.forward(x), m2.forward(x))

    def test_num_params(self):
        m = tiny_model(in_dim=16, classes=3)
        assert m.num_params() == 16 * 8 + 8 + 8 * 3 + 3

    def test_set_weights_shape_mismatch(self):
        m = tiny_model()
        ws = m.get_weights()
        ws[0] = np.zeros((2, 2))
        with pytest.raises(ValueError, match="shape mismatch"):
            m.set_weights(ws)

    def test_set_weights_count_mismatch(self):
        m = tiny_model()
        with pytest.raises(ValueError, match="expected"):
            m.set_weights(m.get_weights()[:-1])

    def test_set_flat_wrong_size(self):
        m = tiny_model()
        with pytest.raises(ValueError, match="values"):
            m.set_flat_weights(np.zeros(m.num_params() + 1))


class TestTraining:
    def test_loss_decreases(self):
        data = make_tiny_dataset(n=60, num_classes=3)
        m = build_mlp(data.x.shape[1:], 3, hidden=(16,), rng=0)
        opt = RMSprop(lr=0.01, decay=1.0)
        first = m.fit_epoch(data.x, data.y, opt, batch_size=10, rng=0)
        last = first
        for e in range(10):
            last = m.fit_epoch(data.x, data.y, opt, batch_size=10, rng=e + 1)
        assert last < first

    def test_learns_separable_task(self):
        data = make_tiny_dataset(n=90, num_classes=3, difficulty=0.1)
        m = build_mlp(data.x.shape[1:], 3, hidden=(16,), rng=0)
        opt = SGD(lr=0.5)
        for e in range(30):
            m.fit_epoch(data.x, data.y, opt, batch_size=10, rng=e)
        assert m.evaluate(data.x, data.y) > 0.9

    def test_train_step_returns_finite_loss(self, rng):
        m = tiny_model()
        x = rng.standard_normal((10, 16))
        y = rng.integers(0, 3, size=10)
        loss = m.train_step(x, y, SGD(lr=0.01))
        assert np.isfinite(loss)

    def test_prox_term_pulls_towards_anchor(self, rng):
        data = make_tiny_dataset(n=40, num_classes=3)
        m_free = build_mlp(data.x.shape[1:], 3, hidden=(8,), rng=0)
        m_prox = build_mlp(data.x.shape[1:], 3, hidden=(8,), rng=0)
        anchor_flat = m_free.get_flat_weights()
        anchor = m_prox.get_weights()
        for e in range(5):
            m_free.fit_epoch(data.x, data.y, SGD(lr=0.2), 10, rng=e)
            # keep lr * mu < 2 so the proximal quadratic is stable
            m_prox.fit_epoch(
                data.x, data.y, SGD(lr=0.2), 10, rng=e,
                prox_anchor=anchor, prox_mu=3.0,
            )
        drift_free = np.linalg.norm(m_free.get_flat_weights() - anchor_flat)
        drift_prox = np.linalg.norm(m_prox.get_flat_weights() - anchor_flat)
        assert drift_prox < drift_free

    def test_prox_without_anchor_raises(self, rng):
        m = tiny_model()
        x = rng.standard_normal((4, 16))
        y = rng.integers(0, 3, size=4)
        with pytest.raises(ValueError, match="anchor"):
            m.train_step(x, y, SGD(lr=0.1), prox_mu=0.1)

    def test_train_step_rejects_labels_that_do_not_match_the_batch(self, rng):
        # One label for six samples used to broadcast and train.
        m = tiny_model()
        before = m.get_flat_weights()
        with pytest.raises(ValueError, match=r"\(1,\).*\(6, 3\)"):
            m.train_step(rng.standard_normal((6, 16)), np.array([1]), SGD(lr=0.1))
        np.testing.assert_array_equal(m.get_flat_weights(), before)

    def test_empty_dataset_raises(self):
        m = tiny_model()
        with pytest.raises(ValueError, match="empty"):
            m.fit_epoch(np.zeros((0, 16)), np.zeros(0, dtype=int), SGD(lr=0.1), 4)

    def test_shuffle_deterministic_given_seed(self):
        data = make_tiny_dataset(n=40)
        m1 = build_mlp(data.x.shape[1:], 3, hidden=(8,), rng=0)
        m2 = build_mlp(data.x.shape[1:], 3, hidden=(8,), rng=0)
        m1.fit_epoch(data.x, data.y, SGD(lr=0.1), 8, rng=3)
        m2.fit_epoch(data.x, data.y, SGD(lr=0.1), 8, rng=3)
        np.testing.assert_array_equal(m1.get_flat_weights(), m2.get_flat_weights())


class TestEvaluate:
    def test_predict_shape(self, rng):
        m = tiny_model()
        preds = m.predict(rng.standard_normal((7, 16)))
        assert preds.shape == (7,)
        assert preds.dtype == np.int64

    def test_empty_eval_raises(self):
        m = tiny_model()
        with pytest.raises(ValueError, match="empty"):
            m.evaluate(np.zeros((0, 16)), np.zeros(0, dtype=int))

    def test_accuracy_range(self, rng):
        m = tiny_model()
        acc = m.evaluate(rng.standard_normal((20, 16)), rng.integers(0, 3, 20))
        assert 0.0 <= acc <= 1.0

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_non_positive_batch_size_raises(self, rng, batch_size):
        # -1 used to predict nothing; 0 hit range()'s zero step.
        m = tiny_model()
        x, y = rng.standard_normal((5, 16)), rng.integers(0, 3, 5)
        with pytest.raises(ValueError, match="batch_size must be positive"):
            m.predict(x, batch_size=batch_size)
        with pytest.raises(ValueError, match="batch_size must be positive"):
            m.evaluate(x, y, batch_size=batch_size)

    def test_labels_that_do_not_match_the_inputs_raise(self, rng):
        # One label for six samples used to broadcast: an accuracy, no error.
        m = tiny_model()
        with pytest.raises(ValueError, match=r"\(1,\).*\(6, 16\)"):
            m.evaluate(rng.standard_normal((6, 16)), [1])

    def test_accuracy_is_the_fraction_of_matching_predictions(self, rng):
        m = tiny_model()
        x = rng.standard_normal((30, 16))
        preds = m.predict(x)
        y = preds.copy()
        y[:10] = (y[:10] + 1) % 3  # ten of thirty wrong
        assert m.evaluate(x, y) == pytest.approx(2 / 3)

    @pytest.mark.parametrize("batch_size", [1, 7, 256])
    def test_accuracy_does_not_depend_on_the_batch_size(self, rng, batch_size):
        m = tiny_model()
        x, y = rng.standard_normal((20, 16)), rng.integers(0, 3, 20)
        assert m.evaluate(x, y, batch_size=batch_size) == m.evaluate(x, y)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_flat_weights_round_trip_property(seed):
    """set_flat_weights(get_flat_weights()) is an exact identity."""
    m = Sequential([Dense(6), ReLU(), Dense(2)], input_shape=(5,), rng=seed)
    flat = m.get_flat_weights()
    m.set_flat_weights(flat)
    np.testing.assert_array_equal(m.get_flat_weights(), flat)


# ----------------------------------------------------------------------
# the arena: one parameter vector, one gradient vector, views per layer
# ----------------------------------------------------------------------
ZOO = {
    "mnist_cnn": lambda: build_mnist_cnn(input_shape=(12, 12, 1), rng=1),
    "cifar10_cnn": lambda: build_cifar10_cnn(input_shape=(12, 12, 3), rng=1),
    "femnist_cnn": lambda: build_femnist_cnn(input_shape=(8, 8, 1), num_classes=5, rng=1),
    "mlp": lambda: build_mlp((4, 4, 1), 3, hidden=(8,), dropout=0.25, rng=1),
    "linear": lambda: build_linear((4, 4, 1), 3, rng=1),
}


def batch_for(model, rng, n=4):
    x = rng.standard_normal((n,) + model.input_shape)
    return x, rng.integers(0, model.output_shape[0], size=n)


def params_through_layers(model):
    """The flat vector as the *layers* see it (``get_weights`` order)."""
    return np.concatenate(
        [layer.params[n].ravel() for layer in model.layers for n in sorted(layer.params)]
    )


class TestArena:
    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_views_alias_the_arenas_after_a_train_step(self, name, rng):
        # A backward that re-bound ``self.grads[...]`` would leave the
        # optimizer reading the arena's stale zeros -- silently.
        m = ZOO[name]()
        m.train_step(*batch_for(m, rng), RMSprop(lr=0.01))
        assert m._gflat.any()
        for layer in m.layers:
            assert sorted(layer.grads) == sorted(layer.params)
            for n in layer.params:
                assert np.shares_memory(layer.params[n], m._flat)
                assert np.shares_memory(layer.grads[n], m._gflat)
        np.testing.assert_array_equal(params_through_layers(m), m.get_flat_weights())

    @pytest.mark.parametrize("how", ["pickle", "deepcopy"])
    @pytest.mark.parametrize("name", ["mnist_cnn", "mlp"])
    def test_copies_get_an_arena_of_their_own(self, name, how, rng):
        # pickle / deepcopy turn views into independent arrays; this is
        # how the model shell reaches process and distributed workers.
        m = ZOO[name]()
        original = m.get_flat_weights()
        if how == "pickle":
            c = pickle.loads(pickle.dumps(m))
        else:
            c = copy.deepcopy(m)
        np.testing.assert_array_equal(c.get_flat_weights(), original)
        v = rng.standard_normal(m.num_params())
        c.set_flat_weights(v)
        np.testing.assert_array_equal(params_through_layers(c), v)
        c.train_step(*batch_for(c, rng), SGD(lr=0.1))
        assert not np.array_equal(c.get_flat_weights(), v)
        np.testing.assert_array_equal(params_through_layers(c), c.get_flat_weights())
        np.testing.assert_array_equal(m.get_flat_weights(), original)

    def test_pickle_ships_each_parameter_once(self, rng):
        # The arenas and the gradient views stay home: the pickled shell
        # is the parameters plus small change, trained or not -- no byte
        # more on the ASSIGN / ASSIGN_SHARD frames that carry it.
        m = build_mlp((8, 8, 1), 3, hidden=(32,), rng=1)
        budget = m.num_params() * 8 + 4096
        assert len(pickle.dumps(m)) < budget
        m.train_step(*batch_for(m, rng, n=1), RMSprop(lr=0.01))
        assert len(pickle.dumps(m)) < budget

    def test_loading_weights_writes_through_the_views(self, rng):
        m = tiny_model()
        views = [layer.params[n] for layer in m.layers for n in sorted(layer.params)]
        flat = rng.standard_normal(m.num_params())
        m.set_flat_weights(flat)
        np.testing.assert_array_equal(params_through_layers(m), flat)
        ws = [rng.standard_normal(v.shape) for v in views]
        m.set_weights(ws)
        np.testing.assert_array_equal(
            m.get_flat_weights(), np.concatenate([w.ravel() for w in ws])
        )
        after = [layer.params[n] for layer in m.layers for n in sorted(layer.params)]
        assert all(a is b for a, b in zip(views, after))
        with pytest.raises(ValueError, match="1-D"):
            m.set_flat_weights(flat.reshape(1, -1))
        with pytest.raises(ValueError, match="values"):
            m.set_flat_weights(flat[:-1])
        with pytest.raises(ValueError, match="shape mismatch"):
            m.set_weights([w.T for w in ws])

    def test_get_flat_weights_does_not_alias_the_arena(self, rng):
        # The serial executor trains the next client in the same
        # workspace while the previous client's vector is still held.
        m = tiny_model()
        held = m.get_flat_weights()
        assert not np.shares_memory(held, m._flat)
        snapshot = held.copy()
        m.train_step(*batch_for(m, rng), SGD(lr=0.1))
        np.testing.assert_array_equal(held, snapshot)
        held[:] = 0.0
        assert m.get_flat_weights().any()

    def test_bare_layers_run_without_a_model(self, rng):
        dense = Dense(3)
        dense.build((4,), rng)
        conv = Conv2D(2, 3)
        conv.build((5, 5, 1), rng)
        for _ in range(2):  # the second backward reuses the layer's buffers
            x, g = rng.standard_normal((6, 4)), rng.standard_normal((6, 3))
            dense.forward(x, training=True)
            dx = dense.backward(g)
            np.testing.assert_array_equal(dense.grads["W"], x.T @ g)
            np.testing.assert_array_equal(dense.grads["b"], g.sum(axis=0))
            np.testing.assert_array_equal(dx, g @ dense.params["W"].T)

            x, g = rng.standard_normal((2, 5, 5, 1)), rng.standard_normal((2, 3, 3, 2))
            conv.forward(x, training=True)
            assert conv.backward(g).shape == x.shape
            cols, _ = T.im2col(x, 3, 3, 1, 0)
            np.testing.assert_array_equal(
                conv.grads["W"], (cols.T @ g.reshape(-1, 2)).reshape(3, 3, 1, 2)
            )
            np.testing.assert_array_equal(conv.grads["b"], g.reshape(-1, 2).sum(axis=0))

    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_truncated_backward_drops_only_the_input_gradient(self, name, rng):
        m = ZOO[name]()
        x, y = batch_for(m, rng)
        _, g = softmax_cross_entropy(m.forward(x, training=True), y)
        layer_by_layer = g
        for layer in reversed(m.layers):
            layer_by_layer = layer.backward(layer_by_layer)
        m._gflat[:] = 0.0
        dx = m.backward(g)
        assert dx.shape == x.shape
        np.testing.assert_array_equal(dx, layer_by_layer)
        full = m._gflat.copy()
        m._gflat[:] = 0.0
        assert m.backward(g, input_grad=False) is None
        np.testing.assert_array_equal(m._gflat, full)


def textbook_steps(weights, batches, kind, lr, prox_mu):
    """Reference train steps on a ReLU MLP: unfused loss, *full*
    backward (input gradient included), one allocating update per
    tensor.  ``weights`` is ``[W0, b0, W1, b1, ...]``, updated in place;
    returns the batch losses."""
    anchor = [w.copy() for w in weights]
    state = [np.zeros_like(w) for w in weights]
    rho, eps, momentum = 0.9, 1e-7, 0.9
    losses = []
    for x, y in batches:
        acts, masks, h = [], [], x
        depth = len(weights) // 2
        for i in range(depth):
            acts.append(h)
            h = h @ weights[2 * i] + weights[2 * i + 1]
            if i < depth - 1:
                masks.append(h > 0)
                h = np.where(masks[-1], h, 0.0)
        onehot = T.one_hot(y, h.shape[1])
        loss = float(-np.sum(onehot * log_softmax(h)) / len(y))
        g = (softmax(h) - onehot) / len(y)
        grads = [None] * len(weights)
        for i in reversed(range(depth)):
            if i < depth - 1:
                g = g * masks[i]
            grads[2 * i] = acts[i].T @ g
            grads[2 * i + 1] = g.sum(axis=0)
            g = g @ weights[2 * i].T
        for i in range(depth if prox_mu > 0.0 else 0):
            penalty = 0.0  # summed per layer, then added: proximal_penalty's order
            for j in (2 * i, 2 * i + 1):
                diff = weights[j] - anchor[j]
                penalty += 0.5 * prox_mu * float(np.sum(diff * diff))
                grads[j] = grads[j] + prox_mu * diff
            loss += penalty
        for i, w in enumerate(weights):
            if kind == "rmsprop":
                state[i] = rho * state[i] + (1.0 - rho) * grads[i] * grads[i]
                w -= lr * grads[i] / (np.sqrt(state[i]) + eps)
            elif kind == "momentum":
                state[i] = momentum * state[i] - lr * grads[i]
                w += state[i]
            else:
                w -= lr * grads[i]
        losses.append(loss)
    return losses


@settings(max_examples=40, deadline=None)
@given(
    in_dim=st.integers(1, 6),
    hidden=st.lists(st.integers(1, 6), max_size=2),
    classes=st.integers(2, 4),
    batch_sizes=st.lists(st.integers(1, 5), min_size=1, max_size=3),
    kind=st.sampled_from(["sgd", "momentum", "rmsprop"]),
    prox_mu=st.sampled_from([0.0, 0.3]),
    seed=st.integers(0, 2**31 - 1),
)
def test_arena_train_step_equals_textbook_loop(
    in_dim, hidden, classes, batch_sizes, kind, prox_mu, seed
):
    """In-place gradients, truncated backprop, the fused loss and one
    optimizer pass over the arena change no bit of a train step."""
    rng = np.random.default_rng(seed)
    layers = [layer for width in hidden for layer in (Dense(width), ReLU())]
    m = Sequential(layers + [Dense(classes)], input_shape=(in_dim,), rng=seed)
    weights = m.get_weights()
    batches = [
        (rng.standard_normal((n, in_dim)), rng.integers(0, classes, size=n))
        for n in batch_sizes
    ]
    opt = {
        "sgd": SGD(lr=0.05),
        "momentum": SGD(lr=0.05, momentum=0.9),
        "rmsprop": RMSprop(lr=0.05, decay=1.0),
    }[kind]
    anchor = m.get_weights()
    losses = [
        m.train_step(x, y, opt, prox_anchor=anchor, prox_mu=prox_mu) for x, y in batches
    ]
    assert losses == textbook_steps(weights, batches, kind, 0.05, prox_mu)
    np.testing.assert_array_equal(
        m.get_flat_weights(), np.concatenate([w.ravel() for w in weights])
    )
