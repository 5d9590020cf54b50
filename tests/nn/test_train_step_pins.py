"""Literal pins of the serial stream's train-step numerics.

Each case runs a fixed, seeded schedule of ``fit_epoch`` calls and
compares ``sha256(get_flat_weights())`` plus every returned loss (as
``float.hex``) against literals recorded at ``834b6e0`` -- the last tree
whose train step ran per ``(layer, param)`` key with allocating
gradients and a full backward.  ``perf/``'s digests cover RMSprop on
three models only; the SGD-momentum and FedProx branches have no other
literal pin.  The literals are those of the OpenBLAS build they were
recorded on (0.3.31, under numpy 2.4); a train-step rewrite has to
reproduce them bit for bit (``docs/numerics.md``, "Why the arena is
bit-identical").

The eval-mode logits of the three paper CNNs and one ``MaxPool2D`` /
``ReLU`` forward and backward on a tensor full of ties and signed zeros
are pinned the same way, recorded at ``3324ace`` -- the last tree whose
ReLU was ``np.where`` and whose pool was ``argmax`` + ``np.add.at``.
Each CNN's eval logits at a reduced and at the paper's input shape, on
ragged batches, are pinned at ``f05f890``: one forward over the whole
batch, the bits any later way of composing that forward must keep.
"""

import hashlib

import numpy as np
import pytest

from repro.nn import (
    SGD,
    RMSprop,
    build_cifar10_cnn,
    build_femnist_cnn,
    build_linear,
    build_mlp,
    build_mnist_cnn,
)
from repro.nn.layers import MaxPool2D, ReLU
from repro.rng import make_rng
from tests.conftest import assert_bits_equal, make_test_client, make_tiny_dataset


def fit_schedule(model, data, optimizer, batch_size, epochs, shuffle_seed, **prox):
    """``epochs`` local epochs on one shuffle stream, the decay schedule
    stepped between them, and -- after the first -- one weight swap of the
    kind a server broadcast performs (optimizer state must survive it)."""
    rng = make_rng(shuffle_seed)
    losses = []
    for epoch in range(epochs):
        losses.append(
            model.fit_epoch(data.x, data.y, optimizer, batch_size, rng=rng, **prox)
        )
        optimizer.steps += 1
        if epoch == 0:
            model.set_flat_weights(0.5 * model.get_flat_weights())
    return losses


def run_mlp_rmsprop():
    # 50 890 parameters: more than one RMSprop block, with a ragged tail;
    # 48 samples in batches of 10 leave a ragged last batch too.
    model = build_mlp((28, 28, 1), 10, hidden=(64,), rng=3)
    data = make_tiny_dataset(n=48, num_classes=10, shape=(28, 28, 1), seed=1)
    return model, fit_schedule(model, data, RMSprop(lr=0.01), 10, 3, 11)


def run_mnist_cnn_rmsprop():
    model = build_mnist_cnn(input_shape=(12, 12, 1), num_classes=10, rng=5)
    data = make_tiny_dataset(n=24, num_classes=10, shape=(12, 12, 1), seed=2)
    return model, fit_schedule(model, data, RMSprop(lr=0.01), 8, 2, 13)


def run_linear_rmsprop():
    model = build_linear((4, 4, 1), 3, rng=7)
    data = make_tiny_dataset(n=40, seed=3)
    return model, fit_schedule(model, data, RMSprop(lr=0.01), 10, 3, 17)


def run_mlp_sgd_momentum():
    model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=9)
    data = make_tiny_dataset(n=40, seed=4)
    opt = SGD(lr=0.05, momentum=0.9, decay=0.99)
    return model, fit_schedule(model, data, opt, 7, 3, 19)


def run_mlp_sgd_plain():
    model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=9)
    data = make_tiny_dataset(n=40, seed=4)
    return model, fit_schedule(model, data, SGD(lr=0.05), 7, 3, 19)


def run_fedprox_client():
    # The proximal branch the way a round reaches it: SimClient.train
    # anchors at the broadcast weights; the extra fit_epoch returns the
    # proximal loss SimClient.train does not expose.
    model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=21)
    client = make_test_client(client_id=2, n=30, seed=5)
    broadcast = build_mlp((4, 4, 1), 3, hidden=(8,), rng=22).get_flat_weights()
    trained = client.train(
        model, broadcast, lambda: RMSprop(lr=0.01), batch_size=5, epochs=2, prox_mu=0.1
    )
    np.testing.assert_array_equal(trained, model.get_flat_weights())
    anchor = build_mlp((4, 4, 1), 3, hidden=(8,), rng=22).get_weights()
    data = client.train_data
    opt = SGD(lr=0.05, momentum=0.9)
    return model, fit_schedule(model, data, opt, 5, 2, 23, prox_anchor=anchor, prox_mu=0.3)


SCHEDULES = {
    "mlp_rmsprop": run_mlp_rmsprop,
    "mnist_cnn_rmsprop": run_mnist_cnn_rmsprop,
    "linear_rmsprop": run_linear_rmsprop,
    "mlp_sgd_momentum": run_mlp_sgd_momentum,
    "mlp_sgd_plain": run_mlp_sgd_plain,
    "fedprox_client": run_fedprox_client,
}

#: name -> (sha256 of the final flat weights, float.hex of each epoch loss),
#: recorded at 834b6e0 by running this file's schedules on that tree.
PINNED = {
    "mlp_rmsprop": (
        "4473ddaa3cf10dffd8ce1a31bf4f412c2f455df90641d21871019e5961b81c87",
        ["0x1.8123409dc5becp+0", "0x1.14930a7c61f45p+0", "0x1.b3c3f7fef9e88p-3"],
    ),
    "mnist_cnn_rmsprop": (
        "b28705af757e8d35b063b3cb4d7fc98330b1fd9dd67ec171f550c7c0c5a9516a",
        ["0x1.843d7763f8ffbp+1", "0x1.270c9df0dd9cfp+1"],
    ),
    "linear_rmsprop": (
        "142e809bf31a369592bd37ea5bba0b323e102a85457196bd6bd8ff3932fe5646",
        ["0x1.de739f4f0a137p-1", "0x1.e8dfb2eb9b9ecp-1", "0x1.ce705fb0ce6b6p-1"],
    ),
    "mlp_sgd_momentum": (
        "53907ab862bb62463a412fb5c5eabc83d53833df50e78d05702b8704583868a0",
        ["0x1.0bb05036fc89dp+0", "0x1.0d3e069a9c71bp+0", "0x1.fb347abbd049fp-1"],
    ),
    "mlp_sgd_plain": (
        "9a5345f6c517edf2d35f4e68cd1dd87542b20aefe5ff66c468fe9cddc36fd9a8",
        ["0x1.0d66767677cc3p+0", "0x1.1431a63474bffp+0", "0x1.11f098adc655fp+0"],
    ),
    "fedprox_client": (
        "31a08c2dd0648eb0d0dcf3ed7dc1c1655818207b1f0816cec21d58e74b0fb7b7",
        ["0x1.e65c0a2f4c04ap-1", "0x1.7b42656bb6e31p+0"],
    ),
}


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_train_step_numerics_are_pinned(name):
    model, losses = SCHEDULES[name]()
    digest = hashlib.sha256(model.get_flat_weights().tobytes()).hexdigest()
    assert (digest, [float(v).hex() for v in losses]) == PINNED[name]


#: name -> (builder, input shape, classes, batch, seed).  ``mnist_cnn``
#: is ``cnn_serial``'s model and evaluation batch; ``cifar10_cnn`` and
#: ``femnist_cnn`` add ``"same"`` padding and 5x5 kernels, at small inputs.
EVAL_CASES = {
    "mnist_cnn": (build_mnist_cnn, (12, 12, 1), 10, 128, 31),
    "cifar10_cnn": (build_cifar10_cnn, (12, 12, 3), 10, 32, 32),
    "femnist_cnn": (build_femnist_cnn, (8, 8, 1), 62, 32, 33),
}

#: name -> sha256 of the eval-mode logits, recorded at 3324ace.
EVAL_PINNED = {
    "mnist_cnn": "193bca094e3228edaf4c78231e8c835b9d5cd9414bd0da0d3b54b3c7ac5c4c1c",
    "cifar10_cnn": "4a186689336f5416a66fb9b3fa0e5c28d9ee2f57d818f13b856c94fd92b30bee",
    "femnist_cnn": "ba16ecb8f2ae28de0bb55b0868412dd9ed275c0985615454b21fa79ff052291d",
}


@pytest.mark.parametrize("name", sorted(EVAL_CASES))
def test_eval_logits_are_pinned(name):
    builder, shape, classes, n, seed = EVAL_CASES[name]
    model = builder(input_shape=shape, num_classes=classes, rng=seed)
    # Perturb every weight so the biases are non-zero and the bias adds
    # are real additions.
    w = model.get_flat_weights()
    model.set_flat_weights(w + 0.05 * make_rng(seed).standard_normal(w.size))
    x = make_tiny_dataset(n=n, num_classes=classes, shape=shape, seed=seed).x
    logits = model.forward(x, training=False)
    assert hashlib.sha256(logits.tobytes()).hexdigest() == EVAL_PINNED[name]


#: case -> (builder, input shape, classes, batch, seed): each CNN at a
#: reduced and at the paper's input shape, on batches long enough -- and
#: ragged enough -- that a forward which splits its batch into
#: sub-batches must still give the one-batch bits.
SHAPE_EVAL_CASES = {
    "mnist_cnn-12x12": (build_mnist_cnn, (12, 12, 1), 10, 100, 41),
    "mnist_cnn-28x28": (build_mnist_cnn, (28, 28, 1), 10, 21, 42),
    "cifar10_cnn-16x16": (build_cifar10_cnn, (16, 16, 3), 10, 100, 43),
    "cifar10_cnn-32x32": (build_cifar10_cnn, (32, 32, 3), 10, 21, 44),
    "femnist_cnn-14x14": (build_femnist_cnn, (14, 14, 1), 62, 100, 45),
    "femnist_cnn-28x28": (build_femnist_cnn, (28, 28, 1), 62, 21, 46),
}

#: case -> sha256 of the eval-mode logits, recorded at f05f890 (one
#: forward over the whole batch; the same at 1 and 2 BLAS threads).
SHAPE_EVAL_PINNED = {
    "mnist_cnn-12x12": "da92f939a0f599e927900f990b97b094de8c15661ede0b38d6162d7cb248cce6",
    "mnist_cnn-28x28": "ef1309f0a47a4c7e542baf8a80897b286321885047840603543230e63f807273",
    "cifar10_cnn-16x16": "a9c473cb434ca65b5cf20e0cd630c2eee043119f8c0083435209a3f44ab3f22c",
    "cifar10_cnn-32x32": "94605f6c1656ddccf1c1699a9f0191f889b77eec6c539072c3b2b65051e1979a",
    "femnist_cnn-14x14": "db0e99468eeaba17f0f3f788ed360c1aaaf9d9c40e6977d7aafebc3a5297635a",
    "femnist_cnn-28x28": "a61ca8b8b5610f79e7b0dd3f07bc411cf98405b836988e2fb8f3ac38e857228c",
}


@pytest.mark.parametrize("case", sorted(SHAPE_EVAL_CASES))
def test_eval_logits_at_reduced_and_paper_shapes_are_pinned(case):
    builder, shape, classes, n, seed = SHAPE_EVAL_CASES[case]
    model = builder(input_shape=shape, num_classes=classes, rng=seed)
    w = model.get_flat_weights()
    model.set_flat_weights(w + 0.05 * make_rng(seed).standard_normal(w.size))
    x = make_tiny_dataset(n=n, num_classes=classes, shape=shape, seed=seed).x
    logits = model.forward(x, training=False)
    assert hashlib.sha256(logits.tobytes()).hexdigest() == SHAPE_EVAL_PINNED[case]


def nhwc(*channels):
    """One ``(1, h, w, c)`` tensor from ``c`` literal ``h x w`` grids."""
    return np.array(channels, dtype=np.float64).transpose(1, 2, 0)[None]


# Every 2x2 window holds a tie: +-0 maxima in either order, a repeated
# 2.0 / 3.0, an all -1.0 window.  The fifth row lies outside every
# window, so its gradient stays zero.
TIES = nhwc(
    [
        [-0.0, 0.0, 2.0, 2.0],
        [0.0, -0.0, -1.0, 2.0],
        [-1.0, -1.0, 0.0, -0.0],
        [-1.0, -1.0, -0.0, 0.0],
        [7.0, -0.0, 7.0, 0.0],
    ],
    [
        [-1.0, -0.0, -1.0, -1.0],
        [0.0, -0.0, -1.0, 2.0],
        [0.0, -1.0, 3.0, 3.0],
        [-1.0, -0.0, -0.0, 3.0],
        [0.0, 7.0, -0.0, 7.0],
    ],
)


def test_max_pool_forward_backward_are_pinned():
    layer = MaxPool2D(2)
    layer.build(TIES.shape[1:], np.random.default_rng(0))
    out = layer.forward(TIES, training=True)
    # The first maximum in window raster order wins, sign of zero included.
    assert_bits_equal(out, nhwc([[-0.0, 2.0], [-1.0, 0.0]], [[-0.0, 2.0], [0.0, 3.0]]))
    grad = nhwc([[0.5, -1.5], [3.0, -0.0]], [[-2.0, 0.25], [4.0, -3.5]])
    expected = nhwc(
        [
            [0.5, 0.0, -1.5, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [3.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ],
        [
            [0.0, -2.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.25],
            [4.0, 0.0, -3.5, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ],
    )
    assert_bits_equal(layer.backward(grad), expected)


def test_relu_forward_backward_are_pinned():
    layer = ReLU()
    out = layer.forward(TIES, training=True)
    # Every zero comes out +0.0, whatever the input's sign of zero.
    expected = nhwc(
        [[0, 0, 2, 2], [0, 0, 0, 2], [0, 0, 0, 0], [0, 0, 0, 0], [7, 0, 7, 0]],
        [[0, 0, 0, 0], [0, 0, 0, 2], [0, 0, 3, 3], [0, 0, 0, 3], [0, 7, 0, 7]],
    )
    assert_bits_equal(out, expected)
    # grad * mask: a negative gradient at a dead unit comes back -0.0.
    back = layer.backward(nhwc(np.ones((5, 4)), -np.ones((5, 4))))
    expected = nhwc(
        [[0, 0, 1, 1], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 1, 0]],
        [
            [-0.0, -0.0, -0.0, -0.0],
            [-0.0, -0.0, -0.0, -1.0],
            [-0.0, -0.0, -1.0, -1.0],
            [-0.0, -0.0, -0.0, -1.0],
            [-0.0, -1.0, -0.0, -1.0],
        ],
    )
    assert_bits_equal(back, expected)
