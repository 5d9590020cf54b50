"""Literal pins of the serial stream's train-step numerics.

Each case runs a fixed, seeded schedule of ``fit_epoch`` calls and
compares ``sha256(get_flat_weights())`` plus every returned loss (as
``float.hex``) against literals recorded at ``834b6e0`` -- the last tree
whose train step ran per ``(layer, param)`` key with allocating
gradients and a full backward.  ``perf/``'s digests cover RMSprop on
three models only; the SGD-momentum and FedProx branches have no other
literal pin.  Like the golden values of
``tests/execution/test_batched_executor.py`` the literals are those of
this image's BLAS; a train-step rewrite has to reproduce them bit for
bit (``docs/numerics.md``, "Why the arena is bit-identical").
"""

import hashlib

import numpy as np
import pytest

from repro.nn import SGD, RMSprop, build_linear, build_mlp, build_mnist_cnn
from repro.rng import make_rng
from tests.conftest import make_test_client, make_tiny_dataset


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
