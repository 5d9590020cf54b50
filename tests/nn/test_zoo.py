"""Tests for the model zoo, including the paper's exact architectures."""

import numpy as np
import pytest

from repro.nn import (
    SGD,
    build_cifar10_cnn,
    build_femnist_cnn,
    build_linear,
    build_mlp,
    build_mnist_cnn,
    build_model,
)
from repro.nn.zoo import MODEL_NAMES, check_model


class TestPaperArchitectures:
    def test_mnist_cnn_shapes(self, rng):
        m = build_mnist_cnn(rng=0)
        assert m.input_shape == (28, 28, 1)
        assert m.output_shape == (10,)
        out = m.forward(rng.standard_normal((2, 28, 28, 1)))
        assert out.shape == (2, 10)

    def test_mnist_cnn_trains_one_step(self, rng):
        m = build_mnist_cnn(rng=0)
        x = rng.standard_normal((4, 28, 28, 1))
        y = rng.integers(0, 10, size=4)
        loss = m.train_step(x, y, SGD(lr=0.01))
        assert np.isfinite(loss)

    def test_cifar10_cnn_shapes(self, rng):
        m = build_cifar10_cnn(rng=0)
        assert m.input_shape == (32, 32, 3)
        out = m.forward(rng.standard_normal((1, 32, 32, 3)))
        assert out.shape == (1, 10)

    def test_femnist_cnn_shapes(self, rng):
        m = build_femnist_cnn(rng=0)
        assert m.output_shape == (62,)
        out = m.forward(rng.standard_normal((1, 28, 28, 1)))
        assert out.shape == (1, 62)

    def test_femnist_cnn_param_count_matches_leaf(self):
        # LEAF FEMNIST model: conv5x5x32 (832) + conv5x5x64 (51264)
        # + dense 7*7*64 -> 2048 (6424576 + 2048) + dense 2048 -> 62 (127038)
        m = build_femnist_cnn(rng=0)
        assert m.num_params() == 832 + 51_264 + (7 * 7 * 64 * 2048 + 2048) + (
            2048 * 62 + 62
        )


class TestSurrogates:
    def test_mlp_accepts_image_input(self, rng):
        m = build_mlp((6, 6, 1), 4, hidden=(10, 5), rng=0)
        out = m.forward(rng.standard_normal((3, 6, 6, 1)))
        assert out.shape == (3, 4)

    def test_mlp_dropout_layers_present(self):
        m = build_mlp((8,), 2, hidden=(4,), dropout=0.5, rng=0)
        names = [type(l).__name__ for l in m.layers]
        assert "Dropout" in names

    def test_linear_param_count(self):
        m = build_linear((8, 8, 1), 10, rng=0)
        assert m.num_params() == 64 * 10 + 10


class TestRegistry:
    def test_build_by_name(self):
        m = build_model("mnist_cnn", rng=0)
        assert m.input_shape == (28, 28, 1)

    def test_build_with_overrides(self):
        m = build_model("mnist_cnn", input_shape=(12, 12, 1), num_classes=5, rng=0)
        assert m.output_shape == (5,)

    def test_mlp_requires_shapes(self):
        with pytest.raises(ValueError, match="requires"):
            build_model("mlp")

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown model"):
            build_model("resnet50")


def _outcome(call):
    try:
        call()
    except (KeyError, ValueError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("name", MODEL_NAMES + ("resnet50",))
@pytest.mark.parametrize("shape", [(28, 28, 1), (8, 8, 1), (4, 4, 1), (2, 2, 1), (64,)])
def test_check_model_raises_what_the_build_raises(name, shape):
    """The shape walk behind ``ScenarioConfig.check_buildable`` refuses
    exactly the (model, shape) pairs the build refuses, by the same error."""
    kwargs = {"hidden": (8,)} if name == "mlp" else {}
    built = _outcome(lambda: build_model(name, shape, 10, rng=0, **kwargs))
    assert _outcome(lambda: check_model(name, shape, 10, **kwargs)) == built
