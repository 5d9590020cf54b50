"""Model zoo.

The paper's exact architectures are provided (Section 5.2 "Models and
Datasets") alongside *surrogate* models (MLP / linear) that train orders of
magnitude faster on the synthetic datasets.  Experiment harnesses default
to the surrogates so the full benchmark suite runs in seconds; the faithful
CNNs remain available (and tested) for users who want the paper-scale
architectures.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.nn.layers import Conv2D, Dense, Dropout, Flatten, Layer, MaxPool2D, ReLU
from repro.nn.model import Sequential
from repro.rng import RngLike

__all__ = [
    "build_mnist_cnn",
    "build_cifar10_cnn",
    "build_femnist_cnn",
    "build_mlp",
    "build_linear",
    "build_model",
    "check_model",
    "MODEL_NAMES",
]


def build_mnist_cnn(
    input_shape: Tuple[int, ...] = (28, 28, 1),
    num_classes: int = 10,
    rng: RngLike = None,
) -> Sequential:
    """The paper's MNIST / Fashion-MNIST CNN.

    3x3 conv(32) + ReLU, 3x3 conv(64) + ReLU, 2x2 max-pool, dropout 0.25,
    dense(128) + ReLU, dropout 0.5, dense(num_classes).
    """
    return Sequential(_layers("mnist_cnn", num_classes), input_shape=input_shape, rng=rng)


def build_cifar10_cnn(
    input_shape: Tuple[int, ...] = (32, 32, 3),
    num_classes: int = 10,
    rng: RngLike = None,
) -> Sequential:
    """The paper's CIFAR-10 model: four conv layers then two dense layers.

    Two 3x3 conv(32) blocks and two 3x3 conv(64) blocks, each pair followed
    by 2x2 max-pool and dropout 0.25, ending in dense(512) + ReLU and the
    classifier head.
    """
    return Sequential(_layers("cifar10_cnn", num_classes), input_shape=input_shape, rng=rng)


def build_femnist_cnn(
    input_shape: Tuple[int, ...] = (28, 28, 1),
    num_classes: int = 62,
    rng: RngLike = None,
) -> Sequential:
    """LEAF's standard FEMNIST model: two 5x5 conv blocks + dense(2048)."""
    return Sequential(_layers("femnist_cnn", num_classes), input_shape=input_shape, rng=rng)


def build_mlp(
    input_shape: Tuple[int, ...],
    num_classes: int,
    hidden: Sequence[int] = (64,),
    dropout: float = 0.0,
    rng: RngLike = None,
) -> Sequential:
    """Surrogate MLP used by the fast experiment harness.

    Accepts image-shaped or flat inputs (a Flatten is always prepended).
    """
    layers = _layers("mlp", num_classes, hidden, dropout)
    return Sequential(layers, input_shape=input_shape, rng=rng)


def build_linear(
    input_shape: Tuple[int, ...],
    num_classes: int,
    rng: RngLike = None,
) -> Sequential:
    """Multinomial logistic regression -- the fastest surrogate."""
    return Sequential(_layers("linear", num_classes), input_shape=input_shape, rng=rng)


_BUILDERS = {
    "mnist_cnn": build_mnist_cnn,
    "cifar10_cnn": build_cifar10_cnn,
    "femnist_cnn": build_femnist_cnn,
}
#: Every name :func:`build_model` builds.
MODEL_NAMES = ("linear", "mlp", "mnist_cnn", "cifar10_cnn", "femnist_cnn")
_UNKNOWN = "unknown model {!r}; available: " + str(list(MODEL_NAMES))


def _layers(
    name: str, num_classes: int, hidden: Sequence[int] = (64,), dropout: float = 0.0
) -> List[Layer]:
    """The unbuilt layer stack of the model ``name`` (``hidden`` and
    ``dropout`` shape the MLP only): what the builders build and
    :func:`check_model` walks."""
    if name == "mnist_cnn":
        return [
            Conv2D(32, 3),
            ReLU(),
            Conv2D(64, 3),
            ReLU(),
            MaxPool2D(2),
            Dropout(0.25),
            Flatten(),
            Dense(128),
            ReLU(),
            Dropout(0.5),
            Dense(num_classes),
        ]
    if name == "cifar10_cnn":
        return [
            Conv2D(32, 3, padding="same"),
            ReLU(),
            Conv2D(32, 3),
            ReLU(),
            MaxPool2D(2),
            Dropout(0.25),
            Conv2D(64, 3, padding="same"),
            ReLU(),
            Conv2D(64, 3),
            ReLU(),
            MaxPool2D(2),
            Dropout(0.25),
            Flatten(),
            Dense(512),
            ReLU(),
            Dense(num_classes),
        ]
    if name == "femnist_cnn":
        return [
            Conv2D(32, 5, padding="same"),
            ReLU(),
            MaxPool2D(2),
            Conv2D(64, 5, padding="same"),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(2048),
            ReLU(),
            Dense(num_classes),
        ]
    if name == "mlp":
        layers: List[Layer] = [Flatten()]
        for width in hidden:
            layers.append(Dense(int(width)))
            layers.append(ReLU())
            if dropout > 0.0:
                layers.append(Dropout(dropout))
        layers.append(Dense(num_classes))
        return layers
    if name == "linear":
        return [Flatten(), Dense(num_classes)]
    raise KeyError(_UNKNOWN.format(name))


def build_model(
    name: str,
    input_shape: Optional[Tuple[int, ...]] = None,
    num_classes: Optional[int] = None,
    rng: RngLike = None,
    **kwargs,
) -> Sequential:
    """Build a model by registry name.

    ``name`` is one of ``mnist_cnn``, ``cifar10_cnn``, ``femnist_cnn``,
    ``mlp``, ``linear``.  ``input_shape`` / ``num_classes`` default to the
    paper values for the CNNs and are required for the surrogates.
    """
    if name in _BUILDERS:
        builder = _BUILDERS[name]
        call_kwargs = dict(kwargs)
        if input_shape is not None:
            call_kwargs["input_shape"] = input_shape
        if num_classes is not None:
            call_kwargs["num_classes"] = num_classes
        return builder(rng=rng, **call_kwargs)
    if name == "mlp":
        if input_shape is None or num_classes is None:
            raise ValueError("mlp requires input_shape and num_classes")
        return build_mlp(input_shape, num_classes, rng=rng, **kwargs)
    if name == "linear":
        if input_shape is None or num_classes is None:
            raise ValueError("linear requires input_shape and num_classes")
        return build_linear(input_shape, num_classes, rng=rng)
    raise KeyError(_UNKNOWN.format(name))


def check_model(
    name: str, input_shape: Tuple[int, ...], num_classes: int, **kwargs
) -> None:
    """Raise what ``build_model(name, input_shape, num_classes, **kwargs)``
    would raise for its layer shapes, without allocating a parameter: each
    layer's :meth:`~repro.nn.layers.Layer.output_shape` in turn."""
    shape = tuple(int(s) for s in input_shape)
    for layer in _layers(name, num_classes, **kwargs):
        shape = layer.output_shape(shape)
