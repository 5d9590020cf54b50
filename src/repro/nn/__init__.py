"""``repro.nn`` -- a from-scratch, numpy-only deep-learning substrate.

The TiFL paper trains Tensorflow CNNs on each client; this subpackage
provides the equivalent capability without any external DL framework:
layers with exact analytic gradients, losses, optimizers, and a
:class:`~repro.nn.model.Sequential` container whose flat weight
representation is what the federated-averaging aggregator operates on.

Performance notes (per the HPC guides): all layer kernels are vectorised
numpy -- convolutions go through im2col/col2im so the hot loop is a single
GEMM; no per-sample Python loops appear anywhere on the training path.
"""

from repro.nn.initializers import glorot_uniform, zeros_init
from repro.nn.layers import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    MaxPool2D,
    ReLU,
)
from repro.nn.losses import (
    proximal_penalty,
    softmax_cross_entropy,
)
from repro.nn.metrics import top_k_accuracy
from repro.nn.model import Sequential
from repro.nn.optimizers import SGD, Optimizer, RMSprop
from repro.nn.stacked import StackedSequential
from repro.nn.zoo import (
    build_cifar10_cnn,
    build_femnist_cnn,
    build_linear,
    build_mlp,
    build_mnist_cnn,
    build_model,
)

__all__ = [
    "Layer",
    "Dense",
    "ReLU",
    "Conv2D",
    "MaxPool2D",
    "Flatten",
    "Dropout",
    "Sequential",
    "StackedSequential",
    "softmax_cross_entropy",
    "proximal_penalty",
    "top_k_accuracy",
    "Optimizer",
    "SGD",
    "RMSprop",
    "glorot_uniform",
    "zeros_init",
    "build_mnist_cnn",
    "build_cifar10_cnn",
    "build_femnist_cnn",
    "build_mlp",
    "build_linear",
    "build_model",
]
