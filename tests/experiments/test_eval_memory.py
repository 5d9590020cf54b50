"""Inference memory at the paper's input shapes.

An eval-mode forward runs a CNN's conv trunk a few samples at a time
(``repro.nn.model.eval_block``), so ``im2col`` holds a few samples'
patch matrices instead of the whole batch's.  A forward of one full
evaluation batch at the paper's shapes peaked at 438 MB (``mnist_cnn``,
28x28) and 627 MB (``cifar10_cnn``, 32x32x3) before; this gate holds it
under 64 MB, where the trunk's output for the batch is most of it.
"""

import tracemalloc

import numpy as np
import pytest

from repro.nn import build_cifar10_cnn, build_mnist_cnn
from repro.nn.model import EVAL_BATCH

LIMIT_BYTES = 64 * 2**20


@pytest.mark.parametrize(
    "builder, shape",
    [(build_mnist_cnn, (28, 28, 1)), (build_cifar10_cnn, (32, 32, 3))],
    ids=["mnist_cnn", "cifar10_cnn"],
)
def test_an_eval_batch_at_paper_shape_peaks_under_64_mb(builder, shape):
    model = builder(input_shape=shape, rng=0)
    x = np.random.default_rng(1).standard_normal((EVAL_BATCH,) + shape)
    tracemalloc.start()
    try:
        logits = model.forward(x, training=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert logits.shape == (EVAL_BATCH, 10)
    assert peak < LIMIT_BYTES, f"eval forward peaked at {peak / 2**20:.1f} MiB"
