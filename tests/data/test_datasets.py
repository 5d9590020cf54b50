"""Tests for the Dataset container and named factories."""

import numpy as np
import pytest

from repro.data.datasets import (
    Dataset,
    cifar10_like,
    femnist_like,
    fmnist_like,
    mnist_like,
)


class TestDataset:
    def test_length_and_shape(self, rng):
        d = Dataset(rng.standard_normal((10, 4, 4, 1)), rng.integers(0, 3, 10), 3)
        assert len(d) == 10
        assert d.x.shape[1:] == (4, 4, 1)

    def test_mismatched_lengths_raise(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            Dataset(rng.standard_normal((5, 2)), np.zeros(4, dtype=int), 2)

    def test_labels_out_of_range_raise(self, rng):
        with pytest.raises(ValueError, match="out of range"):
            Dataset(rng.standard_normal((3, 2)), np.array([0, 1, 5]), 3)

    def test_subset_copies(self, rng):
        d = Dataset(rng.standard_normal((6, 2)), np.zeros(6, dtype=int), 2)
        sub = d.subset(np.array([0, 2]))
        sub.x[:] = 99.0
        assert not np.any(d.x == 99.0)

    def test_split_disjoint_and_complete(self, rng):
        d = Dataset(
            np.arange(20).reshape(20, 1).astype(float), np.zeros(20, dtype=int), 2
        )
        a, b = d.split(8, rng=0)
        assert len(a) == 8 and len(b) == 12
        combined = np.sort(np.concatenate([a.x.ravel(), b.x.ravel()]))
        np.testing.assert_array_equal(combined, np.arange(20))

    def test_split_of_rows_equals_split_of_their_subset(self, rng):
        """Composing ``rows`` with the permutation gathers the same
        samples, in the same order, as splitting ``subset(rows)``."""
        d = Dataset(rng.standard_normal((20, 3)), rng.integers(0, 4, size=20), 4)
        rows = np.array([17, 3, 4, 11, 0, 9, 12])
        a, b = d.split(3, rng=5, rows=rows, name="mine")
        ref_a, ref_b = d.subset(rows).split(3, rng=5)
        for got, ref in ((a, ref_a), (b, ref_b)):
            np.testing.assert_array_equal(got.x, ref.x)
            np.testing.assert_array_equal(got.y, ref.y)
            assert got.name == "mine" and not np.shares_memory(got.x, d.x)
        with pytest.raises(ValueError):
            d.split(8, rows=rows)

    def test_split_bounds(self, rng):
        d = Dataset(rng.standard_normal((5, 2)), np.zeros(5, dtype=int), 2)
        with pytest.raises(ValueError):
            d.split(6)


@pytest.mark.parametrize(
    "factory,classes,shape",
    [
        (mnist_like, 10, (28, 28, 1)),
        (fmnist_like, 10, (28, 28, 1)),
        (cifar10_like, 10, (32, 32, 3)),
        (femnist_like, 62, (28, 28, 1)),
    ],
)
class TestFactories:
    def test_default_shapes(self, factory, classes, shape):
        train, test = factory(train_size=classes * 4, test_size=classes * 2, rng=0)
        assert train.x.shape[1:] == shape
        assert train.num_classes == classes
        assert len(train) == classes * 4 and len(test) == classes * 2

    def test_custom_shape(self, factory, classes, shape):
        train, _ = factory(
            train_size=classes * 2, test_size=classes, shape=(6, 6, 1), rng=0
        )
        assert train.x.shape[1:] == (6, 6, 1)

    def test_balanced_labels(self, factory, classes, shape):
        train, _ = factory(train_size=classes * 10, test_size=classes, rng=0)
        counts = np.bincount(train.y, minlength=train.num_classes)
        assert counts.min() >= 9  # near-perfect balance by construction

    def test_deterministic(self, factory, classes, shape):
        a, _ = factory(
            train_size=classes * 2, test_size=classes, shape=(4, 4, 1), rng=3
        )
        b, _ = factory(
            train_size=classes * 2, test_size=classes, shape=(4, 4, 1), rng=3
        )
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)


def test_train_test_share_prototypes():
    """A model separating train must also separate test (same geometry)."""
    train, test = mnist_like(train_size=300, test_size=200, shape=(6, 6, 1), rng=1)
    # nearest-class-mean classifier fit on train, applied to test
    means = np.stack([
        train.x[train.y == c].reshape(-1, 36).mean(axis=0) for c in range(10)
    ])
    scores = test.x.reshape(len(test), -1) @ means.T
    acc = (scores.argmax(axis=1) == test.y).mean()
    assert acc > 0.5  # far above the 10% chance level
