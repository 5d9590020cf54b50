"""Tests for the LEAF-style FEMNIST federation."""

import numpy as np
import pytest

from repro.data.leaf import PAPER_NUM_CLIENTS, make_femnist_leaf
from repro.data.validation import check_partition


@pytest.fixture(scope="module")
def leaf():
    # scale down for test speed; the skew structure is scale-invariant
    return make_femnist_leaf(num_clients=40, scale=0.2, test_size=200, rng=0)


class TestStructure:
    def test_client_count(self, leaf):
        assert len(leaf.client_indices) == 40

    def test_paper_default_is_182(self):
        assert PAPER_NUM_CLIENTS == 182

    def test_partition_valid(self, leaf):
        check_partition(leaf.client_indices, len(leaf.train))

    def test_shapes(self, leaf):
        assert leaf.train.x.shape[1:] == (28, 28, 1)
        assert leaf.train.num_classes == 62
        assert len(leaf.test) == 200


class TestSkew:
    def test_quantity_skew_present(self, leaf):
        sizes = leaf.client_sizes()
        assert sizes.std() / sizes.mean() > 0.15  # visible quantity spread

    def test_class_skew_present(self, leaf):
        """Per-writer class distributions differ (Dirichlet skew)."""
        tables = []
        for cid in range(10):
            y = leaf.train.y[leaf.client_indices[cid]]
            tables.append(np.bincount(y, minlength=leaf.train.num_classes) / y.size)
        tables = np.stack(tables)
        assert tables.std(axis=0).max() > 0.005

    def test_feature_skew_present(self):
        """Same-class samples from different writers differ by their shift."""
        leaf = make_femnist_leaf(
            num_clients=4, scale=0.2, writer_style_scale=1.0, test_size=50, rng=3
        )
        means = [leaf.train.x[leaf.client_indices[c]].mean(axis=0).ravel() for c in range(4)]
        dists = [np.linalg.norm(means[0] - m) for m in means[1:]]
        assert min(dists) > 0.0

    def test_min_samples_respected(self):
        leaf = make_femnist_leaf(num_clients=20, scale=0.01, min_samples=12, rng=0)
        assert leaf.client_sizes().min() >= 12


class TestDeterminism:
    def test_same_seed_identical(self):
        a = make_femnist_leaf(num_clients=8, scale=0.1, test_size=30, rng=11)
        b = make_femnist_leaf(num_clients=8, scale=0.1, test_size=30, rng=11)
        np.testing.assert_array_equal(a.train.x, b.train.x)
        np.testing.assert_array_equal(a.client_sizes(), b.client_sizes())

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            make_femnist_leaf(num_clients=0)
        with pytest.raises(ValueError):
            make_femnist_leaf(scale=0.0)
