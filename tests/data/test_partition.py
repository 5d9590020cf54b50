"""Unit + property tests for the federated partitioners."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.partition import (
    FederatedData,
    partition_iid,
    partition_noniid_classes,
    partition_quantity_skew,
)
from repro.data.validation import (
    check_partition,
    classes_per_client,
    partition_class_table,
)
from tests.conftest import make_tiny_dataset


def balanced_labels(n, k, seed=0):
    rng = np.random.default_rng(seed)
    return rng.permutation(np.tile(np.arange(k), n // k + 1)[:n])


class TestIID:
    def test_full_cover_disjoint(self):
        labels = balanced_labels(100, 10)
        parts = partition_iid(labels, 10, rng=0)
        check_partition(parts, 100)

    def test_near_equal_sizes(self):
        parts = partition_iid(balanced_labels(103, 10), 10, rng=0)
        sizes = [p.size for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_class_spread(self):
        labels = balanced_labels(500, 10)
        parts = partition_iid(labels, 5, rng=0)
        assert (classes_per_client(labels, parts, 10) >= 8).all()

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            partition_iid(np.zeros(3, dtype=int), 5)


class TestNonIIDClasses:
    @pytest.mark.parametrize("k", [2, 5, 10])
    def test_exactly_k_classes(self, k):
        labels = balanced_labels(1000, 10)
        parts = partition_noniid_classes(labels, 50, k, rng=0)
        check_partition(parts, 1000, require_cover=True)
        cpc = classes_per_client(labels, parts, 10)
        assert (cpc <= k).all()
        # most clients hit exactly k (tiny configs may fall short)
        assert (cpc == k).mean() > 0.9

    def test_balanced_class_load(self):
        labels = balanced_labels(1000, 10)
        parts = partition_noniid_classes(labels, 50, 5, rng=0)
        table = partition_class_table(labels, parts, 10)
        holders = (table > 0).sum(axis=0)
        assert holders.max() - holders.min() <= 2

    def test_k_bounds(self):
        labels = balanced_labels(100, 10)
        with pytest.raises(ValueError):
            partition_noniid_classes(labels, 10, 0)
        with pytest.raises(ValueError):
            partition_noniid_classes(labels, 10, 11)


class TestQuantitySkew:
    def test_paper_fractions(self):
        labels = balanced_labels(1000, 10)
        parts = partition_quantity_skew(labels, 50, rng=0)
        check_partition(parts, 1000)
        group_sizes = [sum(parts[g * 10 + i].size for i in range(10)) for g in range(5)]
        np.testing.assert_allclose(
            np.array(group_sizes) / 1000, [0.10, 0.15, 0.20, 0.25, 0.30], atol=0.01
        )

    def test_within_group_equal(self):
        labels = balanced_labels(1000, 10)
        parts = partition_quantity_skew(labels, 50, rng=0)
        for g in range(5):
            sizes = [parts[g * 10 + i].size for i in range(10)]
            assert max(sizes) - min(sizes) <= 1

    def test_fraction_validation(self):
        labels = balanced_labels(100, 10)
        with pytest.raises(ValueError, match="sum to 1"):
            partition_quantity_skew(labels, 10, group_fractions=(0.5, 0.4))
        with pytest.raises(ValueError, match="positive"):
            partition_quantity_skew(labels, 10, group_fractions=(1.2, -0.2))

    def test_divisibility(self):
        labels = balanced_labels(100, 10)
        with pytest.raises(ValueError, match="divisible"):
            partition_quantity_skew(labels, 7)


class TestFederatedData:
    def test_client_dataset_and_sizes(self):
        train = make_tiny_dataset(n=30)
        test = make_tiny_dataset(n=9, seed=1)
        parts = partition_iid(train.y, 3, rng=0)
        fed = FederatedData(train=train, test=test, client_indices=parts)
        assert len(fed.client_indices) == 3
        assert fed.client_sizes().sum() == 30
        pool, rows = fed.client_rows(0)
        assert pool is train and np.array_equal(rows, parts[0])

    def test_out_of_range_indices_raise(self):
        train = make_tiny_dataset(n=10)
        with pytest.raises(ValueError, match="out-of-range"):
            FederatedData(
                train=train, test=train, client_indices=[np.array([0, 99])]
            )


# ---------------------------------------------------------------------------
# property-based invariants
# ---------------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(
    n_per_class=st.integers(5, 30),
    num_classes=st.integers(2, 10),
    num_clients=st.integers(1, 20),
    seed=st.integers(0, 1000),
)
def test_iid_partition_invariants(n_per_class, num_classes, num_clients, seed):
    n = n_per_class * num_classes
    if n < num_clients:
        return
    labels = balanced_labels(n, num_classes, seed)
    parts = partition_iid(labels, num_clients, rng=seed)
    check_partition(parts, n)


@settings(max_examples=30, deadline=None)
@given(
    num_clients=st.integers(2, 25),
    k=st.integers(1, 6),
    seed=st.integers(0, 1000),
)
def test_noniid_partition_invariants(num_clients, k, seed):
    num_classes = 6
    labels = balanced_labels(num_clients * 24, num_classes, seed)
    parts = partition_noniid_classes(labels, num_clients, k, rng=seed)
    # Full coverage is only possible when there are enough (client, class)
    # slots to hold every class at least once.
    can_cover = num_clients * k >= num_classes
    check_partition(
        parts, labels.size, require_cover=can_cover, allow_empty_clients=True
    )
    assert (classes_per_client(labels, parts, num_classes) <= k).all()


@settings(max_examples=30, deadline=None)
@given(
    per_group=st.integers(1, 8),
    seed=st.integers(0, 1000),
    fractions=st.lists(
        st.floats(0.05, 1.0), min_size=2, max_size=6
    ),
)
def test_quantity_skew_invariants(per_group, seed, fractions):
    fr = np.asarray(fractions)
    fr = fr / fr.sum()
    num_clients = per_group * fr.size
    labels = balanced_labels(max(num_clients * 10, 100), 5, seed)
    parts = partition_quantity_skew(labels, num_clients, tuple(fr), rng=seed)
    check_partition(parts, labels.size, allow_empty_clients=True, require_cover=True)
    # group totals follow the requested fractions
    totals = np.array(
        [
            sum(parts[g * per_group + i].size for i in range(per_group))
            for g in range(fr.size)
        ]
    )
    np.testing.assert_allclose(
        totals / labels.size, fr, atol=2 / labels.size * per_group + 0.02
    )


class TestDirichlet:
    def test_valid_partition(self):
        from repro.data.partition import partition_dirichlet

        labels = balanced_labels(1000, 10)
        parts = partition_dirichlet(labels, 20, alpha=0.5, rng=0)
        check_partition(parts, 1000, allow_empty_clients=True)

    def test_small_alpha_concentrates_classes(self):
        from repro.data.partition import partition_dirichlet

        labels = balanced_labels(2000, 10)
        skewed = partition_dirichlet(labels, 20, alpha=0.05, rng=1)
        near_iid = partition_dirichlet(labels, 20, alpha=100.0, rng=1)
        cpc_skewed = classes_per_client(labels, skewed, 10)
        cpc_iid = classes_per_client(labels, near_iid, 10)
        assert cpc_skewed.mean() < cpc_iid.mean()
        assert cpc_iid.mean() > 9.0  # alpha -> inf approaches IID

    def test_min_samples_topup(self):
        from repro.data.partition import partition_dirichlet

        labels = balanced_labels(500, 5)
        parts = partition_dirichlet(labels, 25, alpha=0.05, min_samples=3, rng=2)
        assert min(p.size for p in parts) >= 3
        check_partition(parts, 500, allow_empty_clients=True)

    def test_deterministic(self):
        from repro.data.partition import partition_dirichlet

        labels = balanced_labels(300, 5)
        a = partition_dirichlet(labels, 10, rng=7)
        b = partition_dirichlet(labels, 10, rng=7)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa, pb)

    def test_validation(self):
        from repro.data.partition import partition_dirichlet

        labels = balanced_labels(100, 5)
        with pytest.raises(ValueError):
            partition_dirichlet(labels, 10, alpha=0.0)
        with pytest.raises(ValueError):
            partition_dirichlet(labels, 10, min_samples=-1)


@settings(max_examples=25, deadline=None)
@given(
    num_clients=st.integers(2, 15),
    alpha=st.floats(0.05, 10.0),
    seed=st.integers(0, 500),
)
def test_dirichlet_partition_invariants(num_clients, alpha, seed):
    from repro.data.partition import partition_dirichlet

    labels = balanced_labels(num_clients * 30, 5, seed)
    parts = partition_dirichlet(labels, num_clients, alpha=alpha, rng=seed)
    check_partition(
        parts, labels.size, require_cover=True, allow_empty_clients=True
    )
