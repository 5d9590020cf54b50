"""Tests for secure aggregation (pairwise additive masking)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fl.aggregator import fedavg
from repro.fl.secure_agg import PairwiseMasker, SecureAggregator


class TestPairwiseMasker:
    def test_pair_mask_symmetric(self):
        m = PairwiseMasker(round_seed=7, dim=10)
        np.testing.assert_array_equal(m.pair_mask(2, 5), m.pair_mask(5, 2))

    def test_pair_mask_distinct_pairs(self):
        m = PairwiseMasker(round_seed=7, dim=10)
        assert not np.array_equal(m.pair_mask(0, 1), m.pair_mask(0, 2))

    def test_fresh_per_round(self):
        a = PairwiseMasker(round_seed=1, dim=5)
        b = PairwiseMasker(round_seed=2, dim=5)
        assert not np.array_equal(a.pair_mask(0, 1), b.pair_mask(0, 1))

    def test_self_mask_rejected(self):
        m = PairwiseMasker(round_seed=0, dim=3)
        with pytest.raises(ValueError):
            m.pair_mask(1, 1)

    def test_net_masks_cancel(self):
        """Sum of all clients' net masks is exactly zero."""
        m = PairwiseMasker(round_seed=11, dim=20)
        cohort = [3, 7, 1, 9]
        total = sum(m.client_mask(c, cohort) for c in cohort)
        np.testing.assert_allclose(total, 0.0, atol=1e-12)

    def test_client_must_be_in_cohort(self):
        m = PairwiseMasker(round_seed=0, dim=3)
        with pytest.raises(ValueError, match="cohort"):
            m.client_mask(5, [0, 1])

    def test_validation(self):
        with pytest.raises(ValueError):
            PairwiseMasker(0, dim=0)
        with pytest.raises(ValueError):
            PairwiseMasker(0, dim=3, mask_scale=0.0)


class TestSecureAggregator:
    def test_matches_fedavg(self, rng):
        ws = [rng.standard_normal(30) for _ in range(5)]
        sizes = [3.0, 7.0, 1.0, 5.0, 4.0]
        secure = SecureAggregator(rng=0).aggregate(ws, sizes)
        plain = fedavg(ws, sizes)
        np.testing.assert_allclose(secure, plain, atol=1e-8)

    def test_single_client(self, rng):
        w = rng.standard_normal(8)
        out = SecureAggregator(rng=0).aggregate([w], [2.0])
        np.testing.assert_allclose(out, w, atol=1e-10)

    def test_round_counter(self, rng):
        agg = SecureAggregator(rng=0)
        ws = [rng.standard_normal(4) for _ in range(2)]
        agg.aggregate(ws, [1, 1])
        agg.aggregate(ws, [1, 1])
        assert agg.rounds_aggregated == 2

    def test_validation(self):
        agg = SecureAggregator(rng=0)
        with pytest.raises(ValueError):
            agg.aggregate([], [])
        with pytest.raises(ValueError):
            agg.aggregate([np.zeros(2)], [1, 2])
        with pytest.raises(ValueError):
            agg.aggregate([np.zeros(2)], [0])

    def test_wire_message_hides_update(self, rng):
        """A single masked submission is nearly uncorrelated with the
        client's true update when masks dominate."""
        dim = 400
        masker = PairwiseMasker(round_seed=3, dim=dim, mask_scale=100.0)
        cohort = list(range(6))
        updates = {c: rng.standard_normal(dim) for c in cohort}
        corr = SecureAggregator.leaks_individual_update(
            masker, cohort, updates, client=2
        )
        assert corr < 0.2

    def test_server_in_fl_loop(self):
        """SecureAggregator plugs into FLServer via the aggregator hook."""
        from repro.config import TrainingConfig
        from repro.fl.selection import RandomSelector
        from repro.fl.server import FLServer
        from repro.nn import build_linear
        from tests.conftest import make_test_population, make_tiny_dataset

        clients = make_test_population(4)
        server = FLServer(
            clients=clients,
            model=build_linear((4, 4, 1), 3, rng=0),
            selector=RandomSelector(2, rng=0),
            test_data=make_tiny_dataset(n=20, seed=5),
            training=TrainingConfig(optimizer="sgd", lr=0.1, lr_decay=1.0),
            aggregator=SecureAggregator(rng=1),
            rng=0,
        )
        history = server.run(3)
        assert len(history) == 3


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 8),
    dim=st.integers(1, 50),
    seed=st.integers(0, 10_000),
)
def test_secure_equals_plain_fedavg_property(n, dim, seed):
    """Mask cancellation is exact for arbitrary cohort sizes and dims."""
    rng = np.random.default_rng(seed)
    ws = [rng.standard_normal(dim) for _ in range(n)]
    sizes = rng.integers(1, 20, size=n).astype(float)
    secure = SecureAggregator(rng=seed).aggregate(ws, sizes)
    np.testing.assert_allclose(secure, fedavg(ws, sizes), atol=1e-7)
