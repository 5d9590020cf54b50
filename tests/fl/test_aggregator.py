"""Tests for FedAvg aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fl.aggregator import fedavg


class TestFedAvg:
    def test_equal_sizes_is_mean(self, rng):
        ws = [rng.standard_normal(5) for _ in range(4)]
        out = fedavg(ws, [10, 10, 10, 10])
        np.testing.assert_allclose(out, np.mean(ws, axis=0))

    def test_weighted_mean(self):
        out = fedavg([np.zeros(2), np.ones(2)], [1, 3])
        np.testing.assert_allclose(out, 0.75)

    def test_single_client_identity(self, rng):
        w = rng.standard_normal(7)
        np.testing.assert_array_equal(fedavg([w], [5]), w)

    def test_alg1_line8_formula(self, rng):
        """Exact check of w = sum(w_c s_c) / sum(s_c)."""
        ws = [rng.standard_normal(6) for _ in range(3)]
        s = [2.0, 5.0, 3.0]
        expected = sum(w * si for w, si in zip(ws, s)) / sum(s)
        np.testing.assert_allclose(fedavg(ws, s), expected)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="at least one"):
            fedavg([], [])

    def test_length_mismatch_raises(self, rng):
        with pytest.raises(ValueError, match="sizes"):
            fedavg([rng.standard_normal(3)], [1, 2])

    def test_zero_total_raises(self, rng):
        with pytest.raises(ValueError, match="positive"):
            fedavg([rng.standard_normal(3)], [0])

    def test_negative_size_raises(self, rng):
        with pytest.raises(ValueError, match="non-negative"):
            fedavg([rng.standard_normal(3), rng.standard_normal(3)], [1, -1])

    @pytest.mark.parametrize("sizes", [[np.nan], [np.inf, 1.0], [1.0, -np.inf], [2.0, np.nan]])
    def test_non_finite_size_raises(self, rng, sizes):
        ws = [rng.standard_normal(3) for _ in sizes]
        with pytest.raises(ValueError, match="finite"):
            fedavg(ws, sizes)


# ---------------------------------------------------------------------------
# property-based invariants
# ---------------------------------------------------------------------------
finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.lists(finite, min_size=3, max_size=3), st.integers(1, 100)),
        min_size=1,
        max_size=8,
    )
)
def test_fedavg_convexity_property(data):
    """FedAvg output is a convex combination: bounded by min/max per coord."""
    ws = [np.asarray(w) for w, _ in data]
    sizes = [float(s) for _, s in data]
    out = fedavg(ws, sizes)
    stacked = np.stack(ws)
    assert np.all(out >= stacked.min(axis=0) - 1e-9)
    assert np.all(out <= stacked.max(axis=0) + 1e-9)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), scale=st.floats(0.1, 10.0))
def test_fedavg_size_scale_invariance(seed, scale):
    """Multiplying all sizes by a constant leaves the average unchanged."""
    rng = np.random.default_rng(seed)
    ws = [rng.standard_normal(5) for _ in range(4)]
    sizes = rng.integers(1, 20, size=4).astype(float)
    np.testing.assert_allclose(
        fedavg(ws, sizes), fedavg(ws, sizes * scale), rtol=1e-10
    )
