"""Tests for the Eq. 6 estimator and Eq. 7 MAPE."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fl.history import RoundRecord, TrainingHistory
from repro.tifl.estimator import (
    estimate_schedule_time,
    estimate_training_time,
    mape,
    mape_from_history,
)


class TestEq6:
    def test_single_tier(self):
        assert estimate_training_time([2.0], [1.0], 100) == 200.0

    def test_weighted_expectation(self):
        est = estimate_training_time([1.0, 3.0], [0.5, 0.5], 10)
        assert est == pytest.approx(20.0)

    def test_paper_form(self):
        """L_all = sum_i (L_i * P_i) * R, verified symbol by symbol."""
        lats = np.array([0.4, 0.6, 1.0, 1.8, 8.0])
        probs = np.array([0.7, 0.1, 0.1, 0.05, 0.05])
        r = 500
        expected = float((lats * probs).sum() * r)
        assert estimate_training_time(lats, probs, r) == pytest.approx(expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_training_time([1.0], [0.5], 10)  # probs not simplex
        with pytest.raises(ValueError):
            estimate_training_time([1.0, 2.0], [1.0], 10)  # shape mismatch
        with pytest.raises(ValueError):
            estimate_training_time([-1.0], [1.0], 10)
        with pytest.raises(ValueError):
            estimate_training_time([1.0], [1.0], 0)

    @pytest.mark.parametrize("lats, probs", [([], []), ([[1.0]], [[1.0]])], ids=["empty", "2-d"])
    def test_rejects_non_vectors_by_shape(self, lats, probs):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            estimate_training_time(lats, probs, 10)

    def test_zero_latency_tier_is_allowed(self):
        assert estimate_training_time([0.0, 2.0], [0.5, 0.5], 4) == 4.0


class TestScheduleEstimate:
    def test_piecewise_sums(self):
        lats = [1.0, 2.0]
        est = estimate_schedule_time(
            lats, [[1.0, 0.0], [0.0, 1.0]], [10, 5]
        )
        assert est == pytest.approx(10 * 1.0 + 5 * 2.0)

    def test_single_segment_matches_eq6(self):
        lats = [1.0, 4.0]
        probs = [0.25, 0.75]
        np.testing.assert_allclose(
            estimate_schedule_time(lats, [probs], [20]),
            estimate_training_time(lats, probs, 20),
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="length"):
            estimate_schedule_time([1.0], [[1.0]], [1, 2])
        with pytest.raises(ValueError, match="non-empty"):
            estimate_schedule_time([1.0], [], [])


class TestMape:
    def test_exact_is_zero(self):
        assert mape(100.0, 100.0) == 0.0

    def test_known_value(self):
        assert mape(110.0, 100.0) == pytest.approx(10.0)
        assert mape(90.0, 100.0) == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            mape(10.0, 0.0)
        with pytest.raises(ValueError):
            mape(-1.0, 10.0)

    def test_zero_estimate_is_a_full_miss(self):
        assert mape(0.0, 10.0) == 100.0

    def test_sub_unit_actual_time_is_allowed(self):
        assert mape(0.75, 0.5) == pytest.approx(50.0)


class TestMapeFromHistory:
    def test_deterministic_history_gives_zero(self):
        """A run whose rounds cost exactly the expected latency has MAPE 0."""
        lats = [2.0, 4.0]
        probs = [0.5, 0.5]
        h = TrainingHistory()
        t = 0.0
        for r in range(10):
            # alternate tiers deterministically at the expected frequency
            lat = lats[r % 2]
            t += lat
            h.append(
                RoundRecord(
                    round_idx=r, round_latency=lat, sim_time=t,
                    accuracy=None, selected=(0,),
                )
            )
        assert mape_from_history(lats, probs, h) == pytest.approx(0.0, abs=1e-9)

    def test_one_round_history(self):
        record = RoundRecord(
            round_idx=0, round_latency=3.0, sim_time=3.0, accuracy=None, selected=(0,)
        )
        h = TrainingHistory()
        h.append(record)
        assert mape_from_history([2.0], [1.0], h) == pytest.approx(100 / 3)

    def test_empty_history_raises(self):
        with pytest.raises(ValueError):
            mape_from_history([1.0], [1.0], TrainingHistory())


@settings(max_examples=40, deadline=None)
@given(
    lats=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=6),
    seed=st.integers(0, 1000),
    rounds=st.integers(1, 500),
)
def test_estimator_bounds_property(lats, seed, rounds):
    """Eq. 6 lies between rounds*min(lat) and rounds*max(lat)."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.01, 1.0, size=len(lats))
    probs = raw / raw.sum()
    est = estimate_training_time(lats, probs, rounds)
    assert rounds * min(lats) - 1e-9 <= est <= rounds * max(lats) + 1e-9
