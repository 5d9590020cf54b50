"""Tests for credit allocation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tifl.credits import allocate_credits


class TestEqual:
    def test_sums_exceed_budget(self):
        credits = allocate_credits(5, 100, strategy="equal", slack=1.25)
        assert credits.sum() >= 125

    def test_equal_per_tier(self):
        credits = allocate_credits(4, 80, strategy="equal")
        assert len(set(credits.tolist())) == 1


class TestSpeedWeighted:
    def test_faster_tiers_get_more(self):
        lats = [0.5, 1.0, 2.0, 4.0, 8.0]
        credits = allocate_credits(
            5, 100, strategy="speed_weighted", tier_latencies=lats
        )
        assert np.all(np.diff(credits) <= 0)
        assert credits[0] > credits[-1]

    def test_sums_exceed_budget(self):
        credits = allocate_credits(
            3, 60, strategy="speed_weighted", tier_latencies=[1.0, 2.0, 3.0]
        )
        assert credits.sum() >= 60

    def test_min_credits_floor(self):
        credits = allocate_credits(
            3,
            10,
            strategy="speed_weighted",
            tier_latencies=[0.01, 1.0, 100.0],
            min_credits=2,
        )
        assert credits.min() >= 2

    def test_requires_latencies(self):
        with pytest.raises(ValueError, match="tier_latencies"):
            allocate_credits(3, 10, strategy="speed_weighted")

    def test_latency_shape_checked(self):
        with pytest.raises(ValueError):
            allocate_credits(3, 10, strategy="speed_weighted", tier_latencies=[1.0])

    def test_nonpositive_latency_rejected(self):
        with pytest.raises(ValueError):
            allocate_credits(
                2, 10, strategy="speed_weighted", tier_latencies=[0.0, 1.0]
            )


class TestValidation:
    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            allocate_credits(3, 10, strategy="roulette")

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            allocate_credits(0, 10)
        with pytest.raises(ValueError):
            allocate_credits(3, 0)
        with pytest.raises(ValueError):
            allocate_credits(3, 10, slack=0.0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"num_tiers": 0}, "num_tiers"),
            ({"total_rounds": 0}, "total_rounds"),
            ({"slack": 0.0}, "slack"),
            ({"min_credits": -1}, "min_credits"),
        ],
    )
    def test_each_boundary_is_refused_by_name(self, kwargs, message):
        """Each guard refuses its own boundary value.  ``equal`` needs no
        latencies, so no other check can raise first."""
        args = {"num_tiers": 3, "total_rounds": 10, "strategy": "equal", **kwargs}
        with pytest.raises(ValueError, match=message):
            allocate_credits(**args)

    def test_zero_min_credits_is_allowed(self):
        """``min_credits`` is a non-negative floor: 0 means "no floor"."""
        credits = allocate_credits(2, 4, strategy="equal", min_credits=0)
        np.testing.assert_array_equal(credits, [3, 3])


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 10),
    rounds=st.integers(1, 2000),
    slack=st.floats(1.0, 3.0),
    seed=st.integers(0, 100),
)
def test_credit_budget_property(m, rounds, slack, seed):
    """Total credits always cover slack * rounds (no starvation by design)."""
    rng = np.random.default_rng(seed)
    lats = rng.uniform(0.1, 10.0, size=m)
    for strategy in ("equal", "speed_weighted"):
        credits = allocate_credits(
            m, rounds, strategy=strategy, tier_latencies=lats, slack=slack
        )
        assert credits.sum() >= int(np.floor(slack * rounds))
        assert np.all(credits >= 1)
