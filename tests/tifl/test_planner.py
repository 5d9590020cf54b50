"""Tests for the LP-based tier-probability planner."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tifl.estimator import estimate_training_time
from repro.tifl.planner import min_budget_for_fairness, plan_fairest_probs

LATS = [0.3, 0.5, 0.9, 1.7, 8.0]
ROUNDS = 100


class TestPlanFairest:
    def test_loose_budget_gives_uniform(self):
        budget = estimate_training_time(LATS, [0.2] * 5, ROUNDS) * 2
        plan = plan_fairest_probs(LATS, ROUNDS, budget)
        assert plan.feasible
        np.testing.assert_allclose(plan.probs, 0.2, atol=1e-6)
        assert plan.min_tier_prob == pytest.approx(0.2, abs=1e-6)

    def test_budget_constraint_respected(self):
        uniform_cost = estimate_training_time(LATS, [0.2] * 5, ROUNDS)
        budget = uniform_cost * 0.5
        plan = plan_fairest_probs(LATS, ROUNDS, budget)
        assert plan.feasible
        assert plan.expected_time <= budget * (1 + 1e-6)
        np.testing.assert_allclose(plan.probs.sum(), 1.0)

    def test_tight_budget_starves_slow_tiers_first(self):
        budget = estimate_training_time(LATS, [0.2] * 5, ROUNDS) * 0.4
        plan = plan_fairest_probs(LATS, ROUNDS, budget)
        # slowest tier gets the minimum probability of all tiers
        assert plan.probs[-1] == pytest.approx(plan.probs.min(), abs=1e-9)
        assert plan.probs[0] >= plan.probs[-1]

    def test_infeasible_budget_falls_back_to_fastest(self):
        plan = plan_fairest_probs(LATS, ROUNDS, time_budget=1.0)
        assert not plan.feasible
        assert plan.probs[0] == 1.0

    def test_maximin_optimality(self):
        """No feasible policy has a larger minimum probability."""
        budget = estimate_training_time(LATS, [0.2] * 5, ROUNDS) * 0.6
        plan = plan_fairest_probs(LATS, ROUNDS, budget)
        rng = np.random.default_rng(0)
        for _ in range(200):
            q = rng.dirichlet(np.ones(5))
            if estimate_training_time(LATS, q, ROUNDS) <= budget:
                assert q.min() <= plan.min_tier_prob + 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_fairest_probs([], ROUNDS, 10.0)
        with pytest.raises(ValueError):
            plan_fairest_probs(LATS, 0, 10.0)
        with pytest.raises(ValueError):
            plan_fairest_probs(LATS, ROUNDS, 0.0)
        with pytest.raises(ValueError):
            plan_fairest_probs([1.0, -1.0], ROUNDS, 10.0)


class TestMinBudget:
    def test_floor_respected(self):
        plan = min_budget_for_fairness(LATS, ROUNDS, min_tier_prob=0.05)
        assert plan.probs.min() >= 0.05 - 1e-9
        np.testing.assert_allclose(plan.probs.sum(), 1.0)

    def test_residual_mass_on_fastest(self):
        plan = min_budget_for_fairness(LATS, ROUNDS, min_tier_prob=0.05)
        assert plan.probs.argmax() == 0
        np.testing.assert_allclose(plan.probs[1:], 0.05, atol=1e-9)

    def test_uniform_floor_is_uniform(self):
        plan = min_budget_for_fairness(LATS, ROUNDS, min_tier_prob=0.2)
        np.testing.assert_allclose(plan.probs, 0.2, atol=1e-9)

    def test_zero_floor_is_fastest_only(self):
        plan = min_budget_for_fairness(LATS, ROUNDS, min_tier_prob=0.0)
        assert plan.probs[0] == pytest.approx(1.0)
        assert plan.expected_time == pytest.approx(ROUNDS * LATS[0])

    def test_floor_bounds_checked(self):
        with pytest.raises(ValueError):
            min_budget_for_fairness(LATS, ROUNDS, min_tier_prob=0.5)


class TestDuality:
    def test_round_trip_consistency(self):
        """plan(budget(floor)) recovers at least the floor."""
        floor = 0.08
        budget_plan = min_budget_for_fairness(LATS, ROUNDS, floor)
        fair_plan = plan_fairest_probs(LATS, ROUNDS, budget_plan.expected_time * 1.001)
        assert fair_plan.min_tier_prob >= floor - 1e-6


@settings(max_examples=30, deadline=None)
@given(
    lats=st.lists(st.floats(0.1, 50.0), min_size=2, max_size=8),
    scale=st.floats(0.2, 3.0),
    seed=st.integers(0, 100),
)
def test_planner_feasibility_property(lats, scale, seed):
    """Any feasible plan meets its budget and lies on the simplex."""
    budget = estimate_training_time(
        lats, np.full(len(lats), 1.0 / len(lats)), ROUNDS
    ) * scale
    plan = plan_fairest_probs(lats, ROUNDS, budget)
    assert np.all(plan.probs >= -1e-9)
    np.testing.assert_allclose(plan.probs.sum(), 1.0, atol=1e-6)
    if plan.feasible:
        assert plan.expected_time <= budget * (1 + 1e-6)


@pytest.mark.parametrize(
    "call",
    [
        lambda: plan_fairest_probs(LATS, ROUNDS, 1e6),
        lambda: min_budget_for_fairness(LATS, ROUNDS, 0.05),
    ],
    ids=["plan_fairest_probs", "min_budget_for_fairness"],
)
def test_missing_scipy_names_the_extra(monkeypatch, call):
    """scipy is optional (the ``plan`` extra) and imported on first use;
    without it the planner says what to install, not just what is missing."""
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.optimize", None)
    with pytest.raises(ImportError, match=r"tifl-repro\[plan\]"):
        call()
