"""Tests for client selectors."""

import numpy as np
import pytest

from repro.fl.selection import OverSelector, RandomSelector, SelectionPlan


class TestSelectionPlan:
    def test_valid(self):
        plan = SelectionPlan(clients=[1, 2, 3])
        assert plan.keep is None and plan.tier is None

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            SelectionPlan(clients=[])

    def test_duplicates_raise(self):
        with pytest.raises(ValueError, match="duplicate"):
            SelectionPlan(clients=[1, 1])

    def test_keep_bounds(self):
        with pytest.raises(ValueError):
            SelectionPlan(clients=[1, 2], keep=3)
        with pytest.raises(ValueError):
            SelectionPlan(clients=[1, 2], keep=0)

    @pytest.mark.parametrize("keep", [1, 2])
    def test_keep_may_be_one_or_everyone(self, keep):
        assert SelectionPlan(clients=[1, 2], keep=keep).keep == keep


class TestRandomSelector:
    def test_selects_requested_count(self):
        sel = RandomSelector(5, rng=0)
        plan = sel.select(0, list(range(50)))
        assert len(plan.clients) == 5
        assert len(set(plan.clients)) == 5

    def test_only_from_available(self):
        sel = RandomSelector(3, rng=0)
        available = [4, 8, 15, 16, 23, 42]
        for r in range(20):
            plan = sel.select(r, available)
            assert set(plan.clients) <= set(available)

    def test_uniform_coverage(self):
        """Over many rounds every client is picked roughly equally."""
        sel = RandomSelector(5, rng=0)
        counts = np.zeros(20)
        for r in range(2000):
            for c in sel.select(r, list(range(20))).clients:
                counts[c] += 1
        expected = 2000 * 5 / 20
        assert np.all(np.abs(counts - expected) < expected * 0.2)

    def test_pool_too_small_raises(self):
        sel = RandomSelector(5, rng=0)
        with pytest.raises(ValueError):
            sel.select(0, [1, 2])

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            RandomSelector(0)


class TestOverSelector:
    def test_selects_130_percent(self):
        sel = OverSelector(10, over_factor=1.3, rng=0)
        plan = sel.select(0, list(range(100)))
        assert len(plan.clients) == 13
        assert plan.keep == 10

    def test_caps_at_pool_size(self):
        sel = OverSelector(8, over_factor=2.0, rng=0)
        plan = sel.select(0, list(range(10)))
        assert len(plan.clients) == 10
        assert plan.keep == 8

    def test_insufficient_pool_raises(self):
        sel = OverSelector(10, rng=0)
        with pytest.raises(ValueError, match="target"):
            sel.select(0, list(range(5)))

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            OverSelector(5, over_factor=0.9)

    def test_invalid_target(self):
        with pytest.raises(ValueError, match="target"):
            OverSelector(0)

    def test_factor_one_is_plain_selection(self):
        """``over_factor=1`` over-selects nobody: one client, keep one."""
        plan = OverSelector(1, over_factor=1.0, rng=0).select(0, [7])
        assert plan.clients == [7] and plan.keep == 1

    def test_pool_of_exactly_the_target(self):
        plan = OverSelector(5, rng=0).select(0, list(range(5)))
        assert sorted(plan.clients) == list(range(5)) and plan.keep == 5
