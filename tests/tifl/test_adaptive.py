"""Tests for Algorithm 2 (adaptive tier selection)."""

import numpy as np
import pytest

from repro.tifl.adaptive import AdaptiveTierPolicy, default_change_probs


def all_eligible(n=3):
    return np.ones(n, dtype=bool)


class TestChangeProbs:
    def test_lower_accuracy_higher_probability(self):
        probs = default_change_probs(np.array([0.9, 0.5, 0.1]))
        assert probs[2] > probs[1] > probs[0]
        np.testing.assert_allclose(probs.sum(), 1.0)

    def test_monotone_property(self, rng):
        """p_i >= p_j whenever A_i <= A_j (the paper's requirement)."""
        for _ in range(50):
            accs = rng.uniform(0, 1, size=5)
            probs = default_change_probs(accs)
            order_acc = np.argsort(accs)
            order_prob = np.argsort(-probs)
            np.testing.assert_array_equal(order_acc, order_prob)

    def test_all_perfect_falls_back_uniform(self):
        probs = default_change_probs(np.ones(4))
        np.testing.assert_allclose(probs, 0.25)

    def test_gamma_sharpens(self):
        accs = np.array([0.9, 0.1])
        soft = default_change_probs(accs, gamma=1.0)
        sharp = default_change_probs(accs, gamma=3.0)
        assert sharp[1] > soft[1]

    def test_clipping(self):
        probs = default_change_probs(np.array([-0.5, 1.5]))
        np.testing.assert_allclose(probs, [1.0, 0.0])


class TestInitialisation:
    def test_equal_initial_probs(self):
        pol = AdaptiveTierPolicy(4, credits=[10] * 4)
        np.testing.assert_allclose(pol.probs, 0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveTierPolicy(0, credits=[])
        with pytest.raises(ValueError):
            AdaptiveTierPolicy(2, credits=[1])
        with pytest.raises(ValueError):
            AdaptiveTierPolicy(2, credits=[-1, 2])
        with pytest.raises(ValueError):
            AdaptiveTierPolicy(2, credits=[0, 0])
        with pytest.raises(ValueError):
            AdaptiveTierPolicy(2, credits=[1, 1], interval=0)

    @pytest.mark.parametrize(
        "num_tiers, credits, interval, message",
        [
            (0, [], 20, "num_tiers"),
            (-1, [], 20, "num_tiers"),
            (2, [1, 1], 0, "interval"),
        ],
    )
    def test_each_guard_names_its_argument(self, num_tiers, credits, interval, message):
        with pytest.raises(ValueError, match=message):
            AdaptiveTierPolicy(num_tiers, credits=credits, interval=interval)

    def test_smallest_valid_policy(self, rng):
        """One tier and ``interval=1`` are both legal."""
        pol = AdaptiveTierPolicy(1, credits=[1], interval=1)
        assert pol.choose_tier(0, all_eligible(1), rng) == 0


class TestCredits:
    def test_choose_decrements_once(self, rng):
        pol = AdaptiveTierPolicy(2, credits=[5, 5])
        before = pol.credits.copy()
        tier = pol.choose_tier(0, all_eligible(2), rng)
        after = pol.credits
        assert before[tier] - after[tier] == 1
        other = 1 - tier
        assert before[other] == after[other]

    def test_exhausted_tier_not_selected(self, rng):
        pol = AdaptiveTierPolicy(2, credits=[1, 100])
        draws = [pol.choose_tier(r, all_eligible(2), rng) for r in range(50)]
        assert draws.count(0) <= 1

    def test_refill_on_total_exhaustion(self, rng):
        pol = AdaptiveTierPolicy(2, credits=[1, 1])
        for r in range(5):
            pol.choose_tier(r, all_eligible(2), rng)
        assert pol.credit_refills >= 1

    def test_refill_gives_a_zero_credit_tier_one_credit(self, rng):
        """A tier that started with no credits still gets one on refill:
        the only eligible tier is chosen instead of a zero mask."""
        pol = AdaptiveTierPolicy(2, credits=[0, 3])
        assert pol.choose_tier(0, np.array([True, False]), rng) == 0
        assert pol.credit_refills == 1

    def test_refill_adds_the_initial_allocation(self, rng):
        pol = AdaptiveTierPolicy(2, credits=[1, 3])
        only_tier_0 = np.array([True, False])
        pol.choose_tier(0, only_tier_0, rng)
        pol.choose_tier(1, only_tier_0, rng)  # refill: [0, 3] + [1, 3]
        assert pol.credit_refills == 1
        np.testing.assert_array_equal(pol.credits, [0, 6])

    def test_soft_time_bound(self, rng):
        """Credits cap slow-tier participation (the paper's control knob)."""
        pol = AdaptiveTierPolicy(2, credits=[1000, 3])
        draws = [pol.choose_tier(r, all_eligible(2), rng) for r in range(200)]
        assert draws.count(1) <= 3


class TestAccuracyFeedback:
    def test_probs_shift_toward_lagging_tier(self, rng):
        pol = AdaptiveTierPolicy(3, credits=[1000] * 3, interval=5)
        # current tier's accuracy is stagnant -> update triggers at r=5
        for r in range(5):
            pol.choose_tier(r, all_eligible(3), rng)
            pol.record_tier_accuracies(r, {0: 0.9, 1: 0.8, 2: 0.2})
        pol.choose_tier(5, all_eligible(3), rng)
        assert pol.prob_updates >= 1
        assert pol.probs[2] == pol.probs.max()

    def test_no_update_when_improving(self, rng):
        pol = AdaptiveTierPolicy(2, credits=[100] * 2, interval=3)
        acc = 0.1
        for r in range(12):
            pol.choose_tier(r, all_eligible(2), rng)
            acc += 0.05  # strictly improving every round
            pol.record_tier_accuracies(r, {0: acc, 1: acc})
        assert pol.prob_updates == 0

    def test_no_update_before_first_interval(self, rng):
        pol = AdaptiveTierPolicy(2, credits=[100] * 2, interval=10)
        for r in range(9):
            pol.choose_tier(r, all_eligible(2), rng)
            pol.record_tier_accuracies(r, {0: 0.5, 1: 0.5})
        assert pol.prob_updates == 0

    def test_accuracy_log_validation(self):
        pol = AdaptiveTierPolicy(2, credits=[1, 1])
        with pytest.raises(KeyError):
            pol.record_tier_accuracies(0, {5: 0.5})

    @pytest.mark.parametrize("tier", [-1, 2])
    def test_accuracy_for_a_tier_just_out_of_range(self, tier):
        pol = AdaptiveTierPolicy(2, credits=[1, 1])
        with pytest.raises(KeyError, match="out of range"):
            pol.record_tier_accuracies(0, {tier: 0.5})

    def test_default_interval_is_twenty_rounds(self, rng):
        pol = AdaptiveTierPolicy(2, credits=[100] * 2)
        for r in range(20):
            pol.choose_tier(r, all_eligible(2), rng)
            pol.record_tier_accuracies(r, {0: 0.5, 1: 0.5})
        assert pol.prob_updates == 0
        pol.choose_tier(20, all_eligible(2), rng)
        assert pol.prob_updates == 1

    def test_updates_fire_only_on_interval_boundaries(self, rng):
        """Stagnant accuracy over rounds 0-9 with ``I=5``: one update, at
        round 5, not one per round from then on."""
        pol = AdaptiveTierPolicy(2, credits=[100] * 2, interval=5)
        for r in range(10):
            pol.choose_tier(r, all_eligible(2), rng)
            pol.record_tier_accuracies(r, {0: 0.5, 1: 0.5})
        assert pol.prob_updates == 1

    def test_improvement_in_the_last_round_counts(self, rng):
        """``A^r`` is the evaluation at round ``r - 1``: a gain there alone
        is an improvement, so the probabilities stay put."""
        pol = AdaptiveTierPolicy(2, credits=[100] * 2, interval=5)
        for r in range(5):
            pol.choose_tier(r, all_eligible(2), rng)
            acc = 0.9 if r == 4 else 0.5
            pol.record_tier_accuracies(r, {0: acc, 1: acc})
        pol.choose_tier(5, all_eligible(2), rng)
        assert pol.prob_updates == 0

    def test_no_update_without_a_baseline_an_interval_ago(self, rng):
        """Accuracies first logged at round 2: at round 5 there is an
        ``A^r`` but no ``A^{r-I}``, so nothing is compared."""
        pol = AdaptiveTierPolicy(2, credits=[100] * 2, interval=5)
        for r in range(5):
            pol.choose_tier(r, all_eligible(2), rng)
            if r >= 2:
                pol.record_tier_accuracies(r, {0: 0.5, 1: 0.5})
        pol.choose_tier(5, all_eligible(2), rng)
        assert pol.prob_updates == 0

    def test_update_reads_only_rounds_before_the_draw(self, rng):
        """An evaluation logged for the round being drawn is not yet
        ``A^r``: ChangeProbs sees the vector from the round before."""
        seen = []

        def record(accs):
            seen.append(accs.tolist())
            return np.full(2, 0.5)

        pol = AdaptiveTierPolicy(2, credits=[100] * 2, interval=5, change_probs=record)
        for r in range(5):
            pol.choose_tier(r, all_eligible(2), rng)
            pol.record_tier_accuracies(r, {0: 0.5, 1: 0.5})
        pol.record_tier_accuracies(5, {0: 0.2, 1: 0.8})
        pol.choose_tier(5, all_eligible(2), rng)
        assert seen == [[0.5, 0.5]]

    @pytest.mark.parametrize("bad", [[0.5, 0.5, 0.0], [1.5, -0.5]], ids=["wrong-shape", "negative"])
    def test_invalid_change_probs_output_raises(self, rng, bad):
        pol = AdaptiveTierPolicy(
            2, credits=[100] * 2, interval=2, change_probs=lambda a: np.array(bad)
        )
        for r in range(2):
            pol.choose_tier(r, all_eligible(2), rng)
            pol.record_tier_accuracies(r, {0: 0.5, 1: 0.5})
        with pytest.raises(ValueError, match="invalid distribution"):
            pol.choose_tier(2, all_eligible(2), rng)

    def test_all_zero_change_probs_output_keeps_the_old_probs(self, rng):
        pol = AdaptiveTierPolicy(
            2, credits=[100] * 2, interval=2, change_probs=lambda a: np.zeros(2)
        )
        for r in range(3):
            pol.choose_tier(r, all_eligible(2), rng)
            pol.record_tier_accuracies(r, {0: 0.5, 1: 0.5})
        np.testing.assert_array_equal(pol.probs, [0.5, 0.5])
        assert pol.prob_updates == 0

    def test_draws_follow_the_updated_probs(self, rng):
        """After ChangeProbs puts all mass on tier 0, only tier 0 is drawn."""
        pol = AdaptiveTierPolicy(
            2, credits=[100] * 2, interval=2, change_probs=lambda a: np.array([1.0, 0.0])
        )
        draws = []
        for r in range(30):
            draws.append(pol.choose_tier(r, all_eligible(2), rng))
            pol.record_tier_accuracies(r, {0: 0.5, 1: 0.5})
        assert pol.prob_updates >= 1
        assert set(draws[2:]) == {0}

    def test_partial_accuracy_vector_ignored(self, rng):
        """Updates need a full per-tier vector; partial evals are skipped."""
        pol = AdaptiveTierPolicy(3, credits=[100] * 3, interval=2)
        for r in range(8):
            pol.choose_tier(r, all_eligible(3), rng)
            pol.record_tier_accuracies(r, {0: 0.5})  # missing tiers 1, 2
        assert pol.prob_updates == 0


class TestEligibilityInteraction:
    def test_ineligible_tier_never_chosen(self, rng):
        pol = AdaptiveTierPolicy(3, credits=[100] * 3)
        eligible = np.array([True, False, True])
        draws = {pol.choose_tier(r, eligible, rng) for r in range(60)}
        assert 1 not in draws

    def test_no_eligible_raises(self, rng):
        pol = AdaptiveTierPolicy(2, credits=[5, 5])
        with pytest.raises(RuntimeError):
            pol.choose_tier(0, np.zeros(2, dtype=bool), rng)

    def test_mask_shape_checked(self, rng):
        pol = AdaptiveTierPolicy(2, credits=[5, 5])
        with pytest.raises(ValueError):
            pol.choose_tier(0, np.ones(3, dtype=bool), rng)
