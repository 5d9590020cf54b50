"""Tests for Table 1 static policies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tifl.policies import (
    CIFAR_POLICIES,
    MNIST_POLICIES,
    StaticTierPolicy,
    resize_probs,
    static_policy_probs,
    validate_probs,
)


class TestTable1Presets:
    def test_all_presets_on_simplex(self):
        for family in (CIFAR_POLICIES, MNIST_POLICIES):
            for name, probs in family.items():
                p = validate_probs(probs)
                assert p.size == 5

    def test_cifar_values_match_paper(self):
        np.testing.assert_allclose(
            static_policy_probs("random"), [0.7, 0.1, 0.1, 0.05, 0.05]
        )
        np.testing.assert_allclose(static_policy_probs("fast"), [1, 0, 0, 0, 0])
        np.testing.assert_allclose(static_policy_probs("slow"), [0, 0, 0, 0, 1])
        np.testing.assert_allclose(static_policy_probs("uniform"), [0.2] * 5)

    def test_mnist_fast_sweep_matches_paper(self):
        np.testing.assert_allclose(
            static_policy_probs("fast1", "mnist"), [0.225] * 4 + [0.1]
        )
        np.testing.assert_allclose(
            static_policy_probs("fast2", "mnist"), [0.2375] * 4 + [0.05]
        )
        np.testing.assert_allclose(
            static_policy_probs("fast3", "mnist"), [0.25] * 4 + [0.0]
        )

    def test_fast_sweep_monotone_starvation(self):
        """fast1 -> fast3 progressively starves the slowest tier."""
        tails = [
            static_policy_probs(n, "mnist")[-1] for n in ("fast1", "fast2", "fast3")
        ]
        assert tails == sorted(tails, reverse=True)

    def test_unknown_lookups(self):
        with pytest.raises(KeyError, match="unknown policy"):
            static_policy_probs("warp", "cifar")
        with pytest.raises(KeyError, match="family"):
            static_policy_probs("fast", "imagenet")
        with pytest.raises(KeyError):
            static_policy_probs("vanilla")  # deliberately not a tier policy


class TestValidation:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            validate_probs([0.5, 0.6, -0.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            validate_probs([0.5, 0.4])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            validate_probs([])

    @pytest.mark.parametrize("probs", [[], [[0.5, 0.5]]], ids=["empty", "2-d"])
    def test_rejects_non_vectors_by_shape(self, probs):
        """A 2-D table on the simplex is refused for its shape, not passed."""
        with pytest.raises(ValueError, match="non-empty 1-D"):
            validate_probs(probs)


class TestResize:
    def test_identity_when_matching(self):
        p = static_policy_probs("random")
        np.testing.assert_array_equal(resize_probs(p, 5), p)

    def test_result_on_simplex(self):
        for m in (1, 2, 3, 4, 7, 10):
            q = resize_probs(static_policy_probs("random"), m)
            assert q.size == m
            assert np.all(q >= 0)
            np.testing.assert_allclose(q.sum(), 1.0)

    def test_fast_stays_front_loaded(self):
        q = resize_probs(static_policy_probs("fast"), 3)
        assert q.argmax() == 0

    def test_slow_stays_back_loaded(self):
        q = resize_probs(static_policy_probs("slow"), 3)
        assert q.argmax() == 2

    def test_zero_tiers_refused(self):
        with pytest.raises(ValueError, match="num_tiers"):
            resize_probs(static_policy_probs("uniform"), 0)

    def test_unrepresentable_mass_falls_back_to_uniform(self):
        """[0, 1, 0] sampled at two points sees only the zero endpoints."""
        np.testing.assert_array_equal(resize_probs([0.0, 1.0, 0.0], 2), [0.5, 0.5])


class TestStaticTierPolicy:
    def test_samples_follow_probs(self, rng):
        pol = StaticTierPolicy([0.5, 0.5, 0.0])
        eligible = np.array([True, True, True])
        draws = [pol.choose_tier(r, eligible, rng) for r in range(2000)]
        counts = np.bincount(draws, minlength=3)
        assert counts[2] == 0
        assert abs(counts[0] - counts[1]) < 250

    def test_ineligible_tiers_masked(self, rng):
        pol = StaticTierPolicy([0.9, 0.1])
        eligible = np.array([False, True])
        draws = {pol.choose_tier(r, eligible, rng) for r in range(50)}
        assert draws == {1}

    def test_zero_mass_on_eligible_falls_back_uniform(self, rng):
        pol = StaticTierPolicy([1.0, 0.0, 0.0])
        eligible = np.array([False, True, True])
        draws = {pol.choose_tier(r, eligible, rng) for r in range(100)}
        assert draws == {1, 2}

    def test_no_eligible_raises(self, rng):
        pol = StaticTierPolicy([1.0])
        with pytest.raises(RuntimeError, match="eligible"):
            pol.choose_tier(0, np.array([False]), rng)

    def test_mask_shape_checked(self, rng):
        pol = StaticTierPolicy([0.5, 0.5])
        with pytest.raises(ValueError, match="size"):
            pol.choose_tier(0, np.array([True]), rng)

    def test_from_name_defaults_to_the_papers_five_tiers(self):
        pol = StaticTierPolicy.from_name("random")
        np.testing.assert_array_equal(pol.probs, static_policy_probs("random"))

    def test_from_name_resizes(self):
        pol = StaticTierPolicy.from_name("fast", num_tiers=3)
        assert pol.num_tiers == 3
        assert pol.name == "fast"

    def test_tier_probs_exposed(self):
        pol = StaticTierPolicy([0.3, 0.7])
        np.testing.assert_allclose(pol.tier_probs(0), [0.3, 0.7])


@settings(max_examples=40, deadline=None)
@given(
    raw=st.lists(st.floats(0.0, 10.0), min_size=2, max_size=8).filter(
        lambda v: sum(v) > 0
    ),
    m=st.integers(1, 10),
)
def test_resize_preserves_simplex_property(raw, m):
    p = np.asarray(raw) / np.sum(raw)
    q = resize_probs(p, m)
    assert q.size == m
    assert np.all(q >= -1e-12)
    np.testing.assert_allclose(q.sum(), 1.0, atol=1e-9)
