"""Unit + property tests for the tiering algorithm."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tifl.tiering import TierAssignment, build_tiers


def five_group_latencies(per_group=10, seed=0):
    """``(ids, latencies)`` columns mimicking the paper's 5 CPU groups."""
    rng = np.random.default_rng(seed)
    lats = [
        base * float(rng.uniform(0.95, 1.05))
        for base in (0.4, 0.6, 1.0, 1.8, 8.0)
        for _ in range(per_group)
    ]
    return np.arange(len(lats)), np.array(lats)


class TestBuildTiers:
    def test_five_groups_give_five_tiers(self):
        asg = build_tiers(*five_group_latencies(), num_tiers=5)
        assert asg.num_tiers == 5
        np.testing.assert_array_equal(asg.sizes, [10] * 5)

    def test_default_is_the_papers_five_tiers(self):
        asg = build_tiers(*five_group_latencies())
        assert asg.num_tiers == 5

    def test_mean_latencies_increasing(self):
        asg = build_tiers(*five_group_latencies(), num_tiers=5)
        means = asg.mean_latencies
        assert np.all(np.diff(means) > 0)

    def test_every_client_in_exactly_one_tier(self):
        ids, lats = five_group_latencies()
        asg = build_tiers(ids, lats, num_tiers=5)
        seen = [c for t in asg.tiers for c in t.client_ids.tolist()]
        assert sorted(seen) == ids.tolist()

    def test_tier_of_lookup(self):
        ids, lats = five_group_latencies()
        asg = build_tiers(ids, lats, num_tiers=5)
        # the fastest client is in tier 0, the slowest in the last tier
        fastest = ids[np.argmin(lats)]
        slowest = ids[np.argmax(lats)]
        assert asg.tier_of(fastest) == 0
        assert asg.tier_of(slowest) == asg.num_tiers - 1

    def test_unknown_client_raises(self):
        asg = build_tiers([0, 1], [1.0, 2.0], num_tiers=2)
        with pytest.raises(KeyError):
            asg.tier_of(42)

    def test_identical_latencies_single_tier(self):
        asg = build_tiers(np.arange(8), np.ones(8), num_tiers=5)
        assert asg.num_tiers == 1
        assert asg.tiers[0].size == 8

    def test_latencies_equal_to_rounding_are_one_tier(self):
        """The single-tier test tolerates float noise (``np.isclose``), so
        profiled latencies a few ULPs apart do not split into tiers."""
        asg = build_tiers([0, 1, 2, 3], [1.0, 1.0 + 1e-12, 1.0, 1.0 + 2e-12], 3)
        assert asg.num_tiers == 1
        assert asg.tiers[0].size == 4

    def test_single_tier_is_tier_zero(self):
        asg = build_tiers(np.arange(4), np.full(4, 2.0), num_tiers=3)
        assert asg.tiers[0].index == 0
        assert asg.tier_of(3) == 0

    def test_zero_latency_clients_are_tiered(self):
        asg = build_tiers([0, 1, 2], [0.0, 0.0, 5.0], 2, method="width")
        assert asg.members(0).tolist() == [0, 1]

    def test_width_bins_split_the_range_evenly(self):
        """Edges [0, 1.5, 3]: two bins of equal width, two clients each."""
        asg = build_tiers([0, 1, 2, 3], [0.0, 1.0, 2.0, 3.0], 2, method="width")
        assert [t.client_ids.tolist() for t in asg.tiers] == [[0, 1], [2, 3]]

    def test_fewer_clients_than_tiers(self):
        asg = build_tiers([0, 1], [1.0, 5.0], num_tiers=5)
        assert 1 <= asg.num_tiers <= 2

    def test_width_method_collapses_skewed(self):
        """Equal-width on a heavy-tailed spread yields fewer tiers --
        the documented reason quantile is the default."""
        ids, lats = five_group_latencies()
        wide = build_tiers(ids, lats, num_tiers=5, method="width")
        quant = build_tiers(ids, lats, num_tiers=5, method="quantile")
        assert quant.num_tiers >= wide.num_tiers

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            build_tiers([], [], num_tiers=3)
        with pytest.raises(ValueError):
            build_tiers([0], [1.0], num_tiers=0)
        with pytest.raises(ValueError):
            build_tiers([0], [float("inf")], num_tiers=2)
        with pytest.raises(ValueError):
            # needs >= 2 distinct latencies: degenerate inputs short-circuit
            # to a single tier before the method is consulted
            build_tiers([0, 1], [1.0, 2.0], num_tiers=2, method="kmeans")
        with pytest.raises(ValueError, match="aligned"):
            build_tiers([0, 1], [1.0], num_tiers=2)
        with pytest.raises(ValueError, match="once"):
            build_tiers([0, 1, 0], [1.0, 2.0, 3.0], num_tiers=2)

    def test_describe_renders(self):
        asg = build_tiers(*five_group_latencies(), num_tiers=5)
        text = asg.describe()
        assert "tier" in text and len(text.splitlines()) == 6


class TestTierAssignment:
    def test_duplicate_client_rejected(self):
        from repro.tifl.tiering import Tier

        t0 = Tier(0, (1, 2), 1.0, 0.9, 1.1)
        t1 = Tier(1, (2, 3), 2.0, 1.9, 2.1)
        with pytest.raises(ValueError, match="multiple"):
            TierAssignment(tiers=[t0, t1])

    def test_decreasing_means_rejected(self):
        from repro.tifl.tiering import Tier

        t0 = Tier(0, (1,), 2.0, 2.0, 2.0)
        t1 = Tier(1, (2,), 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="non-decreasing"):
            TierAssignment(tiers=[t0, t1])

    def test_equal_means_are_accepted(self):
        from repro.tifl.tiering import Tier

        t0 = Tier(0, (1,), 2.0, 2.0, 2.0)
        t1 = Tier(1, (2,), 2.0, 2.0, 2.0)
        assert TierAssignment(tiers=[t0, t1]).num_tiers == 2

    def test_members(self):
        # width split: edges [1, 5, 9] put the two fast clients in tier 0
        asg = build_tiers([0, 1, 2], [1.0, 1.1, 9.0], num_tiers=2, method="width")
        assert asg.members(asg.num_tiers - 1).tolist() == [2]

    def test_client_in_two_tiers_rejected_anywhere(self):
        from repro.tifl.tiering import Tier

        tiers = [
            Tier(0, [1, 4, 9], 1.0, 0.9, 1.1),
            Tier(1, [2, 3], 2.0, 1.9, 2.1),
            Tier(2, [0, 9, 12], 3.0, 2.9, 3.1),
        ]
        with pytest.raises(ValueError, match="client 9 assigned to multiple"):
            TierAssignment(tiers=tiers)

    def test_tier_ids_must_ascend(self):
        from repro.tifl.tiering import Tier

        with pytest.raises(ValueError, match="ascending"):
            Tier(0, [3, 1], 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="ascending"):
            Tier(0, [1, 1], 1.0, 1.0, 1.0)


class TestColumns:
    def test_tier_arrays_are_read_only(self):
        asg = build_tiers(*five_group_latencies(), num_tiers=5)
        for arr in [t.client_ids for t in asg.tiers] + [asg.ids, asg.tier]:
            assert arr.dtype == np.int64 and not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 7
        # a sequence handed to Tier is converted, never aliased
        mine = np.array([1, 2, 3])
        from repro.tifl.tiering import Tier

        tier = Tier(0, mine, 1.0, 1.0, 1.0)
        mine[0] = 0
        assert tier.client_ids.tolist() == [1, 2, 3]

    def test_tiers_compare_by_identity(self):
        from repro.tifl.tiering import Tier

        a, b = (Tier(0, [1, 2], 1.0, 1.0, 1.0) for _ in range(2))
        assert a == a and a != b
        assert len({a, b}) == 2

    def test_columns_follow_the_tiers(self):
        ids, lats = five_group_latencies()
        asg = build_tiers(ids, lats, num_tiers=5)
        np.testing.assert_array_equal(asg.ids, ids)
        for t in asg.tiers:
            assert np.all(np.diff(t.client_ids) > 0)
            assert [asg.tier_of(c) for c in t.client_ids.tolist()] == [t.index] * t.size
            np.testing.assert_array_equal(asg.tier[np.searchsorted(asg.ids, t.client_ids)], t.index)

    def test_input_order_does_not_matter(self):
        ids, lats = five_group_latencies()
        order = np.random.default_rng(3).permutation(ids.size)
        ref = build_tiers(ids, lats, num_tiers=5)
        got = build_tiers(ids[order] + 100, lats[order], num_tiers=5)
        for a, b in zip(ref.tiers, got.tiers):
            np.testing.assert_array_equal(a.client_ids + 100, b.client_ids)
            assert (a.mean_latency, a.min_latency, a.max_latency) == (
                b.mean_latency, b.min_latency, b.max_latency
            )

    def test_tier_of_unknown_and_dropout_ids_raise(self):
        from repro.tifl.profiler import profile_clients
        from tests.conftest import DropoutInjector, make_test_population

        store = make_test_population(6, cpus=[4.0, 2.0, 1.0, 0.5, 0.25, 0.1])
        result = profile_clients(store, 100, fault=DropoutInjector(always_drop={2}))
        asg = build_tiers(result.client_ids, result.mean_latencies, num_tiers=2)
        assert result.dropouts.tolist() == [2]
        for cid in (2, -1, 6, 10**12):
            with pytest.raises(KeyError):
                asg.tier_of(cid)
        assert [asg.tier_of(c) for c in (0, 1, 3, 4, 5)] == [0, 0, 1, 1, 1]


# ---------------------------------------------------------------------------
# property-based invariants
# ---------------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(
    lats=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=60),
    m=st.integers(1, 8),
    method=st.sampled_from(["width", "quantile"]),
)
def test_tiering_invariants_property(lats, m, method):
    ids = np.arange(len(lats))
    asg = build_tiers(ids, lats, num_tiers=m, method=method)
    # partition: every client in exactly one tier
    seen = sorted(c for t in asg.tiers for c in t.client_ids.tolist())
    assert seen == ids.tolist()
    # at most m tiers, means non-decreasing
    assert 1 <= asg.num_tiers <= m
    means = asg.mean_latencies
    assert np.all(np.diff(means) >= -1e-12)
    # within-tier latency ranges do not cross tier ordering
    for a, b in zip(asg.tiers, asg.tiers[1:]):
        assert a.max_latency <= b.min_latency + 1e-9


@settings(max_examples=30, deadline=None)
@given(
    per_group=st.integers(1, 10),
    seed=st.integers(0, 500),
)
def test_quantile_recovers_separated_groups(per_group, seed):
    """Well-separated latency groups are recovered exactly by quantile split."""
    ids, lats = five_group_latencies(per_group=per_group, seed=seed)
    asg = build_tiers(ids, lats, num_tiers=5, method="quantile")
    assert asg.num_tiers == 5
    np.testing.assert_array_equal(asg.sizes, [per_group] * 5)
