"""Tests for the tier scheduler."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.scenarios import build_population_scenario
from repro.simcluster.clock import SimulatedClock
from repro.simcluster.population import DiurnalSchedule
from repro.tifl.policies import StaticTierPolicy
from repro.tifl.scheduler import TierScheduler
from repro.tifl.server import TiFLServer
from repro.tifl.tiering import build_tiers
from tests.conftest import make_test_population


def make_assignment(per_tier=6, tiers=3):
    lats = np.repeat(np.linspace(1.0, 10.0, tiers), per_tier)
    return build_tiers(np.arange(lats.size), lats, num_tiers=tiers)


def all_clients(assignment):
    return sorted(c for t in range(assignment.num_tiers) for c in assignment.members(t))


class TestSelect:
    def test_cohort_from_single_tier(self):
        asg = make_assignment()
        sched = TierScheduler(asg, StaticTierPolicy([1 / 3] * 3), 4, rng=0)
        for r in range(20):
            plan = sched.select(r, all_clients(asg))
            assert plan.tier is not None
            members = set(asg.members(plan.tier))
            assert set(plan.clients) <= members
            assert len(plan.clients) == 4

    def test_uniform_within_tier(self):
        asg = make_assignment(per_tier=8, tiers=2)
        sched = TierScheduler(asg, StaticTierPolicy([1.0, 0.0]), 2, rng=0)
        counts = np.zeros(8)
        for r in range(3000):
            for c in sched.select(r, all_clients(asg)).clients:
                counts[c] += 1
        expected = 3000 * 2 / 8
        assert np.all(np.abs(counts - expected) < expected * 0.2)

    def test_respects_available_subset(self):
        asg = make_assignment(per_tier=6, tiers=2)
        sched = TierScheduler(asg, StaticTierPolicy([0.5, 0.5]), 3, rng=0)
        available = [c for c in all_clients(asg) if c != 0]
        for r in range(30):
            plan = sched.select(r, available)
            assert 0 not in plan.clients

    def test_depleted_tier_becomes_ineligible(self):
        """When a tier cannot field |C| clients it is skipped."""
        asg = make_assignment(per_tier=4, tiers=2)
        sched = TierScheduler(asg, StaticTierPolicy([1.0, 0.0]), 3, rng=0)
        # remove tier-0 clients from the available pool
        available = list(asg.members(1))
        plan = sched.select(0, available)
        assert plan.tier == 1

    def test_no_tier_can_field_cohort(self):
        asg = make_assignment(per_tier=3, tiers=2)
        sched = TierScheduler(asg, StaticTierPolicy([0.5, 0.5]), 3, rng=0)
        with pytest.raises(RuntimeError, match="full cohort"):
            sched.select(0, list(asg.members(0))[:2])

    def test_cohort_larger_than_every_tier_rejected_at_build(self):
        asg = make_assignment(per_tier=3, tiers=2)
        with pytest.raises(ValueError, match="no tier holds"):
            TierScheduler(asg, StaticTierPolicy([0.5, 0.5]), 10, rng=0)

    def test_invalid_cohort_size(self):
        asg = make_assignment()
        with pytest.raises(ValueError):
            TierScheduler(asg, StaticTierPolicy([1 / 3] * 3), 0)


    def test_negative_ids_are_ignored_not_wrapped(self):
        """``mask[[-1]] = True`` used to mark client ``id_bound - 1``
        available; out-of-range ids are ignored on both sides."""
        asg = make_assignment(per_tier=4, tiers=2)
        sched = TierScheduler(asg, StaticTierPolicy([0.5, 0.5]), 2, rng=0)
        mask = sched._avail_mask([-1, 3, 8, 99])
        assert np.flatnonzero(mask).tolist() == [3]


def plan_or_error(scheduler, round_idx, available):
    try:
        plan = scheduler.select(round_idx, available)
    except RuntimeError as exc:
        return str(exc)
    return plan.tier, plan.clients


class TestPoolMemo:
    """``select`` rescans the pool only when handed a different array."""

    def test_kept_for_the_same_read_only_array_only(self):
        asg = make_assignment(per_tier=6, tiers=2)
        sched = TierScheduler(asg, StaticTierPolicy([0.5, 0.5]), 3, rng=0)
        scans = []
        real = sched._avail_mask
        sched._avail_mask = lambda available: scans.append(1) or real(available)

        frozen = np.arange(12)
        frozen.flags.writeable = False
        for r in range(4):
            sched.select(r, frozen)
        assert len(scans) == 1
        twin = frozen.copy()  # equal values, another object
        twin.flags.writeable = False
        sched.select(4, twin)
        sched.select(5, frozen)
        assert len(scans) == 3
        writable = np.arange(12)
        sched.select(6, writable)
        writable[:] = np.arange(12, 24) % 12  # may change underneath
        sched.select(7, writable)
        sched.select(8, list(range(12)))
        sched.select(9, list(range(12)))
        assert len(scans) == 7

    @settings(max_examples=40, deadline=None)
    @given(
        steps=st.lists(
            st.one_of(
                st.tuples(
                    st.just("set"),
                    st.lists(st.integers(0, 23), max_size=12),
                    st.booleans(),
                ),
                st.tuples(st.just("advance"), st.floats(0.0, 5.0)),
                st.tuples(st.just("exclude"), st.integers(0, 23)),
                st.tuples(st.just("round")),
            ),
            min_size=1,
            max_size=25,
        )
    )
    def test_memoised_pair_agrees_with_a_rescan_after_every_step(self, steps):
        store = make_test_population(24)
        clock = SimulatedClock()
        store.attach_diurnal(
            clock, DiurnalSchedule(period=8.0, duty_cycle=0.5, num_phases=4)
        )
        ids = np.arange(24)
        asg = build_tiers(ids, 1.0 + ids % 3, num_tiers=3)
        policy = StaticTierPolicy([0.5, 0.3, 0.2])
        memoised = TierScheduler(asg, policy, 3, rng=7)
        excluded = set()
        for round_idx, step in enumerate(steps):
            if step[0] == "set":
                store.set_available(step[1], step[2])
            elif step[0] == "advance":
                clock.advance(step[1])  # fires the due diurnal edges
            elif step[0] == "exclude":
                excluded.add(step[1])
            ids = store.available_ids(excluded)
            rescan = [
                cid
                for cid in range(24)
                if store._available[cid] and cid not in excluded
            ]
            assert ids.tolist() == rescan
            twin = TierScheduler(
                asg, policy, 3, rng=copy.deepcopy(memoised._rng)
            )
            assert plan_or_error(memoised, round_idx, ids) == plan_or_error(
                twin, round_idx, rescan
            )

    def test_population_is_scanned_once_per_availability_change(self):
        """60 rounds of a 5 000-client TiFL server under diurnal churn:
        the store scans its column once up front and once per round that
        follows a window edge -- never once per round."""
        edge_every = 5.0  # period / num_phases; on_len is a multiple too
        scn = build_population_scenario(
            num_clients=5000, clients_per_round=10, seed=3
        )
        clock = SimulatedClock()
        scn.clients.attach_diurnal(
            clock, DiurnalSchedule(period=40.0, duty_cycle=0.5, num_phases=8)
        )
        server = TiFLServer(
            clients=scn.clients,
            model=scn.model,
            test_data=scn.test_data,
            clients_per_round=10,
            policy="uniform",
            training=scn.training,
            latency_stream="cohort",
            clock=clock,
            rng=3,
        )
        assert scn.clients.availability_scans == 0
        started = clock.now
        history = server.run(60)
        # Round r selects at the time round r - 1 ended.
        select_times = [started] + [rec.sim_time for rec in history.records[:-1]]
        edges = sum(
            later // edge_every > earlier // edge_every
            for earlier, later in zip(select_times, select_times[1:])
        )
        assert 5 <= edges < 59
        assert scn.clients.availability_scans == edges + 1


class TestFeedback:
    def test_tier_accuracy_forwarded_to_policy(self):
        asg = make_assignment()

        class Recorder(StaticTierPolicy):
            def __init__(self):
                super().__init__([1 / 3] * 3)
                self.seen = {}

            def record_tier_accuracies(self, round_idx, accs):
                self.seen[round_idx] = accs

        pol = Recorder()
        sched = TierScheduler(asg, pol, 2, rng=0)
        sched.record_tier_accuracies(7, {0: 0.5, 1: 0.6, 2: 0.7})
        assert pol.seen == {7: {0: 0.5, 1: 0.6, 2: 0.7}}
