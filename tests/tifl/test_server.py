"""Tests for the TiFL server: profiling + tiering + scheduling integration."""

import numpy as np
import pytest

from repro.config import TrainingConfig
from repro.nn import build_linear
from repro.simcluster.faults import DropoutInjector, SlowdownInjector
from repro.tifl.adaptive import AdaptiveTierPolicy
from repro.tifl.server import TiFLServer
from tests.conftest import make_test_population, make_tiny_dataset

TRAIN = TrainingConfig(optimizer="sgd", lr=0.1, lr_decay=1.0)


def make_tifl(
    policy="uniform",
    num_clients=12,
    per_round=2,
    num_tiers=3,
    cpus=None,
    total_rounds=None,
    fault=None,
    seed=0,
    **kwargs,
):
    if cpus is None:
        bases = [4.0, 1.0, 0.25]
        cpus = [bases[i * 3 // num_clients] for i in range(num_clients)]
    clients = make_test_population(
        num_clients, cpus=cpus, seed=seed, noise_sigma=0.01
    )
    return TiFLServer(
        clients=clients,
        model=build_linear((4, 4, 1), 3, rng=seed),
        test_data=make_tiny_dataset(n=30, seed=777),
        clients_per_round=per_round,
        policy=policy,
        num_tiers=num_tiers,
        sync_rounds=2,
        total_rounds=total_rounds,
        training=TRAIN,
        fault=fault,
        rng=seed,
        **kwargs,
    )


class TestConstruction:
    def test_tiers_built_from_profiling(self):
        server = make_tifl()
        assert server.assignment.num_tiers == 3
        assert np.all(np.diff(server.assignment.mean_latencies) > 0)

    def test_dropouts_excluded(self):
        fault = DropoutInjector(always_drop={0})
        server = make_tifl(fault=fault)
        assert 0 in server.excluded
        for r in range(5):
            rec = server.run_round(r)
            assert 0 not in rec.selected

    def test_profiling_not_charged_by_default(self):
        server = make_tifl()
        assert server.clock.now == 0.0

    def test_profiling_charged_when_requested(self):
        server = make_tifl(charge_profiling=True)
        assert server.clock.now > 0.0
        np.testing.assert_allclose(server.clock.now, server.profiling.profiling_time)

    def test_adaptive_requires_total_rounds(self):
        with pytest.raises(ValueError, match="total_rounds"):
            make_tifl(policy="adaptive")

    def test_policy_instance_accepted(self):
        pol = AdaptiveTierPolicy(3, credits=[50, 50, 50], interval=5)
        server = make_tifl(policy=pol)
        assert server.tier_policy is pol


class TestRounds:
    def test_cohort_always_single_tier(self):
        server = make_tifl(policy="uniform")
        for r in range(15):
            rec = server.run_round(r)
            tiers = {server.assignment.tier_of(c) for c in rec.selected}
            assert tiers == {rec.tier}

    def test_fast_policy_selects_fastest_tier(self):
        server = make_tifl(policy="fast")
        for r in range(10):
            rec = server.run_round(r)
            assert rec.tier == 0

    def test_slow_policy_selects_slowest_tier(self):
        server = make_tifl(policy="slow")
        for r in range(10):
            rec = server.run_round(r)
            assert rec.tier == server.assignment.num_tiers - 1

    def test_fast_rounds_shorter_than_slow(self):
        fast = make_tifl(policy="fast", seed=4)
        slow = make_tifl(policy="slow", seed=4)
        tf = fast.run(10).total_time
        ts = slow.run(10).total_time
        assert tf < ts

    def test_learning_happens(self):
        server = make_tifl(policy="uniform")
        history = server.run(25)
        assert history.final_accuracy >= history.records[0].accuracy


class TestAdaptive:
    def test_adaptive_runs_and_updates(self):
        server = make_tifl(
            policy="adaptive", total_rounds=30, adaptive_interval=5
        )
        history = server.run(30)
        assert len(history) == 30
        # per-tier accuracies were recorded for the policy
        pol = server.tier_policy
        assert isinstance(pol, AdaptiveTierPolicy)
        assert len(pol.accuracy_log) == 30

    def test_tier_accuracies_attached_to_records(self):
        server = make_tifl(policy="adaptive", total_rounds=5)
        rec = server.run_round(0)
        assert rec.tier_accuracies is not None
        assert set(rec.tier_accuracies) <= set(range(3))

    def test_static_policy_skips_tier_eval_by_default(self):
        server = make_tifl(policy="uniform")
        rec = server.run_round(0)
        assert rec.tier_accuracies is None

    def test_static_policy_tier_eval_opt_in(self):
        server = make_tifl(policy="uniform", tier_eval_every=2)
        rec0 = server.run_round(0)
        rec1 = server.run_round(1)
        assert rec0.tier_accuracies is not None
        assert rec1.tier_accuracies is None


class TestEvaluateTiers:
    def test_per_tier_accuracy_structure(self):
        server = make_tifl()
        accs = server.evaluate_tiers()
        assert set(accs) == set(range(server.assignment.num_tiers))
        assert all(0.0 <= a <= 1.0 for a in accs.values())


class TestReprofile:
    def test_reprofile_detects_slowdown(self):
        """A client group slowed after round 0 moves to a slower tier."""
        server = make_tifl(num_clients=12, num_tiers=3)
        # initially fastest clients are 0..3 (cpu 4.0)
        assert server.assignment.tier_of(0) == 0
        server.fault = SlowdownInjector(
            factor=100.0, slow_clients={0}, start_round=-(10**9)
        )
        new_asg = server.reprofile()
        assert new_asg.tier_of(0) == new_asg.num_tiers - 1

    def test_reprofile_preserves_adaptive_policy(self):
        server = make_tifl(policy="adaptive", total_rounds=20)
        pol = server.tier_policy
        server.reprofile()
        assert server.tier_policy is pol


class TestEstimatorIntegration:
    def test_eq6_matches_measured_static_run(self):
        """Table 2's validation: Eq. 6 vs the measured run, low MAPE."""
        from repro.tifl.estimator import estimate_training_time, mape

        server = make_tifl(policy="uniform", seed=9)
        probs = server.tier_policy.tier_probs(0)
        lats = server.expected_tier_latencies()
        rounds = 60
        est = estimate_training_time(lats, probs, rounds)
        actual = server.run(rounds).total_time
        assert mape(est, actual) < 25.0  # small run; bench uses more rounds
