"""Extended runner tests: custom policies, repeats averaging, summaries."""

import numpy as np
import pytest

from repro.experiments import ScenarioConfig, run_policies, run_policy
from repro.experiments.figures import mean_curves
from repro.tifl.policies import StaticTierPolicy


def cfg(**kw):
    defaults = dict(
        num_clients=10,
        clients_per_round=2,
        train_size=300,
        test_size=60,
        shape=(4, 4, 1),
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestCustomPolicies:
    def test_policy_instance_accepted(self):
        custom = StaticTierPolicy([0.5, 0.3, 0.1, 0.05, 0.05], name="my-mix")
        res = run_policy(cfg(), custom, rounds=4, seed=0)
        assert res.policy == "my-mix"
        assert res.tier_probs is not None

    def test_policy_instance_probs_reported(self):
        probs = [0.4, 0.3, 0.2, 0.05, 0.05]
        custom = StaticTierPolicy(probs)
        res = run_policy(cfg(), custom, rounds=3, seed=0)
        np.testing.assert_allclose(res.tier_probs, probs)

    def test_mismatched_tier_count_raises(self):
        # scenario realises 5 tiers; a 2-tier policy cannot drive it
        custom = StaticTierPolicy([0.5, 0.5])
        with pytest.raises(Exception):
            run_policy(cfg(), custom, rounds=3, seed=0)


class TestRepeatAveraging:
    def test_mean_curves_over_repeats(self):
        out = run_policies(cfg(), ["uniform"], rounds=5, seed=0, repeats=3)
        rounds, accs = mean_curves(out["uniform"])
        assert rounds.size == 5
        assert np.all((0.0 <= accs) & (accs <= 1.0))

    def test_summary_strings(self):
        res = run_policy(cfg(), "vanilla", rounds=3, seed=0)
        text = res.history.summary()
        assert "3 rounds" in text

