"""Tests for the experiment runner."""

import hashlib

import numpy as np
import pytest

from repro.experiments.runner import run_policies, run_policy
from repro.experiments.scenarios import ScenarioConfig, build_leaf_scenario
from repro.fl.server import FLServer


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


class TestRunPolicy:
    def test_vanilla_runs(self):
        res = run_policy(cfg(), "vanilla", rounds=5, seed=0)
        assert res.policy == "vanilla"
        assert len(res.history) == 5
        assert res.tier_latencies is None

    def test_tifl_policy_reports_tiers(self):
        res = run_policy(cfg(), "uniform", rounds=5, seed=0)
        assert res.tier_latencies is not None
        assert res.tier_sizes.sum() == 10
        np.testing.assert_allclose(res.tier_probs.sum(), 1.0)

    def test_adaptive_runs(self):
        res = run_policy(cfg(), "adaptive", rounds=6, seed=0, adaptive_interval=3)
        assert len(res.history) == 6

    def test_overselect_runs(self):
        res = run_policy(cfg(), "overselect", rounds=4, seed=0)
        assert len(res.history) == 4

    def test_deterministic_given_seed(self):
        a = run_policy(cfg(), "uniform", rounds=4, seed=9)
        b = run_policy(cfg(), "uniform", rounds=4, seed=9)
        np.testing.assert_allclose(a.total_time, b.total_time)
        assert a.final_accuracy == b.final_accuracy

    def test_seeds_differ(self):
        a = run_policy(cfg(), "uniform", rounds=4, seed=1)
        b = run_policy(cfg(), "uniform", rounds=4, seed=2)
        assert a.total_time != b.total_time

    def test_invalid_rounds(self):
        with pytest.raises(ValueError):
            run_policy(cfg(), "vanilla", rounds=0)

    def test_population_keyword_is_gone(self):
        with pytest.raises(TypeError):
            run_policy(cfg(), "vanilla", rounds=1, population=True)


def history_digest(records, weights) -> str:
    """``perf/child.py::_hash_prefix``'s rule: every RoundRecord field,
    floats as exact hex, then the final global weights."""

    def fhex(value):
        return None if value is None else float(value).hex()

    sha = hashlib.sha256()
    for rec in records:
        tiers = rec.tier_accuracies
        sha.update(repr((
            rec.round_idx, fhex(rec.round_latency), fhex(rec.sim_time),
            fhex(rec.accuracy), tuple(int(c) for c in rec.selected),
            rec.tier, tuple(int(c) for c in rec.dropped),
            None if tiers is None
            else sorted((int(t), fhex(a)) for t, a in tiers.items()),
        )).encode())
    sha.update(weights.tobytes())
    return sha.hexdigest()


@pytest.fixture
def final_weights(monkeypatch):
    """Global weights of every server ``run_policy`` closes, in order."""
    captured = []
    close = FLServer.close

    def capturing_close(self):
        captured.append(self.global_weights.copy())
        close(self)

    monkeypatch.setattr(FLServer, "close", capturing_close)
    return captured


#: Results of the *eager* ``List[SimClient]`` builders, recorded at
#: 009f3b0 -- the last tree that had them -- with the scenarios below.
#: The store-backed builders must keep reproducing them bit for bit.
PINNED_EAGER_DIGEST = {
    "vanilla": "559282609b0870e109075a44658ab487263e5af858e55e101cfad7474a86afae",
    "overselect": "73d9e6f8d1e1f3ad7cc7936851d250532a1b1b8b68f671f9cbcd19c5caf6c448",
    "uniform": "890f08373c6859482cc1dade154a3c58d755e26b94952b54e410cd968d650f7c",
    "adaptive": "7309ce5f56cb75e3d82486c3e68dd3798088840d9000ee8e06a765029c1e5de9",
    "leaf": "05b269d9d42aca747232aaf9d5c7bf6fb36d2280efee3e507dd8a603d5c3129c",
}
PINNED_EAGER_TIER_LATENCIES = [
    0.31286904946403554, 0.369459193342371, 0.4769032570799422,
    0.7053435542124048, 2.6009913277085994,
]
PINNED_EAGER_TIER_SIZES = [2, 2, 2, 2, 2]
PINNED_EAGER_LEAF_TIER_LATENCIES = [
    0.29795599152326674, 0.4119047620814882, 0.5255457326298021,
    1.008770650057294, 1.4966238653361807,
]
PINNED_EAGER_LEAF_TIER_SIZES = [3, 2, 2, 2, 3]
PINNED_EAGER_LEAF_GROUPS = [4, 0, 2, 4, 1, 1, 3, 0, 2, 3, 4, 4]


class TestPopulationEquivalence:
    """The columnar store is a memory-layout change, not a numerics one:
    a run's history and final weights must equal what the eager client
    list produced, including the full TiFL profile -> tier -> schedule
    chain."""

    @pytest.mark.parametrize(
        "policy", ["vanilla", "overselect", "uniform", "adaptive"]
    )
    def test_store_history_matches_eager(self, policy, final_weights):
        kw = dict(rounds=3, seed=4)
        if policy == "adaptive":
            kw["adaptive_interval"] = 2
        res = run_policy(cfg(), policy, **kw)
        assert (
            history_digest(res.history.records, final_weights.pop())
            == PINNED_EAGER_DIGEST[policy]
        )
        if policy in ("uniform", "adaptive"):
            np.testing.assert_array_equal(
                res.tier_latencies, PINNED_EAGER_TIER_LATENCIES
            )
            np.testing.assert_array_equal(res.tier_sizes, PINNED_EAGER_TIER_SIZES)


def test_leaf_history_matches_eager(final_weights):
    """``build_leaf_scenario`` draws its ``shuffle=True`` permutation from
    the client seed generator *before* the per-client spawn; value draws
    leave the spawn counter alone, so a ``SeedAddress`` captured after
    them must address the same children -- shown here, not assumed."""
    scn = build_leaf_scenario(
        num_clients=12, clients_per_round=2, sample_scale=0.1, seed=4
    )
    assert scn.clients.group[:12].tolist() == PINNED_EAGER_LEAF_GROUPS
    res = run_policy(
        scn.config, "adaptive", rounds=3, seed=4, adaptive_interval=2,
        scenario=scn,
    )
    assert (
        history_digest(res.history.records, final_weights.pop())
        == PINNED_EAGER_DIGEST["leaf"]
    )
    np.testing.assert_array_equal(
        res.tier_latencies, PINNED_EAGER_LEAF_TIER_LATENCIES
    )
    np.testing.assert_array_equal(res.tier_sizes, PINNED_EAGER_LEAF_TIER_SIZES)


class TestRunPolicies:
    def test_all_policies_returned(self):
        out = run_policies(cfg(), ["vanilla", "uniform"], rounds=3, seed=0)
        assert set(out) == {"vanilla", "uniform"}
        assert all(len(v) == 1 for v in out.values())

    def test_repeats(self):
        out = run_policies(cfg(), ["vanilla"], rounds=3, seed=0, repeats=3)
        assert len(out["vanilla"]) == 3
        times = [r.total_time for r in out["vanilla"]]
        assert len(set(times)) > 1  # different seeds -> different draws

    def test_policies_share_federation(self):
        """Same seed => same data/latency statistics across policies."""
        out = run_policies(cfg(), ["slow", "fast"], rounds=4, seed=3)
        slow, fast = out["slow"][0], out["fast"][0]
        np.testing.assert_allclose(slow.tier_latencies, fast.tier_latencies)
        # identical tiering yields identical sizes
        np.testing.assert_array_equal(slow.tier_sizes, fast.tier_sizes)
