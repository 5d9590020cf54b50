"""Tests for the Section 4.2 profiler."""

import numpy as np
import pytest

from repro.simcluster.faults import DropoutInjector, SlowdownInjector
from repro.tifl.profiler import profile_clients
from tests.conftest import make_test_population


def make_pool(cpus, noise=0.0, seed=0):
    return make_test_population(
        len(cpus), cpus=cpus, seed=seed, noise_sigma=noise
    )


class TestBasicProfiling:
    def test_all_clients_profiled(self):
        clients = make_pool([4.0, 1.0, 0.25])
        result = profile_clients(clients, num_params=100, sync_rounds=3)
        assert sorted(result.mean_latencies) == [0, 1, 2]
        assert result.dropouts == []

    def test_latency_ordering_follows_cpu(self):
        clients = make_pool([4.0, 1.0, 0.25])
        result = profile_clients(clients, num_params=100, sync_rounds=3)
        lats = [result.mean_latencies[i] for i in range(3)]
        assert lats[0] < lats[1] < lats[2]

    def test_mean_matches_expectation_no_noise(self):
        clients = make_pool([2.0])
        result = profile_clients(clients, num_params=100, sync_rounds=4)
        expected = clients[0].mean_response_latency(100)
        np.testing.assert_allclose(result.mean_latencies[0], expected, rtol=1e-9)

    def test_profiling_time_accumulates_slowest(self):
        clients = make_pool([4.0, 0.25])
        result = profile_clients(clients, num_params=100, sync_rounds=3)
        slow = clients[1].mean_response_latency(100)
        np.testing.assert_allclose(result.profiling_time, 3 * slow, rtol=1e-9)

    def test_raw_latencies_recorded(self):
        clients = make_pool([1.0, 1.0])
        result = profile_clients(clients, num_params=100, sync_rounds=5)
        assert all(len(v) == 5 for v in result.raw_latencies.values())

    def test_invalid_args(self):
        clients = make_pool([1.0])
        with pytest.raises(ValueError):
            profile_clients(clients, 100, client_ids=[])
        with pytest.raises(ValueError):
            profile_clients(clients, 100, sync_rounds=0)
        with pytest.raises(ValueError):
            profile_clients(clients, 100, tmax=-1.0)


class TestDropoutExclusion:
    def test_unresponsive_client_excluded(self):
        clients = make_pool([1.0, 1.0, 1.0])
        fault = DropoutInjector(always_drop={1})
        result = profile_clients(clients, num_params=100, fault=fault)
        assert result.dropouts == [1]
        assert 1 not in result.mean_latencies

    def test_intermittent_dropout_kept(self):
        """A client that responds in at least one round stays in the pool."""
        clients = make_pool([1.0, 1.0])
        fault = DropoutInjector(drop_prob=0.4, rng=0)
        result = profile_clients(
            clients, num_params=100, sync_rounds=20, fault=fault
        )
        # with p=0.4 over 20 rounds, all-dropout probability is ~1e-8
        assert result.dropouts == []

    def test_all_dropouts_raise(self):
        clients = make_pool([1.0, 1.0])
        fault = DropoutInjector(always_drop={0, 1})
        with pytest.raises(RuntimeError, match="dropout"):
            profile_clients(clients, num_params=100, fault=fault)


class TestFiniteTmax:
    def test_slow_client_charged_tmax(self):
        """With a finite deadline, slow responses are charged Tmax."""
        clients = make_pool([4.0, 0.01])  # client 1 latency ~ 24s
        slow_lat = clients[1].mean_response_latency(100)
        tmax = slow_lat / 2
        fast_lat = clients[0].mean_response_latency(100)
        assert fast_lat < tmax  # sanity: fast client meets the deadline
        result = profile_clients(clients, num_params=100, tmax=tmax, sync_rounds=3)
        # client 1 timed out every round -> dropout (paper's rule)
        assert result.dropouts == [1]

    def test_paper_rule_partial_timeouts(self):
        """Timed-out rounds contribute Tmax to a surviving client's mean."""
        clients = make_pool([1.0, 1.0], noise=0.0)
        base = clients[0].mean_response_latency(100)
        fault = SlowdownInjector(factor=10.0, slow_clients={1}, start_round=0)
        # Deadline between normal and slowed latency; client 1 is slowed in
        # every *training* round but profiling uses round_idx < 0, so the
        # start_round=0 gate keeps profiling rounds unaffected.
        result = profile_clients(
            clients, num_params=100, tmax=base * 2, sync_rounds=3, fault=fault
        )
        assert result.dropouts == []

    def test_profiling_time_capped_by_tmax(self):
        clients = make_pool([4.0, 0.01])
        result = profile_clients(clients, num_params=100, tmax=1.0, sync_rounds=2)
        assert result.profiling_time <= 2.0 + 1e-9


class TestDeterminism:
    def test_same_seed_same_profile(self):
        a = profile_clients(make_pool([1.0, 0.5], noise=0.1, seed=3), 100)
        b = profile_clients(make_pool([1.0, 0.5], noise=0.1, seed=3), 100)
        assert a.mean_latencies == b.mean_latencies
