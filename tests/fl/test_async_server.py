"""Tests for the asynchronous FL baseline."""

from collections import Counter

import numpy as np
import pytest

from repro.config import TrainingConfig
from repro.fl.async_server import AsyncFLServer, polynomial_staleness_discount
from repro.nn import build_linear
from tests.conftest import make_test_population, make_tiny_dataset

TRAIN = TrainingConfig(optimizer="sgd", lr=0.1, lr_decay=1.0)


def make_async(num_clients=6, concurrency=3, cpus=None, seed=0, **kwargs):
    clients = make_test_population(
        num_clients, cpus=cpus, seed=seed, noise_sigma=0.01
    )
    return AsyncFLServer(
        clients=clients,
        model=build_linear((4, 4, 1), 3, rng=seed),
        test_data=make_tiny_dataset(n=30, seed=999),
        concurrency=concurrency,
        training=TRAIN,
        rng=seed,
        **kwargs,
    )


class TestDiscount:
    def test_fresh_update_undamped(self):
        assert polynomial_staleness_discount(0) == 1.0

    def test_monotone_decreasing(self):
        vals = [polynomial_staleness_discount(s) for s in range(6)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_power_zero_constant(self):
        assert polynomial_staleness_discount(10, power=0.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            polynomial_staleness_discount(-1)
        with pytest.raises(ValueError):
            polynomial_staleness_discount(1, power=-0.5)


class TestAsyncLoop:
    def test_applies_requested_updates(self):
        server = make_async()
        history = server.run(10)
        assert len(history) == 10
        assert server.updates_applied == 10

    def test_event_times_monotone(self):
        server = make_async()
        history = server.run(15)
        times = history.times
        assert np.all(np.diff(times) >= 0)

    def test_no_synchronous_barrier(self):
        """With one very slow client, async keeps making progress -- the
        elapsed time to N updates is far below N * slow_latency."""
        cpus = [4.0, 4.0, 4.0, 4.0, 4.0, 0.01]
        server = make_async(cpus=cpus, concurrency=3)
        slow_lat = server.clients[5].mean_response_latency(
            server.model.num_params()
        )
        history = server.run(12)
        assert history.total_time < 12 * slow_lat / 2

    def test_staleness_recorded(self):
        server = make_async(concurrency=4)
        server.run(20)
        assert len(server.staleness_log) == 20
        assert server.mean_staleness() >= 0.0
        # with 4 concurrent trainers, some updates must be stale
        assert max(server.staleness_log) >= 1

    def test_learning_progress(self):
        server = make_async(num_clients=6, concurrency=2)
        history = server.run(40)
        first = history.records[0].accuracy
        assert history.final_accuracy >= first - 0.05

    def test_deterministic(self):
        a = make_async(seed=3).run(10)
        b = make_async(seed=3).run(10)
        np.testing.assert_allclose(a.times, b.times)

    def test_heterogeneous_clients_update_at_different_rates(self):
        """Fast clients contribute more updates per unit time."""
        cpus = [8.0, 8.0, 8.0, 0.05, 0.05, 0.05]
        server = make_async(cpus=cpus, concurrency=6)
        history = server.run(30)
        counts = Counter(c for rec in history.records for c in rec.selected)
        fast_total = sum(counts[c] for c in (0, 1, 2))
        slow_total = sum(counts[c] for c in (3, 4, 5))
        assert fast_total > slow_total

    def test_validation(self):
        with pytest.raises(ValueError):
            make_async(concurrency=0)
        with pytest.raises(ValueError):
            make_async(concurrency=99)
        with pytest.raises(ValueError):
            make_async(base_mixing=0.0)
        server = make_async()
        with pytest.raises(ValueError):
            server.run(0)
        with pytest.raises(ValueError):
            server.mean_staleness()
