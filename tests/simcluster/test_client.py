"""Tests for SimClient: training, latency, holdout."""

import numpy as np
import pytest

from repro.nn import SGD, build_linear
from tests.conftest import DropoutInjector, make_test_client, make_tiny_dataset


def workspace():
    return build_linear((4, 4, 1), 3, rng=0)


class TestConstruction:
    def test_holdout_split(self):
        c = make_test_client(n=30, holdout_fraction=0.2)
        assert len(c.holdout) == 6
        assert c.num_train_samples == 24

    def test_zero_holdout(self):
        c = make_test_client(n=30, holdout_fraction=0.0)
        # min_holdout=1 keeps one sample for evaluation by default
        assert len(c.holdout) == 1

    def test_empty_data_raises(self):
        from repro.data.datasets import Dataset
        from repro.simcluster.client import SimClient
        from repro.simcluster.latency import LatencyModel
        from repro.simcluster.resources import ResourceSpec

        empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
        with pytest.raises(ValueError, match="no data"):
            SimClient(0, empty, ResourceSpec(1.0), LatencyModel())


class TestLatency:
    def test_deterministic_without_noise(self):
        c = make_test_client(noise_sigma=0.0)
        lat = c.response_latency(num_params=100)
        expected = c.mean_response_latency(num_params=100)
        np.testing.assert_allclose(lat, expected, rtol=1e-9)

    def test_slower_cpu_higher_latency(self):
        fast = make_test_client(client_id=0, cpu=4.0)
        slow = make_test_client(client_id=1, cpu=0.25)
        assert slow.response_latency(100) > fast.response_latency(100)

    def test_fault_injection_applies(self):
        c = make_test_client()
        fault = DropoutInjector(always_drop={c.client_id})
        assert np.isinf(c.response_latency(100, fault=fault))

    def test_latency_independent_of_training(self):
        """Latency noise stream must not be perturbed by training calls."""
        a = make_test_client(seed=3, noise_sigma=0.1)
        b = make_test_client(seed=3, noise_sigma=0.1)
        w = workspace()
        a.train(w, w.get_flat_weights(), lambda: SGD(lr=0.1))
        la = a.response_latency(100)
        lb = b.response_latency(100)
        np.testing.assert_allclose(la, lb)


class TestTraining:
    def test_train_changes_weights(self):
        c = make_test_client()
        w = workspace()
        start = w.get_flat_weights()
        out = c.train(w, start, lambda: SGD(lr=0.5))
        assert not np.array_equal(out, start)

    def test_train_starts_from_global(self):
        """Two clients starting from the same global weights but different
        data produce different updates; same data => identical updates."""
        c1 = make_test_client(client_id=0, seed=5)
        c2 = make_test_client(client_id=0, seed=5)
        w = workspace()
        g = w.get_flat_weights()
        out1 = c1.train(w, g, lambda: SGD(lr=0.1))
        out2 = c2.train(w, g, lambda: SGD(lr=0.1))
        np.testing.assert_array_equal(out1, out2)

    def test_multiple_epochs_move_further(self):
        c1 = make_test_client(client_id=0, seed=4)
        c2 = make_test_client(client_id=0, seed=4)
        w = workspace()
        g = w.get_flat_weights()
        one = c1.train(w, g, lambda: SGD(lr=0.05), epochs=1)
        five = c2.train(w, g, lambda: SGD(lr=0.05), epochs=5)
        assert np.linalg.norm(five - g) > np.linalg.norm(one - g)

    def test_invalid_epochs(self):
        c = make_test_client()
        w = workspace()
        with pytest.raises(ValueError):
            c.train(w, w.get_flat_weights(), lambda: SGD(lr=0.1), epochs=0)

    def test_training_improves_local_accuracy(self):
        c = make_test_client(n=60)
        w = workspace()
        g = w.get_flat_weights()
        before = c.evaluate(w, g)
        current = g
        for _ in range(15):
            current = c.train(w, current, lambda: SGD(lr=0.2))
        after = c.evaluate(w, current)
        assert after >= before


class TestEvaluate:
    def test_eval_uses_holdout(self):
        c = make_test_client(n=40, holdout_fraction=0.25)
        w = workspace()
        acc = c.evaluate(w, w.get_flat_weights())
        assert 0.0 <= acc <= 1.0

    def test_no_holdout_raises(self):
        from repro.data.datasets import Dataset
        from repro.simcluster.client import SimClient
        from repro.simcluster.latency import LatencyModel
        from repro.simcluster.resources import ResourceSpec

        data = make_tiny_dataset(n=1)
        c = SimClient(0, data, ResourceSpec(1.0), LatencyModel(), holdout_fraction=0.0)
        w = workspace()
        with pytest.raises(RuntimeError, match="holdout"):
            c.evaluate(w, w.get_flat_weights())
