"""Tests for fault injectors."""

import numpy as np
import pytest

from repro.simcluster.faults import FaultInjector, SlowdownInjector
from tests.conftest import DropoutInjector


class TestBase:
    def test_the_base_is_an_interface(self):
        with pytest.raises(NotImplementedError):
            FaultInjector().apply(0, 0, 1.5)


class TestDropout:
    def test_always_drop(self):
        inj = DropoutInjector(always_drop={3})
        assert np.isinf(inj.apply(3, 0, 1.0))
        assert inj.apply(4, 0, 1.0) == 1.0

    def test_probabilistic_rate(self):
        inj = DropoutInjector(drop_prob=0.3, rng=0)
        outcomes = [np.isinf(inj.apply(0, r, 1.0)) for r in range(5000)]
        assert 0.25 < np.mean(outcomes) < 0.35

    def test_zero_prob_never_drops(self):
        inj = DropoutInjector(drop_prob=0.0, rng=0)
        assert all(inj.apply(0, r, 1.0) == 1.0 for r in range(100))

    def test_invalid_prob(self):
        with pytest.raises(ValueError):
            DropoutInjector(drop_prob=1.5)


class TestSlowdown:
    def test_global_slowdown(self):
        inj = SlowdownInjector(factor=3.0)
        assert inj.apply(0, 0, 2.0) == 6.0

    def test_targeted_clients(self):
        inj = SlowdownInjector(factor=2.0, slow_clients={1})
        assert inj.apply(1, 0, 1.0) == 2.0
        assert inj.apply(2, 0, 1.0) == 1.0

    def test_start_round_gate(self):
        inj = SlowdownInjector(factor=2.0, start_round=10)
        assert inj.apply(0, 5, 1.0) == 1.0
        assert inj.apply(0, 10, 1.0) == 2.0

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            SlowdownInjector(factor=0.5)
