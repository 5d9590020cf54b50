"""Tests for weight initializers."""

import numpy as np
import pytest

from repro.nn.initializers import fan_in_out, glorot_uniform, zeros_init


class TestFanInOut:
    def test_dense(self):
        assert fan_in_out((10, 20)) == (10, 20)

    def test_conv(self):
        assert fan_in_out((3, 3, 8, 16)) == (72, 144)

    def test_unsupported(self):
        with pytest.raises(ValueError):
            fan_in_out((5,))


class TestGlorot:
    def test_bounds(self, rng):
        w = glorot_uniform(rng, (50, 50))
        limit = np.sqrt(6.0 / 100)
        assert np.all(np.abs(w) <= limit)

    def test_variance_scale(self, rng):
        w = glorot_uniform(rng, (400, 400))
        expected_var = (2 * np.sqrt(6.0 / 800)) ** 2 / 12
        np.testing.assert_allclose(w.var(), expected_var, rtol=0.1)


def test_zeros(rng):
    w = zeros_init(rng, (4, 4))
    np.testing.assert_array_equal(w, 0.0)
