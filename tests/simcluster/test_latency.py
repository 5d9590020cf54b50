"""Tests for the compute-latency model, including the Fig. 1(a) regularities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcluster.latency import LatencyModel
from repro.simcluster.resources import ResourceSpec


def spec(cpu):
    return ResourceSpec(cpu_fraction=cpu)


class TestMeanCompute:
    def test_linear_in_samples(self):
        """Fig. 1(a): training time grows near-linearly with data size."""
        m = LatencyModel(cost_per_sample=0.01, base_overhead=0.0, noise_sigma=0.0)
        t1 = m.mean_compute(500, spec(1.0))
        t2 = m.mean_compute(5000, spec(1.0))
        np.testing.assert_allclose(t2 / t1, 10.0)

    def test_inverse_in_cpu(self):
        """Fig. 1(a): more CPU => proportionally shorter training."""
        m = LatencyModel(cost_per_sample=0.01, base_overhead=0.0, noise_sigma=0.0)
        t_fast = m.mean_compute(1000, spec(4.0))
        t_slow = m.mean_compute(1000, spec(0.2))
        np.testing.assert_allclose(t_slow / t_fast, 20.0)

    def test_epochs_scale_work(self):
        m = LatencyModel(cost_per_sample=0.01, base_overhead=0.0, noise_sigma=0.0)
        np.testing.assert_allclose(
            m.mean_compute(100, spec(1.0), epochs=3),
            3 * m.mean_compute(100, spec(1.0), epochs=1),
        )

    def test_base_overhead_floor(self):
        m = LatencyModel(cost_per_sample=0.01, base_overhead=2.0, noise_sigma=0.0)
        assert m.mean_compute(0, spec(1.0)) == 2.0

    def test_mean_accounts_for_lognormal_bias(self):
        m = LatencyModel(cost_per_sample=0.01, base_overhead=0.0, noise_sigma=0.5)
        base = 1000 * 0.01
        np.testing.assert_allclose(
            m.mean_compute(1000, spec(1.0)), base * np.exp(0.5**2 / 2)
        )


class TestSampling:
    def test_deterministic_when_sigma_zero(self):
        m = LatencyModel(cost_per_sample=0.02, base_overhead=0.5, noise_sigma=0.0)
        vals = [m.sample_compute(100, spec(2.0), rng=i) for i in range(5)]
        assert len(set(vals)) == 1

    def test_sample_mean_matches_model_mean(self):
        m = LatencyModel(cost_per_sample=0.01, base_overhead=0.0, noise_sigma=0.3)
        rng = np.random.default_rng(0)
        draws = [m.sample_compute(1000, spec(1.0), rng=rng) for _ in range(3000)]
        np.testing.assert_allclose(
            np.mean(draws), m.mean_compute(1000, spec(1.0)), rtol=0.05
        )

    def test_samples_positive(self):
        m = LatencyModel(noise_sigma=1.0)
        rng = np.random.default_rng(1)
        assert all(m.sample_compute(10, spec(0.5), rng=rng) > 0 for _ in range(100))

    def test_invalid_args(self):
        m = LatencyModel()
        with pytest.raises(ValueError):
            m.sample_compute(-1, spec(1.0))
        with pytest.raises(ValueError):
            m.sample_compute(10, spec(1.0), epochs=0)


class TestCalibration:
    def test_model_validation(self):
        with pytest.raises(ValueError):
            LatencyModel(cost_per_sample=0.0)
        with pytest.raises(ValueError):
            LatencyModel(base_overhead=-1.0)
        with pytest.raises(ValueError):
            LatencyModel(noise_sigma=-0.1)


@settings(max_examples=40, deadline=None)
@given(
    n1=st.integers(0, 5000),
    n2=st.integers(0, 5000),
    cpu=st.floats(0.05, 8.0),
)
def test_latency_monotone_in_samples(n1, n2, cpu):
    """More data never trains faster (noise-free property)."""
    m = LatencyModel(cost_per_sample=0.01, base_overhead=0.1, noise_sigma=0.0)
    lo, hi = sorted((n1, n2))
    assert m.mean_compute(lo, spec(cpu)) <= m.mean_compute(hi, spec(cpu))


class TestCohortSampling:
    """The vectorised cohort path, over the ``num_samples`` and
    ``cpu_fraction`` columns, must be bit-identical to the loop."""

    def _cohort(self, k, seed=0):
        rng = np.random.default_rng(seed)
        ns = rng.integers(0, 2000, size=k).tolist()
        cpus = (0.1 + 3.9 * rng.random(size=k)).tolist()
        eps = rng.integers(1, 4, size=k).tolist()
        return ns, cpus, eps

    def test_bit_identical_to_scalar_loop(self):
        m = LatencyModel(cost_per_sample=0.013, base_overhead=0.4, noise_sigma=0.08)
        ns, cpus, eps = self._cohort(23, seed=5)
        loop_rng = np.random.default_rng(77)
        loop = np.array(
            [
                m.sample_compute(ns[i], spec(cpus[i]), epochs=eps[i], rng=loop_rng)
                for i in range(len(ns))
            ]
        )
        vec = m.sample_compute_cohort(
            ns, cpus, epochs=eps, rng=np.random.default_rng(77)
        )
        assert loop.tobytes() == vec.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(k=st.integers(1, 40), seed=st.integers(0, 1000))
    def test_bit_identical_property(self, k, seed):
        m = LatencyModel(cost_per_sample=0.005, base_overhead=0.5, noise_sigma=0.05)
        ns, cpus, eps = self._cohort(k, seed=seed)
        loop_rng = np.random.default_rng(seed + 1)
        loop = np.array(
            [
                m.sample_compute(ns[i], spec(cpus[i]), epochs=eps[i], rng=loop_rng)
                for i in range(k)
            ]
        )
        vec = m.sample_compute_cohort(
            ns, cpus, epochs=eps, rng=np.random.default_rng(seed + 1)
        )
        assert loop.tobytes() == vec.tobytes()

    def test_scalar_epochs_broadcast(self):
        m = LatencyModel(noise_sigma=0.0)
        ns, cpus, _ = self._cohort(5, seed=3)
        vec = m.sample_compute_cohort(ns, cpus, epochs=2)
        loop = [m.sample_compute(n, spec(c), epochs=2) for n, c in zip(ns, cpus)]
        np.testing.assert_array_equal(vec, np.array(loop))

    def test_deterministic_when_sigma_zero(self):
        m = LatencyModel(cost_per_sample=0.01, base_overhead=0.2, noise_sigma=0.0)
        ns, cpus, _ = self._cohort(4, seed=9)
        a = m.sample_compute_cohort(ns, cpus)
        b = m.sample_compute_cohort(ns, cpus)
        np.testing.assert_array_equal(a, b)

    def test_empty_cohort(self):
        m = LatencyModel(noise_sigma=0.3)
        out = m.sample_compute_cohort([], [], rng=np.random.default_rng(0))
        assert out.shape == (0,)

    def test_validation(self):
        m = LatencyModel()
        with pytest.raises(ValueError, match="non-negative"):
            m.sample_compute_cohort([-1], [1.0])
        with pytest.raises(ValueError, match="epochs"):
            m.sample_compute_cohort([10], [1.0], epochs=0)
        with pytest.raises(ValueError, match="cpu_fractions shape"):
            m.sample_compute_cohort([10, 20], [1.0])
