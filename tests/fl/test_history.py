"""Tests for the training history container."""

import numpy as np
import pytest

from repro.fl.history import RoundRecord, TrainingHistory


def record(r, lat=1.0, t=None, acc=None, tier=None):
    return RoundRecord(
        round_idx=r,
        round_latency=lat,
        sim_time=t if t is not None else float(r + 1),
        accuracy=acc,
        selected=(0, 1),
        tier=tier,
    )


def sample_history():
    h = TrainingHistory()
    for r in range(5):
        h.append(record(r, lat=2.0, t=2.0 * (r + 1), acc=0.1 * (r + 1), tier=r % 2))
    return h


class TestAppend:
    def test_monotone_rounds_enforced(self):
        h = TrainingHistory()
        h.append(record(0))
        with pytest.raises(ValueError, match="increase"):
            h.append(record(0))

    def test_len(self):
        assert len(sample_history()) == 5


class TestSeries:
    def test_rounds_and_latencies(self):
        h = sample_history()
        assert [r.round_idx for r in h.records] == list(range(5))
        np.testing.assert_array_equal(h.round_latencies, [2.0] * 5)

    def test_total_time(self):
        assert sample_history().total_time == 10.0

    def test_empty_total_time(self):
        assert TrainingHistory().total_time == 0.0

    def test_accuracy_series_skips_unevaluated(self):
        h = TrainingHistory()
        h.append(record(0, acc=0.5))
        h.append(record(1, acc=None))
        h.append(record(2, acc=0.7))
        rounds, accs = h.accuracy_series()
        np.testing.assert_array_equal(rounds, [0, 2])
        np.testing.assert_allclose(accs, [0.5, 0.7])

    def test_accuracy_over_time(self):
        h = sample_history()
        times, accs = h.accuracy_over_time()
        np.testing.assert_allclose(times, [2, 4, 6, 8, 10])
        np.testing.assert_allclose(accs, [0.1, 0.2, 0.3, 0.4, 0.5])

    def test_final_and_best(self):
        h = sample_history()
        assert h.final_accuracy == pytest.approx(0.5)

    def test_no_accuracy_raises(self):
        h = TrainingHistory()
        h.append(record(0))
        with pytest.raises(ValueError):
            _ = h.final_accuracy

    def test_accuracy_at_time(self):
        h = sample_history()
        assert h.accuracy_at_time(6.0) == pytest.approx(0.3)
        assert h.accuracy_at_time(0.5) == 0.0

    def test_rounds_within_time(self):
        assert sample_history().rounds_within_time(6.0) == 3


class TestCounts:
    def test_tier_counts(self):
        h = sample_history()
        assert h.tier_selection_counts() == {0: 3, 1: 2}

    def test_tierless_uses_sentinel(self):
        h = TrainingHistory()
        h.append(record(0, tier=None))
        assert h.tier_selection_counts() == {-1: 1}

    def test_selection_counts(self):
        h = sample_history()
        assert h.selection_counts() == {0: 5, 1: 5}

    def test_summary_readable(self):
        s = sample_history().summary()
        assert "5 rounds" in s and "final_acc=0.5000" in s
