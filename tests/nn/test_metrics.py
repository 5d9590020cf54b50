"""Tests for evaluation metrics."""

import numpy as np
import pytest

from repro.nn.metrics import top_k_accuracy


class TestTopK:
    def test_k1_equals_accuracy(self, rng):
        logits = rng.standard_normal((20, 5))
        labels = rng.integers(0, 5, size=20)
        assert top_k_accuracy(logits, labels, k=1) == pytest.approx(
            np.mean(np.argmax(logits, axis=1) == labels)
        )

    def test_k_equals_classes_is_one(self, rng):
        logits = rng.standard_normal((10, 4))
        labels = rng.integers(0, 4, size=10)
        assert top_k_accuracy(logits, labels, k=4) == 1.0

    def test_monotone_in_k(self, rng):
        logits = rng.standard_normal((50, 6))
        labels = rng.integers(0, 6, size=50)
        accs = [top_k_accuracy(logits, labels, k=k) for k in range(1, 7)]
        assert all(b >= a for a, b in zip(accs, accs[1:]))

    def test_invalid_k(self, rng):
        logits = rng.standard_normal((5, 3))
        with pytest.raises(ValueError):
            top_k_accuracy(logits, np.zeros(5, dtype=int), k=0)
        with pytest.raises(ValueError):
            top_k_accuracy(logits, np.zeros(5, dtype=int), k=4)

    def test_bad_ndim_raises(self):
        with pytest.raises(ValueError, match="2-D"):
            top_k_accuracy(np.zeros(4), np.zeros(4, dtype=int), k=1)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            top_k_accuracy(np.zeros((0, 3)), np.zeros(0, dtype=int), k=1)
