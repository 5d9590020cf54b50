"""Tests for FedAvg aggregation."""

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TrainingConfig
from repro.fl.aggregator import FedAvgAccumulator, fedavg
from repro.fl.selection import RandomSelector
from repro.fl.server import FLServer
from repro.nn import build_linear
from repro.simcluster.client import SimClient
from tests.conftest import assert_bits_equal, make_test_population, make_tiny_dataset


class TestFedAvg:
    def test_equal_sizes_is_mean(self, rng):
        ws = [rng.standard_normal(5) for _ in range(4)]
        out = fedavg(ws, [10, 10, 10, 10])
        np.testing.assert_allclose(out, np.mean(ws, axis=0))

    def test_weighted_mean(self):
        out = fedavg([np.zeros(2), np.ones(2)], [1, 3])
        np.testing.assert_allclose(out, 0.75)

    def test_single_client_identity(self, rng):
        w = rng.standard_normal(7)
        np.testing.assert_array_equal(fedavg([w], [5]), w)

    def test_alg1_line8_formula(self, rng):
        """Exact check of w = sum(w_c s_c) / sum(s_c)."""
        ws = [rng.standard_normal(6) for _ in range(3)]
        s = [2.0, 5.0, 3.0]
        expected = sum(w * si for w, si in zip(ws, s)) / sum(s)
        np.testing.assert_allclose(fedavg(ws, s), expected)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="at least one"):
            fedavg([], [])

    def test_length_mismatch_raises(self, rng):
        with pytest.raises(ValueError, match="sizes"):
            fedavg([rng.standard_normal(3)], [1, 2])

    def test_zero_total_raises(self, rng):
        with pytest.raises(ValueError, match="positive"):
            fedavg([rng.standard_normal(3)], [0])

    def test_negative_size_raises(self, rng):
        with pytest.raises(ValueError, match="non-negative"):
            fedavg([rng.standard_normal(3), rng.standard_normal(3)], [1, -1])

    @pytest.mark.parametrize("sizes", [[np.nan], [np.inf, 1.0], [1.0, -np.inf], [2.0, np.nan]])
    def test_non_finite_size_raises(self, rng, sizes):
        ws = [rng.standard_normal(3) for _ in sizes]
        with pytest.raises(ValueError, match="finite"):
            fedavg(ws, sizes)

    @pytest.mark.parametrize(
        "weights",
        [
            [np.zeros(3), np.zeros(4)],
            [np.zeros(4), np.zeros(3)],
            [np.zeros((2, 3)), np.zeros((2, 3))],
            [np.zeros(3), np.zeros((1, 3))],
            [np.float64(1.0), np.float64(2.0)],
        ],
        ids=["ragged", "ragged-shorter-later", "2-d", "2-d-later", "scalars"],
    )
    def test_vectors_of_other_shapes_raise_by_their_own_message(self, weights):
        with pytest.raises(ValueError, match="all weight vectors must be 1-D and equal length"):
            fedavg(weights, [1.0] * len(weights))


class TestFedAvgAccumulator:
    """What :func:`fedavg` over a list does not show: the accumulator
    across calls.  Its sizes, shapes and bits are checked through
    :func:`fedavg` above and ``tests/fl/test_fedavg_pins.py``."""

    def test_mean_hands_over_its_buffer_and_empties(self, rng):
        w = rng.standard_normal(4)
        acc = FedAvgAccumulator()
        acc.add(w, 2)
        out = acc.mean()
        assert not np.shares_memory(out, w)
        with pytest.raises(ValueError, match="at least one"):
            acc.mean()

    def test_an_added_vector_is_not_written(self, rng):
        ws = [rng.standard_normal(4) for _ in range(3)]
        before = [w.copy() for w in ws]
        acc = FedAvgAccumulator()
        for w in ws:
            acc.add(w, 3)
        acc.mean()
        for w, b in zip(ws, before):
            assert_bits_equal(w, b)



def track_client_vectors(monkeypatch):
    """Weak refs to every vector :meth:`SimClient.train` returns, in
    call order (a list the caller reads as training goes)."""
    refs = []
    train = SimClient.train

    def tracked(self, *args, **kwargs):
        weights = train(self, *args, **kwargs)
        refs.append(weakref.ref(weights))
        return weights

    monkeypatch.setattr(SimClient, "train", tracked)
    return refs


class TestAggregationMemory:
    """What aggregation keeps alive: the running sum and one product
    inside :func:`fedavg`, one client vector at a time while a serial
    round trains, and none past the aggregate phase."""

    def test_fedavg_peaks_below_three_vectors(self, rng):
        length = 2**18
        weights = list(rng.standard_normal((8, length)))
        sizes = [float(s) for s in range(1, 9)]
        tracemalloc.start()
        try:
            fedavg(weights, sizes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output and one product; a stacked sum needs ~2*C*P*8
        assert peak < 3 * length * 8

    def test_a_round_keeps_no_client_vector_past_aggregation(self, monkeypatch):
        trained = track_client_vectors(monkeypatch)
        server = FLServer(
            clients=make_test_population(6, seed=0),
            model=build_linear((4, 4, 1), 3, rng=0),
            selector=RandomSelector(3, rng=0),
            test_data=make_tiny_dataset(n=30, seed=999),
            training=TrainingConfig(optimizer="sgd", lr=0.1, lr_decay=1.0),
            rng=0,
        )
        consumed, alive_at_eval = [], []
        train, evaluate = server._stage_train, server._stage_eval

        def stage_train(ctx):
            refs = [weakref.ref(ctx.broadcast_weights)]
            start = len(trained)
            train(ctx)
            refs += trained[start:]
            consumed.append(refs)

        def stage_eval(ctx):
            alive_at_eval.append([ref() is not None for ref in consumed[-1]])
            evaluate(ctx)

        server._stage_train, server._stage_eval = stage_train, stage_eval
        server.run(3)
        assert alive_at_eval == [[False] * 4] * 3

    def test_a_serial_round_holds_at_most_two_client_vectors(self, monkeypatch):
        """Each update folds into the sum before the next client trains:
        a round of 10 holds the one being trained and at most one more,
        where a round that returns its cohort holds all 10 at the
        aggregate phase."""
        trained = track_client_vectors(monkeypatch)
        server = FLServer(
            clients=make_test_population(10, seed=1),
            model=build_linear((4, 4, 1), 3, rng=1),
            selector=RandomSelector(10, rng=1),
            test_data=make_tiny_dataset(n=30, seed=999),
            training=TrainingConfig(optimizer="sgd", lr=0.1, lr_decay=1.0),
            executor="serial",
            rng=1,
        )
        alive = []
        train_client, aggregate = SimClient.train, server._stage_aggregate

        def count_then_train(client, *args, **kwargs):
            alive.append(1 + sum(ref() is not None for ref in trained))
            return train_client(client, *args, **kwargs)

        def count_then_aggregate(ctx):
            alive.append(sum(ref() is not None for ref in trained))
            aggregate(ctx)

        monkeypatch.setattr(SimClient, "train", count_then_train)
        server._stage_aggregate = count_then_aggregate
        server.run(2)
        assert len(trained) == 20 and len(alive) == 22
        assert max(alive) <= 2, alive


# ---------------------------------------------------------------------------
# property-based invariants
# ---------------------------------------------------------------------------
finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.lists(finite, min_size=3, max_size=3), st.integers(1, 100)),
        min_size=1,
        max_size=8,
    )
)
def test_fedavg_convexity_property(data):
    """FedAvg output is a convex combination: bounded by min/max per coord."""
    ws = [np.asarray(w) for w, _ in data]
    sizes = [float(s) for _, s in data]
    out = fedavg(ws, sizes)
    stacked = np.stack(ws)
    assert np.all(out >= stacked.min(axis=0) - 1e-9)
    assert np.all(out <= stacked.max(axis=0) + 1e-9)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), scale=st.floats(0.1, 10.0))
def test_fedavg_size_scale_invariance(seed, scale):
    """Multiplying all sizes by a constant leaves the average unchanged."""
    rng = np.random.default_rng(seed)
    ws = [rng.standard_normal(5) for _ in range(4)]
    sizes = rng.integers(1, 20, size=4).astype(float)
    np.testing.assert_allclose(
        fedavg(ws, sizes), fedavg(ws, sizes * scale), rtol=1e-10
    )
