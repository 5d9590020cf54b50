"""The folded train path: ``train_cohort(..., accumulator=acc)``.

With an accumulator each backend adds every update's vector to it in
request order and returns the updates without their vectors.  The
folded mean must be the bits :func:`fedavg` gives over the vectors the
same cohort returns without one, on an identically built federation, on
every backend: folding moves no numerics, it only keeps no cohort.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TrainingConfig
from repro.execution import EXECUTOR_BACKENDS, TrainRequest
from repro.fl.aggregator import FedAvgAccumulator, fedavg
from repro.nn import build_mlp
from tests.conftest import assert_bits_equal, make_test_population, open_executor

TRAIN = TrainingConfig(optimizer="rmsprop", lr=0.05, lr_decay=0.99)
NUM_CLIENTS = 8


def bound_executor(stack, backend):
    """A fresh federation (the same one every call) and a ``backend``
    executor bound to it, closed with ``stack``."""
    executor = stack.enter_context(open_executor(backend, 2))
    model = build_mlp((4, 4, 1), 3, hidden=(6,), rng=5)
    executor.bind(make_test_population(NUM_CLIENTS, n=24, seed=5), model, TRAIN)
    return executor, model.get_flat_weights()


@pytest.fixture(scope="module", params=EXECUTOR_BACKENDS)
def twins(request):
    """``(folding, returning, weights)``: two executors of one backend on
    twin federations, which stay twins while both train the same
    cohorts."""
    with contextlib.ExitStack() as stack:
        folding, weights = bound_executor(stack, request.param)
        returning, _ = bound_executor(stack, request.param)
        yield folding, returning, weights


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_folded_mean_is_fedavg_of_the_returned_vectors(twins, data):
    folding, returning, weights = twins
    ids = data.draw(
        st.lists(st.integers(0, NUM_CLIENTS - 1), min_size=1, max_size=6, unique=True),
        label="cohort",
    )
    epochs = data.draw(st.lists(st.integers(1, 2), min_size=len(ids), max_size=len(ids)))
    round_idx = data.draw(st.integers(0, 3), label="round")
    requests = [TrainRequest(cid, epochs=e) for cid, e in zip(ids, epochs)]

    acc = FedAvgAccumulator()
    folded = folding.train_cohort(round_idx, requests, weights, accumulator=acc)
    returned = returning.train_cohort(round_idx, requests, weights)

    assert [u.flat_weights for u in folded] == [None] * len(ids)
    assert [(u.client_id, u.num_samples) for u in folded] == [
        (u.client_id, u.num_samples) for u in returned
    ]
    expected = fedavg(
        [u.flat_weights for u in returned], [u.num_samples for u in returned]
    )
    assert_bits_equal(acc.mean(), expected)


def test_a_cohort_without_an_accumulator_keeps_its_vectors():
    with contextlib.ExitStack() as stack:
        executor, weights = bound_executor(stack, "serial")
        updates = executor.train_cohort(0, [TrainRequest(0), TrainRequest(3)], weights)
    assert all(isinstance(u.flat_weights, np.ndarray) for u in updates)
    assert not np.shares_memory(updates[0].flat_weights, updates[1].flat_weights)
