"""Units of the transport-agnostic pool core (``repro.execution.pool``)."""

from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TrainingConfig
from repro.execution.pool import (
    absorb_rng_state,
    balance,
    ledger_state,
    serve_train,
    train_client,
)
from repro.experiments.scenarios import build_population_scenario
from repro.nn import build_mlp
from tests.conftest import advance_train_stream, make_test_client

TRAIN = TrainingConfig(optimizer="rmsprop", lr=0.05, lr_decay=0.99)

#: A batch to deal: unique keys in request order, one cost each.
batches = st.lists(
    st.tuples(st.integers(0, 10**6), st.integers(0, 10**4)), max_size=40, unique_by=lambda kc: kc[0]
)
#: Live workers (ids not necessarily contiguous) -> capacity.
pools = st.dictionaries(st.integers(0, 9), st.integers(1, 4), min_size=1, max_size=5)


def _deal(batch, capacities):
    keys, costs = [k for k, _ in batch], [c for _, c in batch]
    return balance(keys, costs, sorted(capacities), capacities)


def _max_load(owner_of, batch, capacities):
    """The capacity-weighted load of the most loaded worker, exactly."""
    load = {wid: Fraction(0) for wid in capacities}
    for key, cost in batch:
        load[owner_of[key]] += Fraction(cost, capacities[owner_of[key]])
    return max(load.values())


class TestBalance:
    @given(batches, pools)
    def test_every_key_once_and_only_to_a_live_worker(self, batch, capacities):
        dealt = _deal(batch, capacities)
        assert set(dealt) <= set(capacities)
        assert all(dealt.values())  # a worker dealt nothing is absent
        assert sorted(k for keys in dealt.values() for k in keys) == sorted(k for k, _ in batch)

    @given(batches, pools, st.randoms(use_true_random=False))
    def test_a_pure_function_of_its_inputs(self, batch, capacities, rnd):
        shuffled = dict(sorted(capacities.items(), key=lambda _: rnd.random()))
        assert _deal(batch, capacities) == _deal(list(batch), shuffled)

    @given(batches, pools)
    def test_request_order_is_kept_per_worker(self, batch, capacities):
        position = {key: i for i, (key, _) in enumerate(batch)}
        for keys in _deal(batch, capacities).values():
            assert [position[k] for k in keys] == sorted(position[k] for k in keys)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 20), min_size=1, max_size=6),
        st.lists(st.integers(1, 3), min_size=1, max_size=3),
    )
    def test_max_load_within_four_thirds_of_optimal(self, costs, caps):
        batch = list(enumerate(costs))
        capacities = dict(enumerate(caps))
        dealt = _deal(batch, capacities)
        ours = _max_load({k: w for w, keys in dealt.items() for k in keys}, batch, capacities)
        best = min(
            _max_load(dict(enumerate(owners)), batch, capacities)
            for owners in product(capacities, repeat=len(costs))
        )
        assert ours <= Fraction(4, 3) * best

    def test_equal_costs_alternate_and_capacity_weights_the_share(self):
        assert balance([5, 0, 3, 4], [1] * 4, [0, 1], {0: 1, 1: 1}) == {1: [5, 3], 0: [0, 4]}
        dealt = balance(list(range(6)), [1] * 6, [0, 1], {0: 2, 1: 1})
        assert sorted(map(len, dealt.values())) == [2, 4] and len(dealt[0]) == 4

    def test_the_costliest_key_goes_first(self):
        # One heavy client and three light ones: the heavy one alone on
        # a worker, where a deal by id would pair it with a light one.
        assert balance([0, 1, 2, 3], [90, 10, 10, 10], [0, 1], {0: 1, 1: 1}) == {
            0: [0], 1: [1, 2, 3],
        }


class TestWorkerOpAndLedger:
    def test_train_client_is_simclient_train_plus_the_state_read(self):
        g = build_mlp((4, 4, 1), 3, hidden=(8,), rng=3).get_flat_weights()
        factory = TRAIN.optimizer_factory(0)
        ours, theirs = (make_test_client(client_id=2, seed=3) for _ in range(2))
        w, n, state = train_client(
            ours, build_mlp((4, 4, 1), 3, hidden=(8,), rng=1), g, factory, TRAIN, 2
        )
        ref = theirs.train(
            build_mlp((4, 4, 1), 3, hidden=(8,), rng=1),
            g,
            factory,
            batch_size=TRAIN.batch_size,
            epochs=2,
            prox_mu=TRAIN.prox_mu,
        )
        assert w.tobytes() == ref.tobytes()
        assert n == theirs.num_train_samples
        assert state == theirs._train_rng.bit_generator.state

    def test_absorb_writes_the_store_ledger_without_materialising(self):
        scn = build_population_scenario(num_clients=20, clients_per_round=5, seed=11)
        store = scn.population
        donor = build_population_scenario(
            num_clients=20, clients_per_round=5, seed=11
        ).population.materialize(3)
        advance_train_stream(donor)
        state = donor._train_rng.bit_generator.state
        before = store.materialize_count
        absorb_rng_state(store, 3, state)
        absorb_rng_state(store, 4, None)  # nothing shipped: a no-op
        assert store.materialize_count == before
        assert store.rng_state_of(3) == (state, None)
        assert store.rng_state_of(4) == (None, None)

    def test_absorb_writes_an_eager_pool_in_place(self):
        pool = {0: make_test_client(client_id=0, seed=5)}
        donor = make_test_client(client_id=0, seed=5)
        advance_train_stream(donor)
        state = donor._train_rng.bit_generator.state
        absorb_rng_state(pool, 0, state)
        assert pool[0]._train_rng.bit_generator.state == state

    def test_the_ledger_state_a_job_carries(self):
        store = build_population_scenario(num_clients=20, clients_per_round=5, seed=11).population
        assert ledger_state(store, 3) is None  # never advanced: nothing to carry
        pool = {0: make_test_client(client_id=0, seed=5)}
        assert ledger_state(pool, 0) == pool[0]._train_rng.bit_generator.state
        advance_train_stream(pool[0])
        absorb_rng_state(store, 3, pool[0]._train_rng.bit_generator.state)
        assert ledger_state(store, 3) == pool[0]._train_rng.bit_generator.state


class TestServeTrain:
    """A worker trains each job from the state it carries, never from a
    position it advanced itself."""

    def _serve(self, clients, jobs, origins):
        replies = []
        serve_train(
            clients, build_mlp((4, 4, 1), 3, hidden=(8,), rng=1),
            build_mlp((4, 4, 1), 3, hidden=(8,), rng=3).get_flat_weights(), TRAIN, 0, jobs,
            lambda cid, w, n, state: replies.append((cid, w.tobytes(), state)),
            lambda cid, tb: replies.append((cid, tb)), origins,
        )
        return replies

    def test_a_retried_first_job_restarts_from_where_the_worker_found_it(self):
        clients, origins = {2: make_test_client(client_id=2, seed=3)}, {}
        first = self._serve(clients, [(2, 1, None)], origins)
        # Its update was never merged: the retry carries no state again.
        again = self._serve(clients, [(2, 1, None)], origins)
        assert again == first and list(origins) == [2]
        # Once the ledger has the advanced state, the job carries it.
        advanced = first[0][2]
        self._serve(clients, [(2, 1, advanced)], origins)
        assert origins == {}

    def test_a_carried_state_wins_over_the_local_copy(self):
        here, there = (make_test_client(client_id=4, seed=9) for _ in range(2))
        state = here._train_rng.bit_generator.state
        advance_train_stream(here)  # this worker's copy ran ahead
        ours = self._serve({4: here}, [(4, 2, state)], {})
        theirs = self._serve({4: there}, [(4, 2, state)], {})
        assert ours == theirs
