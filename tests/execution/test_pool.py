"""Units of the transport-agnostic pool core (``repro.execution.pool``)."""

from itertools import groupby

from hypothesis import given
from hypothesis import strategies as st

from repro.config import TrainingConfig
from repro.execution.pool import (
    absorb_rng_state,
    deal,
    group_by_owner,
    owned_by,
    train_client,
)
from repro.experiments.scenarios import build_population_scenario
from repro.nn import build_mlp
from tests.conftest import make_test_client

TRAIN = TrainingConfig(optimizer="rmsprop", lr=0.05, lr_decay=0.99)

client_ids = st.lists(st.integers(0, 10**6), unique=True, max_size=60).map(sorted)
capacities = st.lists(st.integers(1, 4), min_size=1, max_size=5)


def _cycle(caps):
    """The coordinator's capacity-weighted cycle for workers 0..len-1."""
    return [wid for wid, cap in enumerate(caps) for _ in range(cap)]


class TestDeal:
    @given(client_ids, capacities)
    def test_every_id_gets_exactly_one_owner_in_capacity_runs(self, ids, caps):
        owner = deal(ids, _cycle(caps))
        assert list(owner) == ids
        assert set(owner.values()) <= set(range(len(caps)))
        # Within every full turn of the cycle a capacity-k worker holds k
        # consecutive slots, in worker order.
        turn = sum(caps)
        for start in range(0, len(ids) - turn + 1, turn):
            owners = [owner[cid] for cid in ids[start : start + turn]]
            runs = [(wid, len(list(run))) for wid, run in groupby(owners)]
            assert runs == list(enumerate(caps))

    @given(client_ids, st.integers(1, 8))
    def test_unit_capacities_are_the_process_pin(self, ids, n):
        assert deal(ids, range(n)) == {cid: i % n for i, cid in enumerate(ids)}

    @given(client_ids, capacities.filter(lambda caps: len(caps) > 1), st.data())
    def test_redealing_orphans_never_moves_a_non_orphan(self, ids, caps, data):
        owner = deal(ids, _cycle(caps))
        dead = data.draw(st.integers(0, len(caps) - 1))
        orphans = owned_by(owner, dead)
        survivors = [wid for wid in _cycle(caps) if wid != dead]
        after = {**owner, **deal(orphans, survivors)}
        assert dead not in after.values()
        assert all(after[cid] == owner[cid] for cid in ids if cid not in orphans)
        assert sorted(after) == ids

    def test_group_by_owner_keeps_request_order_per_worker(self):
        owner = deal(range(6), [0, 1])
        jobs = [(5, 1), (0, 2), (3, 1), (4, 1)]
        grouped = group_by_owner(jobs, owner, key=lambda job: job[0])
        assert grouped == {1: [(5, 1), (3, 1)], 0: [(0, 2), (4, 1)]}
        assert list(grouped) == [1, 0]  # first-seen order


class TestWorkerOpAndDirectory:
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
        donor.epoch_shuffle()
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
        donor.epoch_shuffle()
        state = donor._train_rng.bit_generator.state
        absorb_rng_state(pool, 0, state)
        assert pool[0]._train_rng.bit_generator.state == state
