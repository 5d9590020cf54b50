"""Tests for the columnar population store.

The two properties the architecture doc leans on live here:

* ``PopulationStore.materialize`` is **bit-identical** to an eager
  per-client construction loop (``spawn(rng, N)`` + the ``SimClient``
  constructor, kept here as the reference) for *any* subset and order
  of ids -- data splits, resource specs, and both private RNG states
  all match.
* LRU eviction never changes RNG stream *positions*: a client trained,
  evicted, and re-materialised continues its streams exactly where a
  never-evicted twin would.
"""

from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.scenarios import ScenarioConfig, build_scenario
from repro.rng import make_rng, spawn
from repro.serialization import shard_from_bytes, shard_to_bytes
from repro.simcluster.client import SimClient
from repro.simcluster.clock import SimulatedClock
from repro.simcluster.population import (
    DiurnalSchedule,
    PopulationStore,
    SeedAddress,
)
from repro.simcluster.resources import MNIST_CPU_GROUPS, assign_resource_groups
from repro.tifl.tiering import Tier, TierAssignment
from tests.conftest import make_test_population

NUM_CLIENTS = 20  # divisible by the 5 resource groups

SMALL_CFG = ScenarioConfig(
    dataset="mnist",
    num_clients=NUM_CLIENTS,
    clients_per_round=5,
    train_size=400,
    test_size=60,
)


@pytest.fixture(scope="module")
def store_scenario():
    return build_scenario(SMALL_CFG, seed=7)


@pytest.fixture(scope="module")
def eager_clients(store_scenario):
    """The reference ``materialize`` is checked against: one eagerly
    constructed ``SimClient`` per client, seeded by actually spawning
    ``build_scenario``'s client seed generator (child 3 of the scenario
    seed) N times."""
    client_seed_rng = spawn(make_rng(7), 4)[3]
    client_rngs = spawn(client_seed_rng, NUM_CLIENTS)
    specs = assign_resource_groups(NUM_CLIENTS, MNIST_CPU_GROUPS)
    return [
        SimClient(
            client_id=cid,
            data=store_scenario.fed.train.subset(store_scenario.fed.client_indices[cid]),
            spec=specs[cid],
            latency_model=store_scenario.latency_model,
            comm_model=store_scenario.comm_model,
            holdout_fraction=SMALL_CFG.holdout_fraction,
            rng=client_rngs[cid],
        )
        for cid in range(NUM_CLIENTS)
    ]


def fresh_store(template: PopulationStore, cache_size: int) -> PopulationStore:
    """A pristine store over the same population (empty cache/ledger).

    Rebuilding via the captured :class:`SeedAddress` is exactly what a
    fresh ``build_scenario`` would do, without re-generating the
    dataset.
    """
    return PopulationStore(
        num_samples=template.num_samples,
        cpu_fraction=template.cpu_fraction,
        bandwidth_mbps=template.bandwidth_mbps,
        group=template.group,
        dataset_for=template._dataset_for,
        latency_model=template.latency_model,
        comm_model=template.comm_model,
        holdout_fraction=template.holdout_fraction,
        min_holdout=template.min_holdout,
        seed_address=template.seed_address,
        cache_size=cache_size,
    )


def assert_clients_identical(lazy, eager):
    assert lazy.client_id == eager.client_id
    assert lazy.spec == eager.spec
    assert lazy.num_train_samples == eager.num_train_samples
    assert np.array_equal(lazy.holdout.x, eager.holdout.x)
    assert np.array_equal(lazy.holdout.y, eager.holdout.y)
    assert np.array_equal(lazy.train_data.x, eager.train_data.x)
    assert np.array_equal(lazy.train_data.y, eager.train_data.y)
    assert (
        lazy._train_rng.bit_generator.state
        == eager._train_rng.bit_generator.state
    )
    assert (
        lazy._latency_rng.bit_generator.state
        == eager._latency_rng.bit_generator.state
    )


class TestSeedAddress:
    @pytest.mark.parametrize(
        "entropy", [42, [1, 2], np.array([3, 4])], ids=["int", "list", "array"]
    )
    def test_child_matches_spawn(self, entropy):
        """Also for a list- or array-seeded sequence, whose entropy the
        address keeps as a tuple: it hashes and replays the sequence."""
        rng = make_rng(np.random.SeedSequence(entropy))
        addr = SeedAddress.capture(rng)
        assert hash(addr) == hash(SeedAddress.capture(rng))
        seq = rng.bit_generator.seed_seq
        assert addr.sequence().generate_state(4).tolist() == seq.generate_state(4).tolist()
        spawned = spawn(make_rng(np.random.SeedSequence(entropy)), 8)
        for i, child_rng in enumerate(spawned):
            rebuilt = make_rng(addr.child(i))
            assert (
                rebuilt.bit_generator.state == child_rng.bit_generator.state
            )

    def test_value_draws_do_not_shift_the_address(self):
        rng = make_rng(5)
        before = SeedAddress.capture(rng)
        rng.random(100)  # value draws never advance the spawn counter
        after = SeedAddress.capture(rng)
        assert before == after

    def test_prior_spawns_are_recorded_in_base(self):
        rng = make_rng(5)
        spawn(rng, 3)
        addr = SeedAddress.capture(rng)
        assert addr.base == 3
        # child(0) now is what the *next* spawn batch would start with
        nxt = spawn(make_rng(5), 4)[3]
        assert (
            make_rng(addr.child(0)).bit_generator.state
            == nxt.bit_generator.state
        )
        assert addr.sequence().n_children_spawned == 3


class TestMaterializeBitIdentity:
    """materialize(cid) == the eager reference client, any subset/order."""

    @settings(max_examples=25, deadline=None)
    @given(
        ids=st.lists(
            st.integers(min_value=0, max_value=NUM_CLIENTS - 1),
            min_size=1,
            max_size=12,
        ),
        cache_size=st.integers(min_value=1, max_value=NUM_CLIENTS),
    )
    def test_any_subset_any_order(
        self, eager_clients, store_scenario, ids, cache_size
    ):
        store = fresh_store(store_scenario.clients, cache_size)
        for cid in ids:
            assert_clients_identical(store.materialize(cid), eager_clients[cid])

    def test_columns_match_eager_holdout_arithmetic(
        self, eager_clients, store_scenario
    ):
        store = store_scenario.clients
        for cid, client in enumerate(eager_clients):
            assert store.holdout_size[cid] == len(client.holdout)
            assert store.num_train_samples[cid] == client.num_train_samples
            assert store.spec_of(cid) == client.spec

    def test_cache_hit_returns_same_object(self, store_scenario):
        store = fresh_store(store_scenario.clients, cache_size=4)
        a = store.materialize(3)
        assert store.materialize(3) is a
        assert store.materialize_count == 1

    def test_unknown_client_raises(self, store_scenario):
        store = store_scenario.clients
        with pytest.raises(KeyError):
            store.materialize(NUM_CLIENTS)


class TestLRUEviction:
    """Eviction + re-materialisation never moves an RNG stream."""

    @settings(max_examples=20, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=7),  # client id
                st.booleans(),  # advance its train stream?
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_tiny_cache_matches_unbounded_cache(self, store_scenario, steps):
        tiny = fresh_store(store_scenario.clients, cache_size=2)
        roomy = fresh_store(store_scenario.clients, cache_size=NUM_CLIENTS)
        for cid, advance in steps:
            a, b = tiny.materialize(cid), roomy.materialize(cid)
            if advance:
                assert np.array_equal(a.epoch_shuffle(), b.epoch_shuffle())
        # Every touched client's streams ended at the same position.
        for cid in {cid for cid, _ in steps}:
            assert_clients_identical(tiny.materialize(cid), roomy.materialize(cid))

    def test_evict_all_snapshots_states(self, store_scenario):
        store = fresh_store(store_scenario.clients, cache_size=8)
        client = store.materialize(0)
        first = client.epoch_shuffle()
        state = client._train_rng.bit_generator.state
        store.evict_all()
        assert store.resident == 0
        again = store.materialize(0)
        assert again is not client
        assert again._train_rng.bit_generator.state == state
        # The stream continued, it did not replay.
        assert not np.array_equal(again.epoch_shuffle(), first)

    def test_cache_bound_is_respected(self, store_scenario):
        store = fresh_store(store_scenario.clients, cache_size=3)
        for cid in range(10):
            store.materialize(cid)
        assert store.resident == 3


class TestLazyMapping:
    def test_mapping_protocol(self, store_scenario):
        clients = store_scenario.clients
        assert isinstance(clients, Mapping)
        assert clients.lazy is True
        assert len(clients) == NUM_CLIENTS
        assert 0 in clients and NUM_CLIENTS not in clients
        assert "0" not in clients
        assert list(iter(clients)) == list(range(NUM_CLIENTS))
        assert clients[2].client_id == 2
        with pytest.raises(KeyError):
            clients[NUM_CLIENTS]
        # Equality is identity: Mapping's value comparison would
        # materialise both populations.
        before = clients.materialize_count
        assert clients != fresh_store(clients, cache_size=4)
        assert clients.materialize_count == before


class TestAvailability:
    def test_available_ids_ascending_with_exclusions(self, store_scenario):
        store = fresh_store(store_scenario.clients, cache_size=4)
        assert np.array_equal(store.available_ids(), np.arange(NUM_CLIENTS))
        store.set_available([3, 5], False)
        ids = store.available_ids(excluded=[0, 7])
        assert ids.dtype == np.int64
        assert np.array_equal(ids, np.sort(ids))
        assert not {0, 3, 5, 7} & set(ids.tolist())
        # Exclusion is per-call: the column itself is untouched.
        assert store.availability_fraction() == (NUM_CLIENTS - 2) / NUM_CLIENTS

    def test_id_list_is_read_only(self, store_scenario):
        """A write that bypassed the store would leave the memoised id
        list stale, so the id list refuses it."""
        store = fresh_store(store_scenario.clients, cache_size=4)
        with pytest.raises(ValueError, match="read-only"):
            store.available_ids()[0] = 5
        assert store.availability_fraction() == 1.0

    def test_id_list_is_rescanned_on_change_only(self, store_scenario):
        store = fresh_store(store_scenario.clients, cache_size=4)
        first = store.available_ids()
        assert store.available_ids() is first
        assert store.available_ids(excluded=set()) is first
        # Exclusions are per-call scans and leave the memo alone.
        assert 4 not in store.available_ids(excluded={4}).tolist()
        assert store.available_ids() is first
        assert store.availability_scans == 2
        store.set_available([4], False)
        second = store.available_ids()
        assert second is not first and 4 not in second.tolist()
        assert 4 in first.tolist()  # the old answer is a value, not a view
        assert store.available_ids() is second
        assert store.availability_scans == 3

    def test_set_tier_assignment_fills_column(self, store_scenario):
        store = fresh_store(store_scenario.clients, cache_size=4)
        assignment = TierAssignment(
            tiers=[
                Tier(0, tuple(range(0, 10)), 1.0, 0.5, 1.5),
                Tier(1, tuple(range(10, 18)), 2.0, 1.5, 2.5),
            ]
        )
        store.set_tier_assignment(assignment)
        assert np.all(store.tier[:10] == 0)
        assert np.all(store.tier[10:18] == 1)
        assert np.all(store.tier[18:] == -1)  # unassigned stays -1


class TestShardStoreWrites:
    """Availability and tier writes take *global* ids on a shard store too
    (they used to index rows: ``set_available([2], False)`` over ids
    ``[1, 2, 3, 50]`` switched off client 3, over ``[10, 20, 30]`` raised
    ``IndexError``).  Every answer is checked against the full store's."""

    IDS = [10, 20, 30]

    @pytest.fixture
    def pair(self):
        full = make_test_population(40)
        return full, PopulationStore.from_columns(full.shard(self.IDS))

    def test_set_available(self, pair):
        full, shard = pair
        for store in pair:
            store.set_available([20], False)
        assert shard.available_ids().tolist() == [10, 30]
        assert np.array_equal(shard._available, full._available[self.IDS])
        with pytest.raises(KeyError):
            shard.set_available([2], False)

        full = make_test_population(51)
        shard = PopulationStore.from_columns(full.shard([1, 2, 3, 50]))
        shard.set_available([2], False)
        assert shard.available_ids().tolist() == [1, 3, 50]

    def test_set_tier_assignment(self, pair):
        full, shard = pair
        assignment = TierAssignment(
            tiers=[
                Tier(0, (10, 30), 1.0, 0.5, 1.5),
                Tier(1, (20,), 2.0, 1.5, 2.5),
            ]
        )
        for store in pair:
            store.set_tier_assignment(assignment)
        assert shard.tier.tolist() == [0, 1, 0]
        assert np.array_equal(shard.tier, full.tier[self.IDS])

    def test_diurnal_phase_follows_the_client_id(self, pair):
        full, shard = pair
        schedule = DiurnalSchedule(period=100.0, duty_cycle=0.5, num_phases=4)
        clocks = [SimulatedClock(), SimulatedClock()]
        for store, clock in zip(pair, clocks):
            store.attach_diurnal(clock, schedule)
        for _ in range(9):
            # ids 10 and 30 share phase 2, id 20 is phase 0; rows 0, 1, 2
            # would have been three different phases.
            assert np.array_equal(shard._available, full._available[self.IDS])
            assert shard.available_ids().tolist() == [
                cid for cid in self.IDS if full._available[cid]
            ]
            for clock in clocks:
                clock.advance(12.5)


class TestDiurnal:
    def test_initial_window_and_edge_flips(self, store_scenario):
        store = fresh_store(store_scenario.clients, cache_size=4)
        clock = SimulatedClock()
        # 4 phases over 100 s, 50% duty: phase p is on in
        # [25p, 25p + 50) mod 100.
        store.attach_diurnal(
            clock, DiurnalSchedule(period=100.0, duty_cycle=0.5, num_phases=4)
        )
        phase = np.arange(NUM_CLIENTS) % 4
        # t=0: phase 0's [0, 50) and phase 3's wrapped [75, 125) are on.
        assert np.array_equal(store._available, np.isin(phase, (0, 3)))
        clock.advance(25.0)  # t=25: phase 1 on, phase 3's wrap ends
        assert np.array_equal(store._available, np.isin(phase, (0, 1)))
        clock.advance(25.0)  # t=50: phase 0 off, phase 2 on
        assert np.array_equal(store._available, np.isin(phase, (1, 2)))
        clock.advance(50.0)  # t=100: full period, back to the start
        assert np.array_equal(store._available, np.isin(phase, (0, 3)))

    def test_full_duty_cycle_schedules_no_events(self, store_scenario):
        store = fresh_store(store_scenario.clients, cache_size=4)
        clock = SimulatedClock()
        store.attach_diurnal(
            clock, DiurnalSchedule(period=60.0, duty_cycle=1.0, num_phases=3)
        )
        assert bool(np.all(store._available))
        assert not clock._events

    def test_schedule_validation(self):
        with pytest.raises(ValueError, match="period"):
            DiurnalSchedule(period=0.0).validate()
        with pytest.raises(ValueError, match="duty_cycle"):
            DiurnalSchedule(duty_cycle=0.0).validate()
        with pytest.raises(ValueError, match="num_phases"):
            DiurnalSchedule(num_phases=0).validate()


class TestStoreConstruction:
    def test_empty_population_rejected(self, store_scenario):
        tpl = store_scenario.clients
        with pytest.raises(ValueError, match="empty"):
            PopulationStore(
                num_samples=[],
                cpu_fraction=[],
                bandwidth_mbps=[],
                group=[],
                dataset_for=tpl._dataset_for,
                latency_model=tpl.latency_model,
                seed_address=tpl.seed_address,
            )

    def test_mismatched_column_rejected(self, store_scenario):
        tpl = store_scenario.clients
        with pytest.raises(ValueError, match="cpu_fraction"):
            PopulationStore(
                num_samples=[10, 10],
                cpu_fraction=[1.0],
                bandwidth_mbps=[5.0, 5.0],
                group=[0, 0],
                dataset_for=tpl._dataset_for,
                latency_model=tpl.latency_model,
                seed_address=tpl.seed_address,
            )

    def test_needs_seed_source(self, store_scenario):
        tpl = store_scenario.clients
        with pytest.raises(ValueError, match="seed_address or seed_rng"):
            PopulationStore(
                num_samples=[10],
                cpu_fraction=[1.0],
                bandwidth_mbps=[5.0],
                group=[0],
                dataset_for=tpl._dataset_for,
                latency_model=tpl.latency_model,
            )


class TestSharding:
    """Worker-side shards: column slices that rebuild bit-identical stores."""

    def test_shard_rebuild_is_bit_identical(self, eager_clients, store_scenario):
        store = fresh_store(store_scenario.clients, cache_size=8)
        ids = [1, 4, 7, 13, 19]
        local = PopulationStore.from_columns(store.shard(ids))
        assert local.num_clients == len(ids)
        for cid in ids:
            assert_clients_identical(local.materialize(cid), eager_clients[cid])

    def test_shard_rows_reject_foreign_ids(self, store_scenario):
        store = fresh_store(store_scenario.clients, cache_size=8)
        local = PopulationStore.from_columns(store.shard([2, 6, 10]))
        with pytest.raises(KeyError):
            local.materialize(3)  # not in this slice
        with pytest.raises(KeyError):
            store.shard([NUM_CLIENTS])  # outside the population
        with pytest.raises(ValueError, match="at least one client"):
            store.shard([])

    def test_codec_roundtrip(self, eager_clients, store_scenario):
        store = fresh_store(store_scenario.clients, cache_size=8)
        blob = shard_to_bytes(store.shard([0, 3, 11]))
        assert isinstance(blob, bytes)
        shard = shard_from_bytes(blob)
        assert shard.client_ids.tolist() == [0, 3, 11]
        local = PopulationStore.from_columns(shard)
        # Every member is bit-identical to the eager builder.
        for cid in (0, 3, 11):
            assert_clients_identical(local.materialize(cid), eager_clients[cid])

    def test_codec_rejects_garbage(self):
        with pytest.raises(ValueError):
            shard_from_bytes(b"not a shard")

    def test_rng_ledger_without_materialisation(self, store_scenario):
        store = fresh_store(store_scenario.clients, cache_size=4)
        assert store.rng_state_of(2) == (None, None)
        donor = fresh_store(store_scenario.clients, cache_size=4)
        d = donor.materialize(2)
        d.epoch_shuffle()
        state = d._train_rng.bit_generator.state
        before = store.materialize_count
        store.restore_rng_state(2, train_state=state)
        assert store.materialize_count == before  # ledger write only
        assert store.rng_state_of(2) == (state, None)
        assert (
            store.materialize(2)._train_rng.bit_generator.state == state
        )
