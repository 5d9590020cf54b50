"""One copy of a federation's data per process.

``PoolRecipe.draw`` goes through one weak memo, so every federation
built from one recipe in a process -- the policies of a ``compare``, a
shard unpickled where it was built -- shares one read-only pool and one
test set per ``test_size``.  A client holds int64 train and holdout rows
into that pool; its train split is gathered per minibatch and its
holdout each time it is scored.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.experiments import scenarios
from repro.experiments.scenarios import ScenarioConfig, build_scenario
from repro.serialization import shard_from_bytes, shard_to_bytes

#: ``compare_serial``'s federation, scaled down: cifar10 non-IID, MLP.
CFG = ScenarioConfig(
    dataset="cifar10",
    num_clients=20,
    clients_per_round=5,
    data_distribution="noniid",
    shape=(8, 8, 3),
    train_size=2000,
    test_size=256,
    model="mlp",
    mlp_hidden=(16,),
)


def memo_keys(recipe):
    """The memo's live keys that belong to ``recipe``."""
    return [
        key
        for key in list(scenarios._DRAWN.keys())
        if key == recipe or (isinstance(key, tuple) and key[0] == recipe)
    ]


class TestOnePoolPerRecipe:
    def test_two_live_builds_share_the_pool_and_the_test_set(self):
        a = build_scenario(CFG, seed=11)
        b = build_scenario(CFG, seed=11)
        assert b.fed.train.x is a.fed.train.x and b.fed.train.y is a.fed.train.y
        assert b.fed.test.x is a.fed.test.x and b.fed.test.y is a.fed.test.y

    def test_memo_empties_when_the_last_federation_goes(self):
        scn = build_scenario(CFG, seed=12)
        recipe = scn.fed.recipe
        assert len(memo_keys(recipe)) == 2  # the pool and the test set
        scn.clients.materialize(0)
        del scn
        gc.collect()
        assert memo_keys(recipe) == []

    def test_pool_and_test_arrays_are_read_only(self):
        scn = build_scenario(CFG, seed=13)
        for arr in (scn.fed.train.x, scn.fed.train.y, scn.test_data.x, scn.test_data.y):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1

    def test_materialising_every_client_allocates_under_a_twentieth_of_the_pool(self):
        scn = build_scenario(CFG, seed=14)
        pool, store = scn.fed.train, scn.clients
        tracemalloc.start()
        try:
            clients = [store.materialize(cid) for cid in store.client_ids]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(clients) == CFG.num_clients
        # Rows are 8 B a sample against the pool's 8 B a feature: gathered
        # holdouts would be ~20 % of the pool, train copies ~80 % more.
        assert peak < 0.05 * (pool.x.nbytes + pool.y.nbytes)

    def test_shard_unpickled_where_built_reuses_the_pool(self):
        scn = build_scenario(CFG, seed=15)
        blob = shard_to_bytes(scn.clients.shard([0, 1, 2]))
        far = shard_from_bytes(blob)
        assert far.dataset_for.__self__.train is scn.fed.train
        digest = scn.fed.pool_digest.encode()
        assert blob.count(digest) == 1
        with pytest.raises(ValueError, match="digest mismatch"):
            shard_from_bytes(blob.replace(digest, b"0" * len(digest)))


class TestClientsHoldRows:
    def test_train_split_is_rows_of_the_pool_gathered_on_demand(self):
        scn = build_scenario(CFG, seed=16)
        pool = scn.fed.train
        client = scn.clients.materialize(3)
        rows = client._train_rows
        assert rows.dtype == np.int64 and len(rows) == client.num_train_samples
        np.testing.assert_array_equal(client.train_data.x, pool.x[rows])
        assert not np.shares_memory(client.train_data.x, pool.x)
        assert not np.shares_memory(client.holdout.x, pool.x)

    def test_holdout_is_rows_of_the_pool_gathered_on_demand(self):
        scn = build_scenario(CFG, seed=17)
        pool = scn.fed.train
        client = scn.clients.materialize(4)
        rows = client._holdout_rows
        assert rows.dtype == np.int64 and len(rows) == client.num_holdout_samples
        assert client.num_holdout_samples == scn.clients.holdout_size[4]
        np.testing.assert_array_equal(client.holdout.x, pool.x[rows])
        np.testing.assert_array_equal(client.holdout.y, pool.y[rows])
        assert client.holdout.x is not client.holdout.x  # no cached copy
