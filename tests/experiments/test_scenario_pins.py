"""Literal pins of what each scenario builder draws.

``build_scenario``, ``build_leaf_scenario`` and
``build_population_scenario`` turn ``(arguments, seed)`` into a pool, a
test set, per-client rows, a client store and a model; every numerics
stream and every ``history_digest`` starts from those.  Each case
records ``sha256`` over:

* ``train`` -- the shared sample pool the store's provider hands out,
* ``test`` -- the scenario's global test set,
* ``rows`` -- every client's rows in that pool, concatenated in id order,
* ``columns`` -- the store's five columns and its seed address,
* ``model`` -- the model's initial flat weights.

A refactor of the builders has to reproduce every literal bit for bit;
a change that means to move a draw re-records them and says why.
"""

import hashlib

import numpy as np
import pytest

from repro.experiments.scenarios import (
    ScenarioConfig,
    build_leaf_scenario,
    build_population_scenario,
    build_scenario,
)


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.asarray(arr)
        h.update(str((arr.dtype, arr.shape)).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:32]


def observe(scn) -> dict:
    store = scn.clients
    provider = store._dataset_for
    pool = provider(0)[0]
    rows = [provider(cid)[1] for cid in range(len(store))]
    return {
        "train": digest(pool.x, pool.y),
        "test": digest(scn.test_data.x, scn.test_data.y),
        "rows": digest(np.concatenate(rows)),
        "columns": hashlib.sha256(
            digest(
                store.client_ids,
                store.num_samples,
                store.cpu_fraction,
                store.bandwidth_mbps,
                store.group,
            ).encode()
            + repr(store.seed_address).encode()
        ).hexdigest()[:32],
        "model": digest(scn.model.get_flat_weights()),
    }


def small(**kw) -> ScenarioConfig:
    defaults = dict(
        num_clients=20, clients_per_round=4, train_size=900, test_size=150, shape=(6, 6, 1)
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


#: ``case -> builder call``; every data_distribution, both non-default
#: resource profiles, each model family and both population column rules.
CASES = {
    "iid": lambda: build_scenario(small(dataset="mnist"), seed=1),
    "noniid": lambda: build_scenario(
        small(dataset="cifar10", data_distribution="noniid", shape=(4, 4, 3), model="mlp"),
        seed=2,
    ),
    "quantity": lambda: build_scenario(
        small(dataset="femnist", data_distribution="quantity", difficulty=0.3), seed=4
    ),
    "quantity_noniid": lambda: build_scenario(
        small(
            dataset="mnist",
            data_distribution="quantity_noniid",
            shape=(12, 12, 1),
            model="mnist_cnn",
        ),
        seed=5,
    ),
    "homogeneous": lambda: build_scenario(
        small(dataset="cifar10", resource_profile="homogeneous", shuffle_resources=True),
        seed=6,
    ),
    "case_study": lambda: build_scenario(
        small(dataset="mnist", resource_profile="case_study", shuffle_resources=True),
        seed=7,
    ),
    "leaf": lambda: build_leaf_scenario(seed=8),
    "population/heavy_tailed": lambda: build_population_scenario(
        num_clients=500, clients_per_round=10, pool_size=1024, seed=9
    ),
    "population/flat": lambda: build_population_scenario(
        num_clients=500,
        clients_per_round=10,
        pool_size=1024,
        model="mlp",
        heavy_tailed=False,
        seed=10,
    ),
}

KEYS = ("train", "test", "rows", "columns", "model")

#: ``case -> digests`` in ``KEYS`` order.
PINS = {
    "case_study": (
        "3e8f004b874934dee2e009b37eee1a5f",
        "208bdf534ff7c130685d2cdaf0441da6",
        "feadaa081946b7b8dd740c9f886ef568",
        "60d751e21e21018923b187abc32ad794",
        "6dfc5ebfb8fb16d76aeaae29a18902d6",
    ),
    "homogeneous": (
        "d584b9fc0e9a9c443b1a210bc3fdc7f9",
        "7781dc77be9338f21e051755129cfde7",
        "613db0989ac2fc2b024c779be0e78342",
        "9285a944609c106f24f7fa2995e051e1",
        "ccc760a95d9f201f9209cf22736e2e5b",
    ),
    "iid": (
        "36a09320a4593451df67bdae33abd728",
        "a590953c30837c1f4db0c821830198b8",
        "dce591da66891e3b6b03930b0fdf866c",
        "0087f12096a6f29f0e5b9509dd9bfd78",
        "98ce8c1c2f09dc73ce1e032f825a2947",
    ),
    "leaf": (
        "e54a5f66b8e2662d420a192355270789",
        "c9d685ae5bf982d52664e96fc20a2946",
        "7036698643a4e9451f66a61886ec376e",
        "cae3a70cb64158145f026fcd197d20f9",
        "a7d73860eccaa8433e1a3d7145f8bc88",
    ),
    "noniid": (
        "cd2d3a0bc3f30fe0314cd26512aeb3f3",
        "2b73ce34a6a537d1c3a528d4ce7fa8f8",
        "768504e018c495df91d543ab8b68eb56",
        "51d8eba580ca98ed35939700a215b86b",
        "5486f5b3c7b56b69409de03124d65222",
    ),
    "population/flat": (
        "af17480e47dcf03e5ce79ee40e8ab6b1",
        "3483419fa224bbb5eccca4bc7d693cdb",
        "773849ad5ed4768a7ee7d83b02ed99a6",
        "ea724f5b83fe9042ac1cb9443d466fa4",
        "ade8fba03c23aff890d02220bee4ba30",
    ),
    "population/heavy_tailed": (
        "55052d89e3dfeb8af0183ab1b9ca4c10",
        "60fb2bee45747aa7b522773f2446631b",
        "6716a3d2d0db0fe536591f5584392616",
        "d5e339fa6725558005680d1412baa704",
        "d5db243a97043fc6ee031f482c419c4d",
    ),
    "quantity": (
        "04b578a0ebdc8fc897184bd7b98c8db9",
        "6cc8314b6f7d933e6e55ec0e7a26f769",
        "bc65d16bdf801ce0b52514d797cdb748",
        "ad5d36fe861e0d43998c04d90b735bfc",
        "cc9574d18d2569f47882ab8ccc3cda3b",
    ),
    "quantity_noniid": (
        "1b161fc0c27d4d9cdc636f824966426c",
        "948d8401f45a21b5c0ce6dd44326af35",
        "61e6bf19bd2394fc350232ebc2b8cda9",
        "dbafeed87416e65ffee07e53cc7f77d7",
        "8021037f0663112d459e0a03e8c8d33d",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_builder_draws_are_pinned(case):
    assert observe(CASES[case]()) == dict(zip(KEYS, PINS[case]))
