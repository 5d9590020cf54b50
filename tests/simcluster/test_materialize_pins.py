"""Literal pins of what a cold ``materialize`` hands a round.

For three client ids of a ``build_population_scenario`` store (the
seed-addressed pool sample) and of a ``build_scenario`` store (the
partitioner's index lists) each case records

* ``sha256`` over ``(holdout.x, holdout.y, train_data.x, train_data.y)``,
* the train stream's ``bit_generator.state``,
* v1 ``response_latency`` draws,

cold, after one ``train``, and after evict -> re-materialise, and then
ships a post-training ``shard()`` through its PSH1 bytes and reads the
same states on the far side.  The literals were recorded at ``fef89f1``
-- the last tree whose provider returned a copied ``Dataset``, whose
client built a ``base`` generator to spawn from and whose latency
generator was built eagerly.  A change to how a cold client is
assembled has to reproduce them bit for bit (``docs/numerics.md``).
"""

import hashlib

import pytest

from repro.experiments.scenarios import (
    ScenarioConfig,
    build_population_scenario,
    build_scenario,
)
from repro.serialization import shard_from_bytes, shard_to_bytes
from repro.simcluster.population import PopulationStore

CLIENT_IDS = (0, 7, 311)
NUM_PARAMS = 650


def build_pooled():
    return build_population_scenario(num_clients=400, seed=7)


def build_partitioned():
    cfg = ScenarioConfig(
        dataset="mnist",
        num_clients=320,
        clients_per_round=5,
        train_size=3200,
        test_size=60,
        data_distribution="noniid",
    )
    return build_scenario(cfg, seed=7)


def data_digest(client) -> str:
    h = hashlib.sha256()
    for arr in (
        client.holdout.x,
        client.holdout.y,
        client.train_data.x,
        client.train_data.y,
    ):
        h.update(str((arr.dtype, arr.shape)).encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:32]


def train_state(client) -> str:
    s = client._train_rng.bit_generator.state
    assert s["bit_generator"] == "PCG64"
    return "{:032x}/{:032x}/{}/{}".format(
        s["state"]["state"], s["state"]["inc"], s["has_uint32"], s["uinteger"]
    )


def latency_draw(client) -> str:
    return float(client.response_latency(NUM_PARAMS)).hex()


def observe(scenario) -> dict:
    """Everything pinned for one store, keyed ``"<cid>.<what>"``."""
    store = scenario.clients
    model = scenario.model
    weights = model.get_flat_weights()
    factory = scenario.training.optimizer_factory(0)
    out = {}
    for cid in CLIENT_IDS:
        cold = store.materialize(cid)
        out[f"{cid}.cold.data"] = data_digest(cold)
        out[f"{cid}.cold.train_state"] = train_state(cold)
        trained = cold.train(model, weights, factory, batch_size=10, epochs=1)
        out[f"{cid}.trained.weights"] = hashlib.sha256(
            trained.tobytes()
        ).hexdigest()[:32]
        out[f"{cid}.trained.train_state"] = train_state(cold)
    # Client 7's latency stream is first drawn *before* the eviction,
    # the other two not until after it (or on the far side).
    out["7.trained.latency_draw_1"] = latency_draw(store.materialize(7))
    before = store.materialize_count
    store.evict_all()
    for cid in CLIENT_IDS:
        rebuilt = store.materialize(cid)
        out[f"{cid}.rebuilt.data"] = data_digest(rebuilt)
        out[f"{cid}.rebuilt.train_state"] = train_state(rebuilt)
    assert store.materialize_count == before + len(CLIENT_IDS)
    out["0.rebuilt.latency_draw_1"] = latency_draw(store.materialize(0))
    out["7.rebuilt.latency_draw_2"] = latency_draw(store.materialize(7))

    # Post-training shard -> PSH1 bytes -> a worker's local store.
    far = PopulationStore.from_columns(
        shard_from_bytes(shard_to_bytes(store.shard(CLIENT_IDS)))
    )
    for cid in CLIENT_IDS:
        remote = far.materialize(cid)
        out[f"{cid}.far.data"] = data_digest(remote)
        out[f"{cid}.far.train_state"] = train_state(remote)
    out["0.far.latency_draw_2"] = latency_draw(far.materialize(0))
    out["7.far.latency_draw_3"] = latency_draw(far.materialize(7))
    out["311.far.latency_draw_1"] = latency_draw(far.materialize(311))
    return out


# Rebuilt and far-side data / train states are asserted equal to these
# below instead of being repeated.
PINS = {
    "partitioned": {
        "0.cold.data": "46437b4bd409cdbb1399edf349040925",
        "0.cold.train_state": (
            "a4c516a0b5b818c8795ad3fa765167c7/"
            "146b33031c59daaf4dcfa3bb6604d78d/1/2908878015"
        ),
        "0.trained.weights": "cc7df233d1f4f19fa2f1d30c5a07053c",
        "0.trained.train_state": (
            "6f6c9eafe9924091708bf3ca55c67543/"
            "146b33031c59daaf4dcfa3bb6604d78d/1/2324085315"
        ),
        "7.cold.data": "fadab8a14b2bc4b27c17446e22bc2a03",
        "7.cold.train_state": (
            "7bd11b97e0c63941ca881cc9f3f1a4a8/"
            "2a747debe173c73a1bc65af0766e3b1f/0/1289648038"
        ),
        "7.trained.weights": "6de0219623d890284975e7afc8e39b13",
        "7.trained.train_state": (
            "36b469b55890412abde297daa7b2c38c/"
            "2a747debe173c73a1bc65af0766e3b1f/1/355752631"
        ),
        "311.cold.data": "a638c736a35e081a948a3e9c699fb9fb",
        "311.cold.train_state": (
            "cf15821cab2b77e0c732ec687a2c2122/"
            "0523dc21e8ad4430086dae543d2b7f17/0/3989740064"
        ),
        "311.trained.weights": "71d8d912bdcb42b34f32e7092b243937",
        "311.trained.train_state": (
            "273cf78dfdab94238405e03c9d76ca86/"
            "0523dc21e8ad4430086dae543d2b7f17/1/1389468811"
        ),
        "7.trained.latency_draw_1": "0x1.02664b91d5d8ep-2",
        "0.rebuilt.latency_draw_1": "0x1.0ca01edd52401p-2",
        "7.rebuilt.latency_draw_2": "0x1.120e1b2ef09a8p-2",
        "0.far.latency_draw_2": "0x1.1012a666dddb8p-2",
        "7.far.latency_draw_3": "0x1.2115468dbcde7p-2",
        "311.far.latency_draw_1": "0x1.96abb13f4b8adp-2",
    },
    "pooled": {
        "0.cold.data": "d23e782e10e0f4ac4bbb0bfc1d6e227a",
        "0.cold.train_state": (
            "5bd51aedf681cd7b8197faf929a95f5f/"
            "5abcd09e8858de51eaec2cac724a7721/1/2722665321"
        ),
        "0.trained.weights": "066a2e4c3d1de0e88fe676a726c84f2e",
        "0.trained.train_state": (
            "03f4a219fa36ea6b329903e1755865d2/"
            "5abcd09e8858de51eaec2cac724a7721/1/829268472"
        ),
        "7.cold.data": "efdb74eea12c5f26e92fce06706b9e9c",
        "7.cold.train_state": (
            "0285f1004f5e632b992457d9dd558126/"
            "76d3b697faff3dc1a76db02008485c47/1/2611062489"
        ),
        "7.trained.weights": "52701090dc7106eb3836d633f884a077",
        "7.trained.train_state": (
            "3dda0d353050835186808d03bca6f7be/"
            "76d3b697faff3dc1a76db02008485c47/1/3923736245"
        ),
        "311.cold.data": "fc82f39976acd2880bfa03dcb240a93b",
        "311.cold.train_state": (
            "ddbe06f35e2674f4553a5486fa03188a/"
            "d8c03a5f12d782c3a7b7d5db7edf447d/1/145025864"
        ),
        "311.trained.weights": "73e42cc7726039a06b5651f57aabba4e",
        "311.trained.train_state": (
            "ec1a815c27f71fde2de14b20f9226193/"
            "d8c03a5f12d782c3a7b7d5db7edf447d/0/1064914843"
        ),
        "7.trained.latency_draw_1": "0x1.628372c5eba62p-2",
        "0.rebuilt.latency_draw_1": "0x1.32ff401b483bep-2",
        "7.rebuilt.latency_draw_2": "0x1.5ae35b42e3a7ep-2",
        "0.far.latency_draw_2": "0x1.385cfa982fc9dp-2",
        "7.far.latency_draw_3": "0x1.824eff8cc1cc1p-2",
        "311.far.latency_draw_1": "0x1.b32962c69da38p-1",
    },
}

BUILDERS = {"pooled": build_pooled, "partitioned": build_partitioned}


@pytest.mark.parametrize("kind", sorted(PINS))
def test_materialize_pins(kind):
    observed = observe(BUILDERS[kind]())
    assert {key: observed[key] for key in PINS[kind]} == PINS[kind]
    # Stream positions survive eviction and the wire; data never moves.
    for cid in CLIENT_IDS:
        assert (
            observed[f"{cid}.cold.data"]
            == observed[f"{cid}.rebuilt.data"]
            == observed[f"{cid}.far.data"]
        )
        assert (
            observed[f"{cid}.trained.train_state"]
            == observed[f"{cid}.rebuilt.train_state"]
            == observed[f"{cid}.far.train_state"]
        )
        assert observed[f"{cid}.cold.train_state"] != observed[
            f"{cid}.trained.train_state"
        ]
