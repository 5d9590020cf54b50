"""Literal pins of TiFL's profiling and tiering.

Before the first round ``TiFLServer`` profiles every client, excludes the
ones that never answer inside the deadline, splits the rest into latency
tiers and writes each client's tier into the store; ``reprofile()`` does
it all again.  Each case records, after construction and again after one
``reprofile()``:

* ``members`` -- sha256 over every tier's member ids, tier by tier;
* ``means`` -- sha256 over the responsive clients' ids and profiled mean
  latencies, in profiling order;
* ``dropouts`` -- sha256 over the excluded ids;
* ``tier_column`` -- sha256 over the store's ``tier`` column;
* ``stats`` -- each tier's size and the ``float.hex`` of its mean, min
  and max latency.

A change to how profiling or tiering is held or computed has to
reproduce every literal bit for bit: every selection, round latency and
``history_digest`` downstream reads these tiers.
"""

import hashlib

import numpy as np
import pytest

from repro.experiments.scenarios import (
    ScenarioConfig,
    build_population_scenario,
    build_scenario,
)
from repro.tifl.server import TiFLServer


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.asarray(arr)
        h.update(str((arr.dtype, arr.shape)).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:32]


def profiled_means(profiling):
    """``(ids, means)`` of the responsive clients, in profiling order.

    Reads both the columnar result (``client_ids`` beside
    ``mean_latencies``) and a ``{cid: mean}`` mapping, so the literals
    below hold whichever container carries them."""
    means = profiling.mean_latencies
    if isinstance(means, dict):
        return list(means), list(means.values())
    return profiling.client_ids, means


def observe(server) -> dict:
    tiers = server.assignment.tiers
    ids, means = profiled_means(server.profiling)
    return {
        "members": digest(*(np.asarray(t.client_ids, dtype=np.int64) for t in tiers)),
        "means": digest(
            np.asarray(ids, dtype=np.int64), np.asarray(means, dtype=np.float64)
        ),
        "dropouts": digest(np.asarray(server.profiling.dropouts, dtype=np.int64)),
        "tier_column": digest(server.clients.tier),
        "stats": [
            (t.size, t.mean_latency.hex(), t.min_latency.hex(), t.max_latency.hex())
            for t in tiers
        ],
    }


def population_server():
    scn = build_population_scenario(num_clients=10_000, clients_per_round=10, seed=41)
    return TiFLServer(
        clients=scn.clients,
        model=scn.model,
        test_data=scn.test_data,
        clients_per_round=10,
        policy="uniform",
        tmax=TMAX["population/cohort"],
        training=scn.training,
        latency_stream="cohort",
        rng=42,
    )


def paper_server():
    scn = build_scenario(ScenarioConfig(), seed=43)
    return TiFLServer(
        clients=scn.clients,
        model=scn.model,
        test_data=scn.test_data,
        clients_per_round=5,
        policy="uniform",
        tmax=TMAX["paper/per-client"],
        training=scn.training,
        rng=44,
    )


#: Per-round deadline of each case: tight enough that its slowest
#: clients time out in every profiling round and become dropouts.
TMAX = {"population/cohort": 1.9, "paper/per-client": 6.2}

CASES = {"population/cohort": population_server, "paper/per-client": paper_server}

#: ``case -> (after construction, after one reprofile())``.
PINS = {
    "paper/per-client": (
        {
            "members": "ceb0ec9cfef73ab608ed2fd18a696483",
            "means": "401399a8c11fb35b7c4493d773c24fc4",
            "dropouts": "47ee312d86897ae90fab226dd35739c9",
            "tier_column": "cf024e7b18faf670d3961a542cfa60c4",
            "stats": [
                (9, "0x1.a6ecd3ba99b07p-2", "0x1.9bbe513e59d78p-2", "0x1.b73bc50183040p-2"),
                (9, "0x1.199ada67d6bcap-1", "0x1.ba4ffb3b6ff32p-2", "0x1.2801e547f2cbap-1"),
                (9, "0x1.9ef9914394946p-1", "0x1.2afe76907e2d5p-1", "0x1.cc8e753b11d32p-1"),
                (9, "0x1.4f7742fa4790bp+0", "0x1.cdc082d1e4d3ap-1", "0x1.87f3238dca188p+0"),
                (9, "0x1.080d67938c8b4p+2", "0x1.8ccfbd81c6d59p+0", "0x1.8c9cf21fd9659p+2"),
            ],
        },
        {
            "members": "43539ebddbd55cda0c41815857179c60",
            "means": "991a99beacf93d37a88e6f62714a8e24",
            "dropouts": "98354793730ebd3f4ab3bcdbb7fafa44",
            "tier_column": "6d634be1f1ed20f52b9594a5a8327b64",
            "stats": [
                (9, "0x1.a330d77aedddfp-2", "0x1.9a62cb03c9932p-2", "0x1.a9e12a671acc0p-2"),
                (9, "0x1.18b941dd73e47p-1", "0x1.aa54b4e5a40cdp-2", "0x1.26a6d9944d56ep-1"),
                (9, "0x1.a477eff340f82p-1", "0x1.2b842c027b381p-1", "0x1.ce0c796c901fbp-1"),
                (9, "0x1.537a53f4a0cf6p+0", "0x1.d1f69459bb3eep-1", "0x1.8fbee50db2e6ap+0"),
                (9, "0x1.1c443175ccd75p+2", "0x1.90bff9c7ef8e1p+0", "0x1.b8f716834db8dp+2"),
            ],
        },
    ),
    "population/cohort": (
        {
            "members": "97d0b305590e3002289da1c4ef20970d",
            "means": "cd08a845c91e9b999b105b4a82d8adfb",
            "dropouts": "004e5d93a16938457b70eb29c15a433d",
            "tier_column": "8bec19b21f3ba2d22f3affca8c047dc7",
            "stats": [
                (1980, "0x1.2614e599c4c0cp-2", "0x1.fc59db291194ep-3", "0x1.3ef022df87b65p-2"),
                (1980, "0x1.57cf297282316p-2", "0x1.3ef842f857890p-2", "0x1.72680df99ef65p-2"),
                (1981, "0x1.97f2b33325abcp-2", "0x1.726fabbe45d3ap-2", "0x1.c345bdee54716p-2"),
                (1979, "0x1.0443b7d4b0b3cp-1", "0x1.c365c5952cb28p-2", "0x1.345ddc52e9585p-1"),
                (1981, "0x1.d4ab6e1320be3p-1", "0x1.34827a97716eep-1", "0x1.e634452f56b30p+0"),
            ],
        },
        {
            "members": "4cec33e9b0681d14c30f174895d6ebcf",
            "means": "19fd3badb79a0d28947c2956504e204a",
            "dropouts": "98354793730ebd3f4ab3bcdbb7fafa44",
            "tier_column": "654f0fb1ed42454b8f8c1f0a4b276be1",
            "stats": [
                (1980, "0x1.2636b9fe530d9p-2", "0x1.f4f4a391ce580p-3", "0x1.3ec3f0aed9808p-2"),
                (1980, "0x1.57c431c2450ccp-2", "0x1.3ec511cbfac84p-2", "0x1.723310d632e56p-2"),
                (1981, "0x1.97b1af045b2e6p-2", "0x1.72387c3e9cfd6p-2", "0x1.c31bda99690e5p-2"),
                (1979, "0x1.0461b00e585bep-1", "0x1.c32f8ed40f0fdp-2", "0x1.34d1c5043f436p-1"),
                (1981, "0x1.d5a76d696900ep-1", "0x1.34f240511063fp-1", "0x1.14432f4a0ff82p+1"),
            ],
        },
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_profiling_and_tiering_are_pinned(case):
    with CASES[case]() as server:
        built = observe(server)
        server.reprofile()
        assert (built, observe(server)) == PINS[case]
