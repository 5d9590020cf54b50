"""Codec equivalence over the wire: delta bit-identity.

The delta codec promises bit-identical training to raw/serial *by
contract* -- these tests hold a multi-round loopback run (real worker
subprocesses, real TCP) to it, and pin the reason to use it at all: the
delta run ships fewer bytes than the raw run.  In-process backends
ignore the codec (no wire) -- the
all-backends sweep proves a ``codec="delta"`` config changes nothing
for them.
"""

import numpy as np

from repro.codec import DeltaCodec
from repro.config import TrainingConfig
from repro.distributed import (
    DistributedExecutor,
    spawn_local_workers,
    terminate_workers,
)
from repro.execution import TrainRequest, create_executor
from repro.fl.aggregator import fedavg
from repro.nn import build_mlp
from repro.simcluster.client import SimClient
from repro.simcluster.latency import LatencyModel
from repro.simcluster.resources import ResourceSpec
from tests.conftest import make_test_client, make_tiny_dataset

FAST_TIMEOUTS = dict(accept_timeout=60.0, result_timeout=90.0)
ROUNDS = 4


def _train_config(codec):
    return TrainingConfig(
        optimizer="rmsprop", lr=0.05, lr_decay=0.99, codec=codec
    )


def _run_rounds(executor, training, seed=21, num_clients=6, rounds=ROUNDS):
    """Full-cohort rounds through a bound executor; returns final weights."""
    pool = {
        i: make_test_client(client_id=i, seed=seed) for i in range(num_clients)
    }
    model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=seed)
    executor.bind(pool, model, training)
    g = model.get_flat_weights()
    requests = [TrainRequest(cid) for cid in sorted(pool)]
    for r in range(rounds):
        updates = executor.train_cohort(r, requests, g)
        g = fedavg(
            [u.flat_weights for u in updates],
            [float(u.num_samples) for u in updates],
        )
    return g


def _run_distributed(codec, seed=21, workers=2):
    ex = DistributedExecutor(workers=workers, **FAST_TIMEOUTS)
    procs = []
    try:
        # listen() before bind is fine; workers join lazily on round 1.
        procs = spawn_local_workers(ex.listen(), workers)
        weights = _run_rounds(ex, _train_config(codec), seed=seed)
        wire_bytes = ex.bytes_sent + ex.bytes_received
    finally:
        ex.close()
        if procs:
            terminate_workers(procs)
    return weights, wire_bytes


class TestDeltaEquivalence:
    def test_delta_bit_identical_across_all_four_backends(self):
        """A multi-round run under ``codec='delta'`` produces the exact
        serial-raw weights on every v1 backend: serial and process
        ignore the codec (weights never hit a wire), the distributed
        backend encodes every BROADCAST/UPDATE through it and must
        decode bit-exactly."""
        with create_executor("serial") as ref_ex:
            reference = _run_rounds(ref_ex, _train_config("raw"))

        for backend in ("serial", "process"):
            with create_executor(backend, workers=2) as ex:
                weights = _run_rounds(ex, _train_config("delta"))
            assert np.array_equal(reference, weights), (
                f"{backend} backend perturbed by a codec it must ignore"
            )

        weights, _ = _run_distributed("delta")
        assert np.array_equal(reference, weights), (
            "delta codec broke wire bit-identity"
        )

    def test_delta_ships_fewer_bytes_than_raw(self):
        """The codec's reason to exist: the same federation trained the
        same number of rounds costs fewer bytes on the wire under delta
        (every post-first broadcast/update is a compressed ULP delta)."""
        _, raw_bytes = _run_distributed("raw")
        _, delta_bytes = _run_distributed("delta")
        assert delta_bytes < raw_bytes

    def test_converged_trajectory_costs_at_most_70_percent_of_raw(self):
        """... and by how much, where it matters: consecutive global
        vectors of a *converged* run (50 warm-up rounds of a 784-64-10
        MLP, 50 890 parameters, over 10 clients x 60 samples) encode to
        at most 0.70 of their raw size, each round-tripping bit-exactly.
        No wire involved: the payload is what a BROADCAST would carry."""
        shape, warmup, measured = (28, 28, 1), 50, 5
        pool = {
            cid: SimClient(
                client_id=cid,
                data=make_tiny_dataset(
                    n=60, num_classes=10, shape=shape, seed=1 + cid,
                    difficulty=0.5, proto_seed=0,
                ),
                spec=ResourceSpec(cpu_fraction=1.0, group=0),
                latency_model=LatencyModel(noise_sigma=0.0),
                holdout_fraction=0.0,
                rng=cid,
            )
            for cid in range(10)
        }
        model = build_mlp(shape, 10, hidden=(64,), rng=0)
        training = TrainingConfig(optimizer="rmsprop", lr=0.01, batch_size=10)
        requests = [TrainRequest(cid) for cid in sorted(pool)]
        weights = model.get_flat_weights()
        trajectory = [weights]
        with create_executor("serial") as executor:
            executor.bind(pool, model, training)
            for r in range(warmup + measured):
                updates = executor.train_cohort(r, requests, weights)
                weights = fedavg(
                    [u.flat_weights for u in updates],
                    [float(u.num_samples) for u in updates],
                )
                trajectory.append(weights)

        assert weights.size == 50_890
        codec = DeltaCodec()
        encoded = 0
        for baseline, values in zip(trajectory[warmup:-1], trajectory[warmup + 1 :]):
            blob = codec.encode(values, baseline=baseline)
            back = codec.decode(blob, values.size, baseline=baseline)
            assert back.tobytes() == values.tobytes()
            encoded += len(blob)
        assert encoded <= 0.70 * measured * weights.nbytes
