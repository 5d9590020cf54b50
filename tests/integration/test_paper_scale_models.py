"""Paper-scale architecture integration: the real CNNs through the stack.

The benchmark harnesses use linear/MLP surrogates for speed; these tests
prove the *faithful* architectures (the paper's MNIST CNN and LEAF's
FEMNIST CNN at full 28x28 input) run through the complete TiFL pipeline
-- profiling, tiering, tier selection, local CNN training, FedAvg -- for
a couple of rounds.  Kept small (few clients, tiny local datasets) so the
whole module stays in CI-friendly time.
"""

import numpy as np
import pytest

from repro.config import TrainingConfig
from repro.data.datasets import Dataset
from repro.data.synthetic import SyntheticSpec, class_prototypes, generate_synthetic
from repro.nn import build_mnist_cnn
from repro.simcluster import CommModel, LatencyModel, PopulationStore
from repro.tifl.server import TiFLServer


def make_cnn_clients(num_clients=4, samples=24, seed=0):
    spec = SyntheticSpec(shape=(28, 28, 1), num_classes=10, difficulty=0.3)
    protos = class_prototypes(spec, rng=seed)
    latency = LatencyModel(cost_per_sample=0.01, base_overhead=0.1, noise_sigma=0.0)
    comm = CommModel(rtt=0.01, jitter_sigma=0.0)
    cpus = [4.0, 2.0, 1.0, 0.5][:num_clients]
    parts = []
    for cid in range(num_clients):
        labels = np.arange(samples) % 10
        parts.append(
            generate_synthetic(
                spec, samples, rng=seed + cid + 1, prototypes=protos, labels=labels
            )
        )
    pool = Dataset(
        np.concatenate([x for x, _ in parts]),
        np.concatenate([y for _, y in parts]),
        10,
        name="cnn-clients",
    )
    clients = PopulationStore(
        num_samples=[samples] * num_clients,
        cpu_fraction=cpus,
        bandwidth_mbps=[100.0] * num_clients,
        group=list(range(num_clients)),
        dataset_for=lambda cid: (
            pool,
            np.arange(cid * samples, (cid + 1) * samples),
        ),
        latency_model=latency,
        comm_model=comm,
        seed_rng=seed,
    )
    xte, yte = generate_synthetic(
        spec, 40, rng=seed + 100, prototypes=protos,
        labels=np.arange(40) % 10,
    )
    test = Dataset(xte, yte, 10, name="cnn-test")
    return clients, test


@pytest.mark.slow
def test_paper_mnist_cnn_through_tifl():
    clients, test = make_cnn_clients()
    model = build_mnist_cnn(rng=0)
    server = TiFLServer(
        clients=clients,
        model=model,
        test_data=test,
        clients_per_round=2,
        policy="uniform",
        num_tiers=2,
        sync_rounds=1,
        training=TrainingConfig(optimizer="rmsprop", lr=0.001, batch_size=8),
        rng=0,
    )
    history = server.run(2)
    assert len(history) == 2
    # weights actually moved and stayed finite through conv backprop
    assert np.isfinite(server.global_weights).all()
    assert 0.0 <= history.final_accuracy <= 1.0
    # latency reflects the CNN's parameter count (communication included)
    assert history.round_latencies.min() > 0.0


@pytest.mark.slow
def test_paper_cnn_weights_round_trip_through_fedavg():
    """The ~1.2M-parameter flat vector survives the aggregation path."""
    from repro.fl.aggregator import fedavg

    model = build_mnist_cnn(rng=1)
    flat = model.get_flat_weights()
    averaged = fedavg([flat, flat * 3.0], [1.0, 1.0])
    np.testing.assert_allclose(averaged, flat * 2.0)
    model.set_flat_weights(averaged)
    assert model.num_params() == flat.size
