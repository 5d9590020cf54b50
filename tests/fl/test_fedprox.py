"""Tests for the FedProx baseline."""

import numpy as np
import pytest

from repro.config import TrainingConfig
from repro.fl.fedprox import make_fedprox_server, partial_work_epochs
from repro.fl.selection import RandomSelector
from repro.nn import build_linear
from tests.conftest import make_test_population, make_tiny_dataset


def make_clients(cpus):
    return make_test_population(len(cpus), cpus=cpus)


class TestPartialWork:
    def test_stragglers_get_one_epoch(self):
        clients = make_clients([4.0, 4.0, 0.1, 0.1])
        epochs_for = partial_work_epochs(clients, num_params=100, full_epochs=5)
        assert epochs_for(0, 0) == 5
        assert epochs_for(1, 0) == 5
        assert epochs_for(2, 0) == 1
        assert epochs_for(3, 0) == 1

    def test_invalid_quantile(self):
        with pytest.raises(ValueError):
            partial_work_epochs([], 10, 2, straggler_quantile=1.0)


class TestFedProxServer:
    def test_prox_mu_threaded_into_training(self):
        clients = make_clients([1.0, 1.0, 1.0])
        server = make_fedprox_server(
            clients=clients,
            model=build_linear((4, 4, 1), 3, rng=0),
            selector=RandomSelector(2, rng=0),
            test_data=make_tiny_dataset(n=20, seed=9),
            training=TrainingConfig(optimizer="sgd", lr=0.1, lr_decay=1.0),
            mu=0.05,
        )
        assert server.training.prox_mu == 0.05
        history = server.run(3)
        assert len(history) == 3

    def test_prox_limits_client_drift(self):
        """Higher mu keeps the global model closer to initialisation."""

        def total_drift(mu):
            clients = make_clients([1.0, 1.0])
            server = make_fedprox_server(
                clients=clients,
                model=build_linear((4, 4, 1), 3, rng=0),
                selector=RandomSelector(2, rng=0),
                test_data=make_tiny_dataset(n=20, seed=9),
                # keep lr * mu < 2 so the proximal quadratic is stable
                training=TrainingConfig(
                    optimizer="sgd", lr=0.1, lr_decay=1.0, epochs=3
                ),
                mu=mu,
                partial_work=False,
            )
            w0 = server.global_weights.copy()
            server.run(5)
            return float(np.linalg.norm(server.global_weights - w0))

        assert total_drift(5.0) < total_drift(0.0)

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError):
            make_fedprox_server(
                clients=make_clients([1.0]),
                model=build_linear((4, 4, 1), 3, rng=0),
                selector=RandomSelector(1, rng=0),
                test_data=make_tiny_dataset(n=10),
                training=TrainingConfig(),
                mu=-1.0,
            )
