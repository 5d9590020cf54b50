"""Tests for the FedProx baseline: FedAvg with ``TrainingConfig.prox_mu``."""

import numpy as np
import pytest

from repro.config import TrainingConfig
from repro.fl.selection import RandomSelector
from repro.fl.server import FLServer
from repro.nn import build_linear
from tests.conftest import make_test_population, make_tiny_dataset


def make_server(mu, cpus=(1.0, 1.0), epochs=1):
    return FLServer(
        clients=make_test_population(len(cpus), cpus=list(cpus)),
        model=build_linear((4, 4, 1), 3, rng=0),
        selector=RandomSelector(2, rng=0),
        test_data=make_tiny_dataset(n=20, seed=9),
        # keep lr * mu < 2 so the proximal quadratic is stable
        training=TrainingConfig(
            optimizer="sgd", lr=0.1, lr_decay=1.0, epochs=epochs, prox_mu=mu
        ),
    )


class TestFedProxServer:
    def test_prox_mu_threaded_into_training(self):
        server = make_server(0.05, cpus=(1.0, 1.0, 1.0))
        assert server.training.prox_mu == 0.05
        history = server.run(3)
        assert len(history) == 3
        # The term reaches the clients' local steps: the global model
        # moves differently from plain FedAvg's.
        fedavg = make_server(0.0, cpus=(1.0, 1.0, 1.0))
        fedavg.run(3)
        assert not np.array_equal(server.global_weights, fedavg.global_weights)

    def test_prox_limits_client_drift(self):
        """Higher mu keeps the global model closer to initialisation."""

        def total_drift(mu):
            server = make_server(mu, epochs=3)
            w0 = server.global_weights.copy()
            server.run(5)
            return float(np.linalg.norm(server.global_weights - w0))

        assert total_drift(5.0) < total_drift(0.0)

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError, match="prox_mu"):
            TrainingConfig(prox_mu=-1.0)
