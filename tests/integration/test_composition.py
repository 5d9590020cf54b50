"""Composition tests: TiFL x aggregation back-ends.

The paper claims TiFL is non-intrusive: tier scheduling only changes
*which* cohort trains, so it must compose with secure aggregation
(Sec. 4.6) without changing the learned model.  These tests run the same
federation under flat FedAvg and under masked aggregation and require
identical weights.
"""

import numpy as np

from repro.config import TrainingConfig
from repro.fl.secure_agg import SecureAggregator
from repro.nn import build_linear
from repro.tifl.server import TiFLServer
from tests.conftest import make_test_population, make_tiny_dataset

TRAIN = TrainingConfig(optimizer="sgd", lr=0.1, lr_decay=1.0)


def make_server(aggregator, policy="uniform", seed=0, rounds_hint=20):
    clients = make_test_population(
        12, cpus=[[4.0, 1.0, 0.25][i % 3] for i in range(12)], seed=seed
    )
    return TiFLServer(
        clients=clients,
        model=build_linear((4, 4, 1), 3, rng=seed),
        test_data=make_tiny_dataset(n=30, seed=321),
        clients_per_round=2,
        policy=policy,
        num_tiers=3,
        sync_rounds=2,
        total_rounds=rounds_hint,
        training=TRAIN,
        aggregator=aggregator,
        rng=seed,
    )


class TestAggregatorComposition:
    def test_secure_identical_to_flat(self):
        flat = make_server(aggregator=None, seed=5)
        secure = make_server(aggregator=SecureAggregator(rng=9), seed=5)
        flat.run(8)
        secure.run(8)
        np.testing.assert_allclose(
            flat.global_weights, secure.global_weights, atol=1e-8
        )

    def test_adaptive_with_secure_aggregation(self):
        """Alg. 2 + secure aggregation: the full privacy-preserving TiFL."""
        server = make_server(
            aggregator=SecureAggregator(rng=2), policy="adaptive", seed=6
        )
        history = server.run(12)
        assert len(history) == 12
        assert np.isfinite(server.global_weights).all()
        # per-tier accuracies were still collected (local holdout eval does
        # not conflict with aggregate-only weight visibility)
        assert any(r.tier_accuracies for r in history.records)

    def test_secure_same_history_timing(self):
        """Aggregation back-end must not affect simulated timing at all."""
        servers = [
            make_server(aggregator=None, seed=7),
            make_server(aggregator=SecureAggregator(rng=1), seed=7),
        ]
        latencies = []
        for s in servers:
            s.run(6)
            latencies.append(s.history.round_latencies)
        np.testing.assert_allclose(latencies[0], latencies[1])
