"""Robustness under runtime faults: dropouts and slowdowns mid-training.

The profiler's dropout exclusion (Sec. 4.2) handles clients that are dead
*at profiling time*; these tests cover faults that appear *during*
training -- transient per-round dropouts and persistent slowdowns -- and
check the system degrades gracefully rather than stalling or crashing.
"""

import numpy as np
import pytest

from repro.config import TrainingConfig
from repro.nn import build_linear
from repro.simcluster.faults import DropoutInjector, SlowdownInjector
from repro.tifl.server import TiFLServer
from tests.conftest import make_test_population, make_tiny_dataset

TRAIN = TrainingConfig(optimizer="sgd", lr=0.1, lr_decay=1.0)


def make_server(fault=None, num_clients=12, per_round=2, seed=0, **kwargs):
    bases = [4.0, 1.0, 0.25]
    clients = make_test_population(
        num_clients,
        cpus=[bases[i * 3 // num_clients] for i in range(num_clients)],
        seed=seed,
        noise_sigma=0.01,
    )
    return TiFLServer(
        clients=clients,
        model=build_linear((4, 4, 1), 3, rng=seed),
        test_data=make_tiny_dataset(n=30, seed=777),
        clients_per_round=per_round,
        policy="uniform",
        num_tiers=3,
        sync_rounds=2,
        training=TRAIN,
        fault=fault,
        rng=seed,
        **kwargs,
    )


class TestTransientDropouts:
    def test_training_survives_random_dropouts(self):
        """10% per-round dropout: rounds complete, dropped clients are
        simply excluded from that round's aggregate."""
        # start_round gating is not available on DropoutInjector, so give
        # profiling a pass by seeding determinism: drop_prob applies to
        # profiling too, which the profiler tolerates (min one response).
        fault = DropoutInjector(drop_prob=0.10, rng=3)
        server = make_server(fault=fault, dropout_timeout=60.0)
        history = server.run(30)
        assert len(history) == 30
        dropped_rounds = [r for r in history.records if r.dropped]
        # with p=0.1 over 30 rounds x 2 clients, some drops are expected
        assert dropped_rounds, "fault injection never fired; test is vacuous"

    def test_dropout_timeout_charges_round(self):
        fault = DropoutInjector(drop_prob=0.2, rng=5)
        server = make_server(fault=fault, dropout_timeout=50.0)
        history = server.run(20)
        charged = [
            r.round_latency for r in history.records if r.dropped
        ]
        if charged:  # whenever a drop occurred, the timeout bound applied
            assert max(charged) == 50.0

    def test_accuracy_still_improves_under_faults(self):
        fault = DropoutInjector(drop_prob=0.15, rng=7)
        server = make_server(fault=fault, dropout_timeout=60.0)
        history = server.run(40)
        first = history.records[0].accuracy
        assert history.final_accuracy >= first - 0.05

    def test_fully_dropped_round_tolerated_with_timeout(self):
        """If every selected client drops, the round costs the timeout and
        the global model carries over unchanged."""
        server = make_server(dropout_timeout=30.0)
        # inject only after profiling so tiering is built from live clients
        server.fault = DropoutInjector(drop_prob=1.0, rng=1)
        w0 = server.global_weights.copy()
        rec = server.run_round(0)
        assert set(rec.dropped) == set(rec.selected)
        assert rec.round_latency == 30.0
        np.testing.assert_array_equal(server.global_weights, w0)

    def test_fully_dropped_round_raises_without_timeout(self):
        server = make_server()
        server.fault = DropoutInjector(drop_prob=1.0, rng=1)
        with pytest.raises(RuntimeError, match="dropout_timeout"):
            server.run_round(0)


class TestPersistentSlowdown:
    def test_slowdown_visible_in_round_times(self):
        server = make_server()
        server.run(10)
        before = float(np.mean(server.history.round_latencies[-5:]))
        server.fault = SlowdownInjector(factor=10.0, start_round=10)
        server.run(10, start_round=10)
        after = float(np.mean(server.history.round_latencies[-5:]))
        assert after > before * 3

    def test_reprofile_restores_tier_meaning(self):
        """After a targeted slowdown + reprofile, the slowed client sits in
        the slowest tier and the fast tier's rounds recover."""
        server = make_server(num_clients=12, per_round=2)
        victim = server.assignment.members(0)[0]
        server.fault = SlowdownInjector(
            factor=50.0, slow_clients={victim}, start_round=-(10**9)
        )
        server.reprofile()
        assert server.assignment.tier_of(victim) == server.assignment.num_tiers - 1


class TestProfilingFaultInteraction:
    def test_dead_client_never_trains(self):
        fault = DropoutInjector(always_drop={3})
        server = make_server(fault=fault)
        assert 3 in server.excluded
        history = server.run(25)
        for rec in history.records:
            assert 3 not in rec.selected

    def test_many_dead_clients_shrink_but_keep_tiers(self):
        fault = DropoutInjector(always_drop={0, 4, 8})
        server = make_server(fault=fault)
        assert server.excluded == {0, 4, 8}
        history = server.run(10)
        assert len(history) == 10
