"""Tests for the synchronous FedAvg server (Alg. 1)."""

import gc
import weakref

import numpy as np
import pytest

from repro.config import TrainingConfig
from repro.experiments.scenarios import ScenarioConfig, build_scenario
from repro.fl.aggregator import HierarchicalAggregator
from repro.fl.selection import OverSelector, RandomSelector
from repro.fl.server import FLServer
from repro.nn import build_linear
from repro.simcluster.faults import DropoutInjector
from repro.tifl.server import TiFLServer
from tests.conftest import make_test_client, make_test_population, make_tiny_dataset


def make_server(
    num_clients=6,
    per_round=3,
    cpus=None,
    fault=None,
    seed=0,
    dropout_timeout=None,
    aggregator=None,
    eval_every=1,
    training=None,
):
    clients = make_test_population(num_clients, cpus=cpus, seed=seed)
    model = build_linear((4, 4, 1), 3, rng=seed)
    test = make_tiny_dataset(n=30, seed=999)
    return FLServer(
        clients=clients,
        model=model,
        selector=RandomSelector(per_round, rng=seed),
        test_data=test,
        training=training or TrainingConfig(optimizer="sgd", lr=0.1, lr_decay=1.0),
        fault=fault,
        dropout_timeout=dropout_timeout,
        aggregator=aggregator,
        eval_every=eval_every,
        rng=seed,
    )


class TestRoundLoop:
    def test_runs_requested_rounds(self):
        server = make_server()
        history = server.run(5)
        assert len(history) == 5
        np.testing.assert_array_equal(history.rounds, np.arange(5))

    def test_round_latency_is_cohort_max(self):
        """Eq. 1: round latency equals the slowest selected client."""
        server = make_server(cpus=[4.0, 2.0, 1.0, 0.5, 0.25, 0.1])
        rec = server.run_round(0)
        lats = {
            cid: server.clients[cid].mean_response_latency(server.num_params)
            for cid in rec.selected
        }
        np.testing.assert_allclose(rec.round_latency, max(lats.values()), rtol=1e-9)

    def test_clock_accumulates(self):
        server = make_server()
        history = server.run(4)
        np.testing.assert_allclose(
            history.times, np.cumsum(history.round_latencies)
        )

    def test_weights_change_each_round(self):
        server = make_server()
        w0 = server.global_weights.copy()
        server.run_round(0)
        assert not np.array_equal(server.global_weights, w0)

    def test_learning_progress(self):
        server = make_server(num_clients=6, per_round=3)
        history = server.run(25)
        first = history.records[0].accuracy
        assert history.final_accuracy >= first

    def test_eval_every(self):
        server = make_server(eval_every=3)
        history = server.run(7)
        evaluated = [r.round_idx for r in history.records if r.accuracy is not None]
        assert evaluated == [0, 3, 6]

    def test_invalid_rounds(self):
        with pytest.raises(ValueError):
            make_server().run(0)


class TestAggregation:
    def test_hierarchical_matches_flat(self):
        flat_server = make_server(seed=11)
        tree_server = make_server(seed=11, aggregator=HierarchicalAggregator(2))
        flat_server.run(3)
        tree_server.run(3)
        np.testing.assert_allclose(
            flat_server.global_weights, tree_server.global_weights, rtol=1e-9
        )

    def test_unknown_client_raises(self):
        server = make_server()

        class BadSelector(RandomSelector):
            def select(self, r, available):
                from repro.fl.selection import SelectionPlan

                return SelectionPlan(clients=[999])

        server.selector = BadSelector(1)
        with pytest.raises(KeyError, match="unknown"):
            server.run_round(0)


class TestDropouts:
    def test_dropped_client_excluded_from_aggregate(self):
        fault = DropoutInjector(always_drop={0})
        server = make_server(fault=fault)
        rec = server.run_round(0)
        if 0 in rec.selected:
            assert 0 in rec.dropped

    def test_all_dropped_raises(self):
        fault = DropoutInjector(always_drop=set(range(6)))
        server = make_server(fault=fault)
        with pytest.raises(RuntimeError, match="dropped"):
            server.run_round(0)

    def test_dropout_timeout_charged(self):
        fault = DropoutInjector(always_drop={0})
        server = make_server(fault=fault, dropout_timeout=100.0, per_round=6)
        rec = server.run_round(0)
        assert 0 in rec.dropped
        assert rec.round_latency == 100.0


class TestOverSelection:
    def test_keep_fastest(self):
        """With over-selection the round is bounded by the keep-th fastest."""
        cpus = [4.0, 4.0, 4.0, 4.0, 0.05, 0.05]
        clients = make_test_population(6, cpus=cpus)
        model = build_linear((4, 4, 1), 3, rng=0)
        server = FLServer(
            clients=clients,
            model=model,
            selector=OverSelector(4, over_factor=1.5, rng=0),
            test_data=make_tiny_dataset(n=20, seed=1),
            training=TrainingConfig(optimizer="sgd", lr=0.1, lr_decay=1.0),
            rng=0,
        )
        slow_lat = clients[4].mean_response_latency(model.num_params())
        rec = server.run_round(0)
        # 6 selected, keep 4: the two slow clients are discarded whenever
        # at least four fast ones respond
        assert rec.round_latency < slow_lat


class TestExclusion:
    def test_excluded_not_selected(self):
        server = make_server(num_clients=6, per_round=3)
        server.exclude_clients([0, 1])
        for r in range(10):
            rec = server.run_round(r)
            assert not ({0, 1} & set(rec.selected))

    def test_cannot_empty_pool(self):
        server = make_server()
        with pytest.raises(ValueError, match="empty"):
            server.exclude_clients(range(6))


class TestClientPoolType:
    def test_client_list_is_rejected_before_any_round(self):
        """Servers take a PopulationStore and nothing else."""
        with pytest.raises(TypeError, match="build_scenario"):
            FLServer(
                clients=[make_test_client(client_id=i) for i in range(3)],
                model=build_linear((4, 4, 1), 3, rng=0),
                selector=RandomSelector(2, rng=0),
                test_data=make_tiny_dataset(n=20, seed=1),
            )


class TestFederationLifetime:
    """A finished federation is freed by refcounting alone: no reference
    cycle may tie server, store and training set together until a
    gen-2 collection (back-to-back federations otherwise stack their
    datasets in RSS)."""

    @pytest.mark.parametrize("policy", ["vanilla", "uniform"])
    def test_closed_server_is_freed_without_cyclic_gc(self, policy):
        cfg = ScenarioConfig(
            num_clients=10, clients_per_round=2, train_size=300,
            test_size=60, shape=(4, 4, 1),
            training=TrainingConfig(optimizer="sgd", lr=0.1, epochs=2),
        )
        gc.collect()
        gc.disable()
        try:
            scn = build_scenario(cfg, seed=0)
            if policy == "vanilla":
                server = FLServer(
                    scn.clients, scn.model, RandomSelector(2, rng=0),
                    scn.test_data, training=scn.training, rng=0,
                )
            else:
                server = TiFLServer(
                    scn.clients, scn.model, scn.test_data, 2, policy=policy,
                    training=scn.training, rng=0,
                )
            assert server.epochs_for(0, 0) == 2  # TrainingConfig.epochs
            server.run(2)
            server.close()
            refs = [
                weakref.ref(server),
                weakref.ref(scn.clients),
                weakref.ref(scn.fed.train),
            ]
            del server, scn
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()


class TestLrSchedule:
    def test_decay_applied_per_round(self):
        cfg = TrainingConfig(optimizer="sgd", lr=0.5, lr_decay=0.5)
        assert cfg.lr_at(0) == 0.5
        assert cfg.lr_at(2) == 0.125

    def test_factory_produces_fresh_optimizers(self):
        cfg = TrainingConfig(optimizer="rmsprop", lr=0.1)
        f = cfg.optimizer_factory(0)
        assert f() is not f()
