"""Tests for scenario builders."""

import numpy as np
import pytest

from repro.data.validation import classes_per_client
from repro.experiments.scenarios import (
    ScenarioConfig,
    build_leaf_scenario,
    build_scenario,
)


def small(**kw):
    defaults = dict(
        num_clients=10,
        clients_per_round=2,
        train_size=400,
        test_size=100,
        shape=(4, 4, 1),
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(dataset="imagenet")
        with pytest.raises(ValueError):
            ScenarioConfig(data_distribution="zipf")
        with pytest.raises(ValueError):
            ScenarioConfig(resource_profile="gpu")
        with pytest.raises(ValueError):
            ScenarioConfig(num_clients=5, clients_per_round=6)

    def test_with_helper(self):
        cfg = small().with_(dataset="mnist")
        assert cfg.dataset == "mnist"
        assert cfg.num_clients == 10

    def test_training_defaults(self):
        assert small(dataset="mnist").resolved_training().optimizer == "rmsprop"
        assert small(dataset="femnist").resolved_training().optimizer == "sgd"
        assert small(dataset="femnist").resolved_training().lr == 0.004


class TestBuildScenario:
    def test_basic_structure(self):
        scn = build_scenario(small(), seed=0)
        assert len(scn.clients) == 10
        assert scn.model.output_shape == (10,)
        assert len(scn.test_data) == 100

    def test_partition_valid_all_distributions(self):
        for dist in ("iid", "noniid", "shards", "quantity"):
            scn = build_scenario(small(data_distribution=dist), seed=1)
            clients = list(scn.clients.values())
            total = sum(len(c.train_data) + len(c.holdout) for c in clients)
            assert total == 400
            assert scn.clients.num_samples.sum() == 400

    def test_quantity_noniid_partial_cover(self):
        scn = build_scenario(
            small(data_distribution="quantity_noniid", noniid_classes=5), seed=1
        )
        assert 0 < scn.clients.num_samples.sum() <= 400

    def test_noniid_limits_classes(self):
        cfg = small(data_distribution="noniid", noniid_classes=2, train_size=600)
        scn = build_scenario(cfg, seed=2)
        cpc = classes_per_client(
            scn.fed.train.y, scn.fed.client_indices, scn.fed.train.num_classes
        )
        assert (cpc <= 2).all()

    def test_resource_groups_assigned(self):
        scn = build_scenario(small(resource_profile="heterogeneous"), seed=0)
        assert set(scn.clients.group) == {0, 1, 2, 3, 4}
        assert set(scn.clients.cpu_fraction) == {4.0, 2.0, 1.0, 0.5, 0.1}
        assert scn.clients[3].spec.group == scn.group_of(3)

    def test_homogeneous_resources(self):
        scn = build_scenario(small(resource_profile="homogeneous"), seed=0)
        assert set(scn.clients.cpu_fraction) == {2.0}

    def test_mnist_cpu_groups(self):
        scn = build_scenario(small(dataset="mnist"), seed=0)
        assert set(scn.clients.cpu_fraction) == {2.0, 1.0, 0.75, 0.5, 0.25}

    def test_deterministic(self):
        a = build_scenario(small(), seed=5)
        b = build_scenario(small(), seed=5)
        np.testing.assert_array_equal(a.fed.train.x, b.fed.train.x)
        np.testing.assert_array_equal(a.clients.group, b.clients.group)

    def test_population_keyword_is_gone(self):
        with pytest.raises(TypeError):
            build_scenario(small(), seed=0, population=True)

    def test_cache_holds_a_paper_shape_federation(self):
        """Derived from the input, not settable: v1 profiling never
        sees an eviction at scenario sizes."""
        assert build_scenario(small(), seed=0).clients.cache_size == 256
        big = build_scenario(small(num_clients=300, train_size=600), seed=0)
        assert big.clients.cache_size == 300

    def test_model_choices(self):
        assert build_scenario(small(model="linear"), seed=0).model.num_params() == 170
        mlp = build_scenario(small(model="mlp", mlp_hidden=(8,)), seed=0).model
        assert mlp.num_params() == 16 * 8 + 8 + 8 * 10 + 10


class TestLeafScenario:
    def test_paper_shape(self):
        scn = build_leaf_scenario(
            num_clients=27, clients_per_round=3, sample_scale=0.1, seed=0
        )
        assert len(scn.clients) == 27
        assert scn.model.output_shape == (62,)
        # 27 = 5*5 + 2 remainder -> remainder joins the slowest group
        assert (scn.clients.group == 4).sum() == 5 + 2

    def test_femnist_training_defaults(self):
        scn = build_leaf_scenario(num_clients=10, sample_scale=0.1, seed=0)
        assert scn.training.optimizer == "sgd"
        assert scn.training.lr == 0.004

    def test_quantity_skew_inherent(self):
        scn = build_leaf_scenario(num_clients=30, sample_scale=0.3, seed=1)
        assert scn.clients.num_train_samples.std() > 0
        client = scn.clients[0]
        assert len(client.train_data) == scn.clients.num_train_samples[0]
