"""Tests for scenario builders."""

import numpy as np
import pytest

from repro.config import PAPER_SYNTHETIC_TRAINING
from repro.data.validation import classes_per_client
from repro.experiments import scenarios
from repro.experiments.scenarios import (
    DATA_DISTRIBUTIONS,
    MODEL_NAMES,
    ScenarioConfig,
    build_leaf_scenario,
    build_population_scenario,
    build_scenario,
)
from repro.nn import Sequential
from repro.simcluster import CIFAR_CPU_GROUPS


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

    def test_removed_shards_distribution_is_rejected(self):
        with pytest.raises(ValueError, match="shards"):
            ScenarioConfig(data_distribution="shards")

    def test_unknown_model_is_rejected(self):
        with pytest.raises(ValueError, match="unknown model 'resnet50'"):
            ScenarioConfig(model="resnet50")

    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(num_clients=7), "num_clients=7 not divisible by 5 groups"),
            (dict(train_size=5), "cannot split 5 samples among 10 clients"),
            (
                dict(dataset="mnist", data_distribution="noniid", noniid_classes=11),
                r"must be in \[1, 10\], got 11",
            ),
            # 40 pool rows hold only 40 of femnist's 62 classes.
            (
                dict(
                    dataset="femnist", data_distribution="noniid", train_size=40, noniid_classes=41
                ),
                r"must be in \[1, 40\], got 41",
            ),
            (
                dict(num_clients=12, data_distribution="quantity", resource_profile="homogeneous"),
                "num_clients=12 not divisible by 5",
            ),
            # The CLI's 8x8 input leaves cifar10_cnn's second pool a 1x1 map.
            (
                dict(model="cifar10_cnn", shape=(8, 8, 1)),
                "non-positive output size: input=1 kernel=2",
            ),
            (dict(model="mnist_cnn"), "non-positive output size: input=2 kernel=3"),
            (dict(model="femnist_cnn", shape=(8, 8)), r"Conv2D expects \(h, w, c\) input"),
        ],
    )
    def test_check_buildable_refuses_what_the_build_refuses(self, kw, message, monkeypatch):
        cfg = small(**kw)
        with pytest.raises(ValueError, match=message):
            cfg.check_buildable()
        # The same refusal, raised by the build steps themselves.
        monkeypatch.setattr(ScenarioConfig, "check_buildable", lambda self: None)
        with pytest.raises(ValueError, match=message):
            build_scenario(cfg, seed=0)

    def test_a_buildable_config_passes_the_check(self):
        small().check_buildable()
        small(data_distribution="quantity_noniid", noniid_classes=2).check_buildable()

    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_the_model_check_builds_nothing_and_the_build_builds_once(self, model, monkeypatch):
        cfg = small(model=model, shape=(12, 12, 1))
        with monkeypatch.context() as patch:
            patch.setattr(Sequential, "__init__", None)  # building a model raises TypeError
            cfg.check_buildable()
        calls = []
        real = scenarios.build_model
        monkeypatch.setattr(
            scenarios, "build_model", lambda *a, **kw: calls.append(a[0]) or real(*a, **kw)
        )
        build_scenario(cfg, seed=0)
        assert calls == [model]

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
        for dist in ("iid", "noniid", "quantity"):
            scn = build_scenario(small(data_distribution=dist), seed=1)
            clients = list(scn.clients.values())
            total = sum(len(c.train_data) + len(c.holdout) for c in clients)
            assert total == 400
            assert scn.clients.num_samples.sum() == 400

    @pytest.mark.parametrize("dist", DATA_DISTRIBUTIONS)
    def test_every_declared_distribution_is_deterministic_given_the_seed(self, dist):
        first = build_scenario(small(data_distribution=dist), seed=3)
        again = build_scenario(small(data_distribution=dist), seed=3)
        assert len(first.clients) == 10
        assert 0 < first.clients.num_samples.sum() <= 400
        np.testing.assert_array_equal(first.clients.num_samples, again.clients.num_samples)

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
        assert scn.clients[3].spec.group == scn.clients.group[3]

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


class TestConfigRecordsWhatWasBuilt:
    """``Scenario.config`` is what ``run_metadata(config=...)`` stamps
    into a trace: every knob a builder took lands in it as built."""

    def test_leaf_knobs(self):
        scn = build_leaf_scenario(
            num_clients=20, sample_scale=0.1, holdout_fraction=0.3,
            cost_per_sample=0.02, seed=0,
        )
        cfg = scn.config
        assert cfg.holdout_fraction == scn.clients.holdout_fraction == 0.3
        assert cfg.cost_per_sample == scn.latency_model.cost_per_sample == 0.02
        assert cfg.train_size == len(scn.fed.train) == 443
        assert cfg.test_size == len(scn.test_data) == 2000
        assert cfg.cpu_groups == tuple(CIFAR_CPU_GROUPS)
        assert cfg.shuffle_resources

    @pytest.mark.parametrize(
        "heavy_tailed, profile", [(True, "heterogeneous"), (False, "homogeneous")]
    )
    def test_population_profile_matches_its_columns(self, heavy_tailed, profile):
        scn = build_population_scenario(
            num_clients=50, clients_per_round=5, heavy_tailed=heavy_tailed, seed=0
        )
        assert scn.config.resource_profile == profile
        assert (len(set(scn.clients.cpu_fraction)) == 1) == (not heavy_tailed)
        assert scn.config.train_size == len(scn.fed.train)
        assert scn.config.test_size == len(scn.test_data)

    def test_training_is_recorded(self):
        training = PAPER_SYNTHETIC_TRAINING.with_(codec="delta")
        for scn in (
            build_leaf_scenario(num_clients=10, sample_scale=0.1, training=training, seed=0),
            build_population_scenario(
                num_clients=50, clients_per_round=5, training=training, seed=0
            ),
        ):
            assert scn.config.training == training
            assert scn.config.resolved_training() == scn.training == training
