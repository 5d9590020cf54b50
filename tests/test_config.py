"""Tests for the training configuration."""

import pytest

from repro.config import (
    PAPER_FEMNIST_TRAINING,
    PAPER_SYNTHETIC_TRAINING,
    TrainingConfig,
)
from repro.nn.optimizers import RMSprop, SGD


class TestPaperDefaults:
    def test_synthetic_matches_section52(self):
        cfg = PAPER_SYNTHETIC_TRAINING
        assert cfg.optimizer == "rmsprop"
        assert cfg.lr == 0.01
        assert cfg.lr_decay == 0.995
        assert cfg.batch_size == 10
        assert cfg.epochs == 1

    def test_femnist_matches_leaf_defaults(self):
        cfg = PAPER_FEMNIST_TRAINING
        assert cfg.optimizer == "sgd"
        assert cfg.lr == 0.004
        assert cfg.batch_size == 10


class TestValidation:
    def test_bad_optimizer(self):
        with pytest.raises(ValueError):
            TrainingConfig(optimizer="adam")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lr": 0.0},
            {"lr_decay": 0.0},
            {"lr_decay": 1.5},
            {"batch_size": 0},
            {"epochs": 0},
            {"prox_mu": -0.1},
        ],
    )
    def test_bad_numeric_fields(self, kwargs):
        with pytest.raises(ValueError):
            TrainingConfig(**kwargs)

    def test_codec_validated_against_registry(self):
        assert TrainingConfig().codec == "raw"
        assert TrainingConfig(codec="delta").codec == "delta"
        assert TrainingConfig(codec="quantized").codec == "quantized"
        with pytest.raises(ValueError, match="codec"):
            TrainingConfig(codec="zstd")


class TestSchedule:
    def test_lr_at(self):
        cfg = TrainingConfig(lr=0.1, lr_decay=0.5)
        assert cfg.lr_at(0) == 0.1
        assert cfg.lr_at(3) == pytest.approx(0.0125)

    def test_negative_round_raises(self):
        with pytest.raises(ValueError):
            TrainingConfig().lr_at(-1)

    def test_factory_types(self):
        assert isinstance(
            TrainingConfig(optimizer="rmsprop").optimizer_factory(0)(), RMSprop
        )
        assert isinstance(
            TrainingConfig(optimizer="sgd").optimizer_factory(0)(), SGD
        )

    def test_factory_applies_decayed_lr(self):
        cfg = TrainingConfig(optimizer="sgd", lr=0.2, lr_decay=0.5)
        opt = cfg.optimizer_factory(2)()
        assert opt.lr == pytest.approx(0.05)
        # the per-round decay is baked in; the optimizer itself is constant
        assert opt.decay == 1.0

    def test_with_helper(self):
        cfg = TrainingConfig().with_(lr=0.5, prox_mu=0.1)
        assert cfg.lr == 0.5
        assert cfg.prox_mu == 0.1
        assert cfg.batch_size == TrainingConfig().batch_size
