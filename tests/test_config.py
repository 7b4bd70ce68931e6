"""Experiment configuration parsing and validation."""

import json
import os

import pytest

from orcakit.config import ExperimentConfig, ModelConfig, StageConfig
from orcakit.errors import ContractError, FormatError


class TestStageConfig:
    def test_defaults(self):
        s = StageConfig()
        assert (s.epochs, s.batch_size, s.lr) == (30, 32, 1e-3)
        assert (s.schedule, s.schedule_factor, s.schedule_period) == ("step", 0.2, 20)
        assert (s.optimizer, s.warmup_epochs, s.train_fraction) == ("adam", 5, 1.0)
        assert s.subsample_b == "full" and s.subsample_rounds == 1

    def test_rejects_bad_values(self):
        with pytest.raises(ContractError):
            StageConfig(epochs=-1)
        with pytest.raises(ContractError):
            StageConfig(train_fraction=0.0)
        with pytest.raises(ContractError):
            StageConfig(schedule="cosine")
        with pytest.raises(ContractError):
            StageConfig(optimizer="lion")
        with pytest.raises(ContractError):
            StageConfig(distance_metric="wasserstein")

    def test_unknown_keys_rejected(self):
        with pytest.raises(FormatError, match="momentum"):
            StageConfig.from_dict({"lr": 0.1, "momentum": 0.9})


class TestExperimentConfig:
    def test_defaults(self):
        c = ExperimentConfig()
        assert c.mode == "orca"
        assert c.align.epochs == 60 and c.align.lr == 1e-3
        assert c.refine.schedule == "linear" and c.refine.lr == 1e-4
        assert c.model.layers == 2 and c.model.embed_dim == 32
        assert c.model.heads == 4 and c.model.seq_len == 64

    def test_round_trip(self, tmp_path):
        c = ExperimentConfig(seed=7, mode="naive_ft",
                             paths={"source_bundle": "s", "target_bundle": "t"})
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(c.to_dict()))
        c2 = ExperimentConfig.load(p)
        assert c2.to_dict() == c.to_dict()

    def test_unknown_mode_and_keys(self):
        with pytest.raises(ContractError):
            ExperimentConfig(mode="turbo")
        with pytest.raises(FormatError):
            ExperimentConfig.from_dict({"extra": 1})
        for path_key in ("weights", "test_bundle"):
            with pytest.raises(FormatError):
                ExperimentConfig(paths={path_key: "x"})
        for model_key in ("depth", "classes", "dense_k"):
            with pytest.raises(FormatError):
                ExperimentConfig.from_dict({"model": {model_key: 4}})

    def test_path_defaults_under_out_dir(self):
        c = ExperimentConfig(out_dir="o", paths={"cache": "c"})
        assert c.path("cache") == "c"
        assert c.path("checkpoint") == os.path.join("o", "checkpoint")
        with pytest.raises(ContractError):
            c.path("weights")

    def test_bad_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{")
        with pytest.raises(FormatError):
            ExperimentConfig.load(p)
        with pytest.raises(FormatError):
            ExperimentConfig.load(tmp_path / "missing.json")

    def test_stage_overrides_parse(self):
        c = ExperimentConfig.from_dict({
            "refine": {"train_fraction": 0.1, "epochs": 5},
            "model": {"head_mode": "dense", "target_seq_len": 256},
        })
        assert c.refine.train_fraction == 0.1
        assert c.model.head_mode == "dense"
        assert c.model.target_seq_len == 256
