"""Experiment configuration parsing and validation."""

import json
import os

import pytest

from orcakit.config import AlignConfig, ExperimentConfig, ModelConfig, RefineConfig, StageConfig
from orcakit.errors import ContractError, FormatError


class TestStageConfig:
    def test_defaults(self):
        s = StageConfig()
        assert (s.epochs, s.batch_size, s.lr) == (30, 32, 1e-3)
        assert (s.schedule, s.schedule_factor, s.schedule_period) == ("step", 0.2, 20)
        assert (s.optimizer, s.warmup_epochs) == ("adam", 5)
        assert RefineConfig().train_fraction == 1.0
        a = AlignConfig()
        assert a.subsample_b == "full" and a.subsample_rounds == 1

    def test_rejects_bad_values(self):
        with pytest.raises(ContractError):
            StageConfig(epochs=-1)
        with pytest.raises(ContractError):
            RefineConfig(train_fraction=0.0)
        with pytest.raises(ContractError):
            StageConfig(schedule="cosine")
        with pytest.raises(ContractError):
            StageConfig(optimizer="lion")
        with pytest.raises(ContractError):
            AlignConfig(distance_metric="wasserstein")

    def test_unknown_keys_rejected(self):
        with pytest.raises(FormatError, match="momentum"):
            StageConfig.from_dict({"lr": 0.1, "momentum": 0.9})

    @pytest.mark.parametrize("stage,key,value,message", [
        ("pretrain", "batch_size", 0, "batch_size"),
        ("refine", "batch_size", -4, "batch_size"),
        ("pretrain", "schedule_period", 0, "schedule_period"),
        ("align", "eps", -1, "eps"),
        ("align", "eps", 0.0, "eps"),
        ("align", "distance_metric", "otdd-gaussian", "distance metric 'otdd-gaussian'"),
        ("refine", "metric", "acc", "metric 'acc'"),
        ("align", "subsample_b", "half", "subsample size"),
        ("align", "subsample_rounds", 0, "rounds"),
        ("align", "subsample_b", True, "subsample size"),
        ("model", "heads", 0, "heads"),
        ("model", "layers", -1, "layers"),
        ("model", "embed_dim", 0, "embed_dim"),
        ("model", "seq_len", 0, "seq_len"),
        ("model", "source_patch", 0, "source_patch"),
        ("model", "target_seq_len", 0, "target_seq_len"),
    ])
    def test_bad_values_rejected_at_load(self, stage, key, value, message):
        with pytest.raises(ContractError, match=message):
            ExperimentConfig.from_dict({stage: {key: value}})

    @pytest.mark.parametrize("stage,key,value", [
        ("refine", "batch_size", "4"),
        ("align", "eps", "0.1"),
        ("refine", "train_fraction", "0.5"),
        ("pretrain", "epochs", 2.5),
        ("pretrain", "lr", "0.1"),
        ("model", "layers", "2"),
        ("refine", "batch_size", True),
        (None, "seed", "0"),
    ])
    def test_wrong_json_type_rejected_at_load(self, stage, key, value):
        data = {key: value} if stage is None else {stage: {key: value}}
        with pytest.raises(FormatError, match=rf"^{stage or 'config'}\.{key}: expected "):
            ExperimentConfig.from_dict(data)

    def test_section_must_be_an_object(self):
        with pytest.raises(FormatError, match="^model: expected an object"):
            ExperimentConfig.from_dict({"model": 3})
        with pytest.raises(FormatError, match="^config: expected an object"):
            ExperimentConfig.from_dict([1, 2])

    def test_int_loads_as_float_and_null_where_allowed(self):
        c = ExperimentConfig.from_dict({"pretrain": {"lr": 1}, "align": {"eps": None},
                                        "model": {"target_seq_len": None}})
        assert c.pretrain.lr == 1 and c.align.eps is None

    @pytest.mark.parametrize("stage,key,value", [
        ("pretrain", "metric", "auroc"),
        ("pretrain", "eps", 0.1),
        ("align", "train_fraction", 0.5),
        ("refine", "distance_metric", "mmd"),
    ])
    def test_stage_rejects_keys_it_does_not_read(self, stage, key, value):
        with pytest.raises(FormatError, match=rf"^{stage}: unknown keys \['{key}'\]$"):
            ExperimentConfig.from_dict({stage: {key: value}})


class TestExperimentConfig:
    def test_defaults(self):
        c = ExperimentConfig()
        assert c.mode == "orca"
        assert c.align.epochs == 60 and c.align.lr == 1e-3
        assert c.refine.schedule == "linear" and c.refine.lr == 1e-4
        assert c.model.layers == 2 and c.model.embed_dim == 32
        assert c.model.heads == 4 and c.model.seq_len == 64

    def test_one_set_of_defaults(self):
        defaults = ExperimentConfig().to_dict()
        assert ExperimentConfig.from_dict({}).to_dict() == defaults
        partial = {"pretrain": {"seed": 0}, "align": {"batch_size": 32},
                   "refine": {"warmup_epochs": 5}}
        assert ExperimentConfig.from_dict(partial).to_dict() == defaults
        assert (defaults["align"]["epochs"], defaults["refine"]["lr"],
                defaults["refine"]["schedule"]) == (60, 1e-4, "linear")

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
