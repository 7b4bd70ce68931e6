"""Experiment configuration: JSON documents mapping stage names to stage
settings. Unknown keys are rejected; every field has a documented default."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields, asdict

from .errors import ContractError, FormatError

RUN_MODES = ("orca", "naive_ft", "scratch", "orca_layernorm", "ft_layernorm", "ft_warm_init")
DISTANCE_METRICS = ("otdd", "otdd-gaussian", "otdd-sub", "mmd", "euclidean")


def _from_dict(cls, data: dict, where: str):
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise FormatError(f"{where}: unknown keys {sorted(unknown)}")
    return cls(**data)


@dataclass
class StageConfig:
    epochs: int = 30
    batch_size: int = 32
    lr: float = 1e-3
    schedule: str = "step"          # step | linear
    schedule_factor: float = 0.2    # step: multiply lr by this every period
    schedule_period: int = 20
    warmup_epochs: int = 5          # linear: epochs to reach peak lr
    optimizer: str = "adam"         # adam (betas 0.9/0.999) | sgd
    weight_decay: float = 0.0
    grad_clip: float = 0.0          # 0 disables clipping
    seed: int = 0
    metric: str = "zero_one_error"
    distance_metric: str = "otdd"
    subsample_b: int | str = "full"  # Algorithm-1 b; "full" = whole class
    subsample_rounds: int = 1        # Algorithm-1 R
    train_fraction: float = 1.0
    eps: float | None = None         # entropic regularization; None = auto

    def __post_init__(self):
        if self.epochs < 0:
            raise ContractError("epochs must be >= 0")
        if not 0.0 < self.train_fraction <= 1.0:
            raise ContractError("train_fraction must be in (0, 1]")
        if self.schedule not in ("step", "linear"):
            raise ContractError(f"unknown schedule {self.schedule!r}")
        if self.optimizer not in ("adam", "sgd"):
            raise ContractError(f"unknown optimizer {self.optimizer!r}")
        if self.distance_metric not in DISTANCE_METRICS:
            raise ContractError(f"unknown distance metric {self.distance_metric!r}")

    @classmethod
    def from_dict(cls, data: dict, where: str = "stage"):
        return _from_dict(cls, data, where)

    def to_dict(self):
        return asdict(self)


@dataclass
class ModelConfig:
    layers: int = 2
    heads: int = 4
    embed_dim: int = 32
    seq_len: int = 64
    source_patch: int = 2           # patch size of the source-modality embedder
    target_seq_len: int | None = None
    head_mode: str = "classification"  # must match the target bundle's label_kind

    @classmethod
    def from_dict(cls, data: dict, where: str = "model"):
        return _from_dict(cls, data, where)

    def to_dict(self):
        return asdict(self)


@dataclass
class ExperimentConfig:
    seed: int = 0
    out_dir: str = "runs/out"
    mode: str = "orca"
    paths: dict = field(default_factory=dict)
    model: ModelConfig = field(default_factory=ModelConfig)
    pretrain: StageConfig = field(default_factory=lambda: StageConfig(lr=1e-3))
    align: StageConfig = field(default_factory=lambda: StageConfig(epochs=60, lr=1e-3))
    refine: StageConfig = field(
        default_factory=lambda: StageConfig(schedule="linear", lr=1e-4)
    )

    _PATH_KEYS = (
        "source_bundle", "target_bundle", "val_bundle", "eval_bundle",
        "checkpoint", "cache", "aligned_embedder",
    )

    def __post_init__(self):
        if self.mode not in RUN_MODES:
            raise ContractError(f"unknown run mode {self.mode!r}")
        unknown = set(self.paths) - set(self._PATH_KEYS)
        if unknown:
            raise FormatError(f"paths: unknown keys {sorted(unknown)}")

    def path(self, key: str) -> str:
        """The configured path for `key`, or `out_dir/key` when none is set."""
        if key not in self._PATH_KEYS:
            raise ContractError(f"unknown path key {key!r}")
        return self.paths.get(key) or os.path.join(self.out_dir, key)

    @classmethod
    def from_dict(cls, data: dict):
        data = dict(data)
        known = {"seed", "out_dir", "mode", "paths", "model", "pretrain", "align", "refine"}
        unknown = set(data) - known
        if unknown:
            raise FormatError(f"config: unknown keys {sorted(unknown)}")
        out = cls(
            seed=data.get("seed", 0),
            out_dir=data.get("out_dir", "runs/out"),
            mode=data.get("mode", "orca"),
            paths=data.get("paths", {}),
            model=ModelConfig.from_dict(data.get("model", {})),
            pretrain=StageConfig.from_dict(data.get("pretrain", {}), "pretrain"),
            align=StageConfig.from_dict(data.get("align", {}), "align"),
            refine=StageConfig.from_dict(data.get("refine", {}), "refine"),
        )
        return out

    @classmethod
    def load(cls, path):
        try:
            with open(path) as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise FormatError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(data)

    def to_dict(self):
        return {
            "seed": self.seed,
            "out_dir": self.out_dir,
            "mode": self.mode,
            "paths": dict(self.paths),
            "model": self.model.to_dict(),
            "pretrain": self.pretrain.to_dict(),
            "align": self.align.to_dict(),
            "refine": self.refine.to_dict(),
        }
