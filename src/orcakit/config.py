"""Experiment configuration: JSON documents mapping stage names to stage
settings. Each stage accepts only the keys it reads, unknown keys are
rejected, and every field has one documented default."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields, asdict

from .distances import check_subsample
from .errors import ContractError, FormatError
from .models import BodySpec
from .report import METRIC_NAMES


@dataclass(frozen=True)
class RunMode:
    """What a run mode takes from the earlier stages."""
    pretrained_body: bool    # else the body is randomly initialized
    aligned_embedder: bool   # else fresh; implies pretrained_body, whose features it fits
    mask: str                # the models.trainable_mask mode
    warm_init: bool = False  # copy the body's first layernorm into the embedder's


RUN_MODES = {
    "orca": RunMode(True, True, "full"),
    "naive_ft": RunMode(True, False, "full"),
    "scratch": RunMode(False, False, "full"),
    "orca_layernorm": RunMode(True, True, "layernorm_only"),
    "ft_layernorm": RunMode(True, False, "layernorm_only"),
    "ft_warm_init": RunMode(True, False, "full", warm_init=True),
}


def run_mode(name: str) -> RunMode:
    if name not in RUN_MODES:
        raise ContractError(f"unknown run mode {name!r}")
    return RUN_MODES[name]


DISTANCE_METRICS = ("otdd", "otdd-sub", "mmd", "euclidean")


# the JSON values a field annotated with each type name takes
_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "dict": dict,
               "None": type(None)}


def _from_dict(cls, data: dict, where: str):
    if not isinstance(data, dict):
        raise FormatError(f"{where}: expected an object, got {data!r}")
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise FormatError(f"{where}: unknown keys {sorted(unknown)}")
    for f in fields(cls):
        kinds = f.type.split(" | ")
        # nested sections arrive built; subsample_b is checked by check_subsample
        if f.name not in data or f.name == "subsample_b" or \
                not all(k in _JSON_TYPES for k in kinds):
            continue
        value = data[f.name]
        if isinstance(value, bool) or \
                not isinstance(value, tuple(_JSON_TYPES[k] for k in kinds)):
            expected = " or ".join(kinds).replace("None", "null")
            raise FormatError(f"{where}.{f.name}: expected {expected}, got {value!r}")
    return cls(**data)


@dataclass
class StageConfig:
    """The training-loop settings that every stage reads; pretraining takes
    exactly these."""
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

    def __post_init__(self):
        if self.epochs < 0:
            raise ContractError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ContractError("batch_size must be >= 1")
        if self.schedule not in ("step", "linear"):
            raise ContractError(f"unknown schedule {self.schedule!r}")
        if self.schedule_period < 1:
            raise ContractError("schedule_period must be >= 1")
        if self.optimizer not in ("adam", "sgd"):
            raise ContractError(f"unknown optimizer {self.optimizer!r}")

    @classmethod
    def from_dict(cls, data: dict, where: str = "stage"):
        return _from_dict(cls, data, where)

    def to_dict(self):
        return asdict(self)


@dataclass
class AlignConfig(StageConfig):
    """Embedder alignment: the training loop plus the distance it minimizes."""
    epochs: int = 60
    distance_metric: str = "otdd"
    subsample_b: int | str = "full"  # Algorithm-1 b; "full" = whole class
    subsample_rounds: int = 1        # Algorithm-1 R
    eps: float | None = None         # entropic regularization; None = auto

    def __post_init__(self):
        super().__post_init__()
        if self.distance_metric not in DISTANCE_METRICS:
            raise ContractError(f"unknown distance metric {self.distance_metric!r}")
        check_subsample(self.subsample_b, self.subsample_rounds)
        if self.eps is not None and not self.eps > 0:
            raise ContractError("eps must be > 0, or null for the automatic choice")


@dataclass
class RefineConfig(StageConfig):
    """Refinement: the training loop plus the target metric and data share."""
    lr: float = 1e-4
    schedule: str = "linear"
    metric: str = "zero_one_error"
    train_fraction: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if self.metric not in METRIC_NAMES:
            raise ContractError(f"unknown metric {self.metric!r}")
        if not 0.0 < self.train_fraction <= 1.0:
            raise ContractError("train_fraction must be in (0, 1]")


@dataclass
class ModelConfig:
    layers: int = 2
    heads: int = 4
    embed_dim: int = 32
    seq_len: int = 64
    source_patch: int = 2           # patch size of the source-modality embedder
    target_seq_len: int | None = None
    head_mode: str = "classification"  # must match the target bundle's label_kind

    def __post_init__(self):
        BodySpec(self.layers, self.heads, self.embed_dim, self.seq_len)
        if self.source_patch < 1:
            raise ContractError("source_patch must be >= 1")
        if self.target_seq_len is not None and self.target_seq_len < 1:
            raise ContractError("target_seq_len must be >= 1 or null")


@dataclass
class ExperimentConfig:
    seed: int = 0
    out_dir: str = "runs/out"
    mode: str = "orca"
    paths: dict = field(default_factory=dict)
    model: ModelConfig = field(default_factory=ModelConfig)
    pretrain: StageConfig = field(default_factory=StageConfig)
    align: AlignConfig = field(default_factory=AlignConfig)
    refine: RefineConfig = field(default_factory=RefineConfig)

    _PATH_KEYS = (
        "source_bundle", "target_bundle", "val_bundle", "eval_bundle",
        "checkpoint", "cache", "aligned_embedder",
    )

    def __post_init__(self):
        run_mode(self.mode)
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
        if not isinstance(data, dict):
            raise FormatError(f"config: expected an object, got {data!r}")
        data = dict(data)
        for key, section in (("model", ModelConfig), ("pretrain", StageConfig),
                             ("align", AlignConfig), ("refine", RefineConfig)):
            if key in data:
                data[key] = _from_dict(section, data[key], key)
        return _from_dict(cls, data, "config")

    @classmethod
    def load(cls, path):
        try:
            with open(path) as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise FormatError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(data)

    def to_dict(self):
        return asdict(self)
