"""Cross-modal align-then-refine fine-tuning toolkit.

A pretrained transformer body is transferred to a new modality in three
stages: supervised pretraining on the source task, embedder alignment that
minimizes an optimal-transport dataset distance between embedded target data
and cached source features, and supervised refinement on the target task.
"""

from .bundles import Bundle, load_bundle, save_bundle, synth_task
from .config import AlignConfig, ExperimentConfig, ModelConfig, RefineConfig, StageConfig
from .distances import (
    LabeledDataset,
    euclidean_align,
    mmd,
    otdd,
    otdd_grad,
    otdd_subsampled,
)
from .errors import (
    ContractError,
    FormatError,
    NumericError,
    OrcaError,
    RunError,
    ShapeError,
)
from .models import Model, ParameterSet
from .ot import TransportPlan, gaussian_w2, sinkhorn_log
from .pipeline import run_pipeline, sweep_train_fraction
from .report import metric, performance_profile, read_report, write_report

__all__ = [
    "Bundle", "load_bundle", "save_bundle", "synth_task",
    "AlignConfig", "ExperimentConfig", "ModelConfig", "RefineConfig", "StageConfig",
    "LabeledDataset", "euclidean_align", "mmd", "otdd", "otdd_grad",
    "otdd_subsampled",
    "ContractError", "FormatError", "NumericError", "OrcaError", "RunError",
    "ShapeError",
    "Model", "ParameterSet",
    "TransportPlan", "gaussian_w2", "sinkhorn_log",
    "run_pipeline", "sweep_train_fraction",
    "metric", "performance_profile", "read_report", "write_report",
]

__version__ = "0.1.0"
