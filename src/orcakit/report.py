"""Evaluation metrics, Dolan-More performance profiles, and the serialized
experiment record (report.json + curves.csv)."""

from __future__ import annotations

import csv
import importlib.resources
import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import ContractError

METRIC_NAMES = ("zero_one_error", "auroc", "nrmse", "relative_l2")


@dataclass
class MetricValue:
    name: str
    value: float
    n: int

    def __post_init__(self):
        if self.name in ("zero_one_error", "auroc") and not 0.0 <= self.value <= 1.0:
            raise ContractError(f"{self.name} out of [0, 1]: {self.value}")
        if self.name == "nrmse" and self.value < 0:
            raise ContractError("nrmse must be nonnegative")


def metric(name: str, predictions, targets) -> MetricValue:
    """zero_one_error on argmax labels, binary AUROC on scores (midrank
    ties), nRMSE = RMSE / RMS(targets), and relative l2."""
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets)
    if name == "zero_one_error":
        if predictions.ndim == 2:
            pred_labels = np.argmax(predictions, axis=1)  # ties -> lowest index
        else:
            pred_labels = predictions.astype(np.int64)
        t = targets.astype(np.int64).ravel()
        if pred_labels.shape[0] != t.shape[0]:
            raise ContractError("prediction/target length mismatch")
        return MetricValue(name, float(np.mean(pred_labels != t)), t.size)
    if name == "auroc":
        scores = predictions.ravel()
        labels = targets.astype(np.int64).ravel()
        if scores.size != labels.size:
            raise ContractError("prediction/target length mismatch")
        found = np.unique(targets)
        if not np.isin(found, (0, 1)).all():
            raise ContractError(f"auroc needs labels 0 and 1, got labels {found.tolist()}")
        pos = labels == 1
        neg = labels == 0
        n_pos, n_neg = int(pos.sum()), int(neg.sum())
        if n_pos == 0 or n_neg == 0:
            raise ContractError("auroc undefined for single-class targets")
        # Mann-Whitney U with midranks
        order = np.argsort(scores, kind="mergesort")
        ranks = np.empty(scores.size, dtype=np.float64)
        sorted_scores = scores[order]
        i = 0
        while i < scores.size:
            j = i
            while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
                j += 1
            ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
            i = j + 1
        u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
        return MetricValue(name, float(u / (n_pos * n_neg)), labels.size)
    if name == "nrmse":
        t = targets.astype(np.float64)
        if predictions.shape != t.shape:
            raise ContractError("prediction/target shape mismatch")
        rmse = np.sqrt(np.mean((predictions - t) ** 2))
        rms = np.sqrt(np.mean(t ** 2))
        return MetricValue(name, float(rmse / rms) if rms > 0 else float(rmse), t.size)
    if name == "relative_l2":
        t = targets.astype(np.float64)
        if predictions.shape != t.shape:
            raise ContractError("prediction/target shape mismatch")
        denom = np.linalg.norm(t)
        num = np.linalg.norm(predictions - t)
        return MetricValue(name, float(num / denom) if denom > 0 else float(num), t.size)
    raise ContractError(f"unknown metric {name!r}")


@dataclass
class ProfileCurve:
    method: str
    tau: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.rho) < -1e-12):
            raise ContractError("profile fraction must be nondecreasing in tau")


def performance_profile(errors, methods=None, n_grid: int = 50) -> list[ProfileCurve]:
    """Dolan-More curves: rho_m(tau) = fraction of tasks where the method's
    error is within a factor tau of the per-task best (1e-12 guard on the
    best so zero-error tasks stay well defined)."""
    e = np.asarray(errors, dtype=np.float64)
    if e.ndim != 2 or e.size == 0:
        raise ContractError("errors must be a nonempty method x task matrix")
    if np.any(e < 0):
        raise ContractError("negative error entries")
    n_methods, n_tasks = e.shape
    if methods is None:
        methods = [f"method{i}" for i in range(n_methods)]
    best = e.min(axis=0) + 1e-12
    ratios = e / best[None, :]
    tau_max = max(float(ratios.max()), 1.0 + 1e-9)
    tau = np.exp(np.linspace(0.0, np.log(tau_max), n_grid))
    curves = []
    for m in range(n_methods):
        rho = np.array([(ratios[m] <= t * (1 + 1e-12)).mean() for t in tau])
        curves.append(ProfileCurve(method=methods[m], tau=tau, rho=rho))
    return curves


def profile_at(curve: ProfileCurve, tau: float) -> float:
    """rho at an arbitrary tau (step interpolation of the curve's ratios)."""
    mask = curve.tau <= tau * (1 + 1e-9)
    if not mask.any():
        return 0.0
    return float(curve.rho[mask][-1])


# ---------------------------------------------------------------------------
# run records

def report_schema() -> dict:
    with importlib.resources.files("orcakit").joinpath("schemas/report_schema.json").open() as f:
        return json.load(f)


def canonical_record(record):
    """Record minus volatile fields (`timing` at every level); two runs of the
    same config/seed must agree on this form bitwise."""
    if isinstance(record, dict):
        return {k: canonical_record(v) for k, v in record.items() if k != "timing"}
    return [canonical_record(v) for v in record] if isinstance(record, list) else record


def write_report(record: dict, out_dir) -> dict:
    """Emit report.json and curves.csv; returns the paths written.

    Key order is stable (sorted); re-serialization of a parsed report is
    byte-identical.
    """
    os.makedirs(out_dir, exist_ok=True)
    required = ("config", "seeds", "epochs")
    for key in required:
        if key not in record:
            raise ContractError(f"run record missing {key!r}")
    report_path = os.path.join(out_dir, "report.json")
    try:
        with open(report_path, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")
    except OSError as exc:
        raise ContractError(f"cannot write report: {exc}") from exc

    curves_path = os.path.join(out_dir, "curves.csv")
    epochs = record["epochs"]
    with open(curves_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "distance", "metric"])
        for row in epochs:
            writer.writerow([
                row.get("epoch"),
                _fmt(row.get("distance")),
                _fmt(row.get("metric")),
            ])
    return {"report": report_path, "curves": curves_path}


def _fmt(v):
    return "" if v is None else repr(float(v))


def read_report(out_dir) -> dict:
    with open(os.path.join(out_dir, "report.json")) as f:
        return json.load(f)
