"""Discrete optimal transport: log-domain Sinkhorn and the closed-form
2-Wasserstein distance between Gaussians."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError
from .tensor import ensure_finite, logsumexp_rows, sqrtm_psd

MARGINAL_TOL = 1e-6
DEFAULT_EPS_FRACTION = 0.05  # eps = 0.05 * mean(cost) when unspecified


def validate_histogram(w: np.ndarray, name: str = "histogram") -> np.ndarray:
    w = np.asarray(w, dtype=np.float64).ravel()
    if w.size == 0:
        raise ContractError(f"{name}: empty")
    if np.any(w < 0):
        raise ContractError(f"{name}: negative weight")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ContractError(f"{name}: weights sum to {w.sum():.12g}, not 1")
    return w


@dataclass
class TransportPlan:
    matrix: np.ndarray          # n x m, nonnegative
    value: float                # sum(plan * cost), entropy term excluded
    eps: float                  # regularization used (0 for exact solves)
    converged: bool = True
    iterations: int = 0

    def marginal_errors(self, a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
        row = float(np.abs(self.matrix.sum(axis=1) - a).max())
        col = float(np.abs(self.matrix.sum(axis=0) - b).max())
        return row, col


@dataclass
class GaussianStats:
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64).ravel()
        self.cov = np.asarray(self.cov, dtype=np.float64)
        d = self.mean.size
        if self.cov.shape != (d, d):
            raise ShapeError(f"covariance shape {self.cov.shape} != ({d}, {d})")


def default_eps(cost: np.ndarray) -> float:
    m = float(np.mean(cost))
    return DEFAULT_EPS_FRACTION * m if m > 0 else 1e-3


def sinkhorn_log(cost, a, b, eps=None, max_iter: int = 1000, tol: float = MARGINAL_TOL) -> TransportPlan:
    """Entropy-regularized OT in the log domain (dual potentials f, g).

    Returns the plan and its linear cost sum(pi * cost); a convergence flag is
    set instead of raising when the marginal tolerance is not reached within
    max_iter. Zero-mass atoms are dropped and reinserted as zero rows/columns.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ShapeError(f"cost must be a matrix, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ContractError("sinkhorn_log: non-finite cost entries")
    a = validate_histogram(a, "a")
    b = validate_histogram(b, "b")
    if cost.shape != (a.size, b.size):
        raise ShapeError(f"cost shape {cost.shape} vs histogram sizes ({a.size}, {b.size})")
    if eps is None:
        eps = default_eps(cost)
    if eps <= 0:
        raise ContractError("sinkhorn_log: eps must be positive")
    if max_iter < 1:
        raise ContractError("sinkhorn_log: max_iter must be >= 1")

    ia = np.flatnonzero(a > 0)
    ib = np.flatnonzero(b > 0)
    c = cost[np.ix_(ia, ib)]
    a_in, b_in = a[ia], b[ib]
    la, lb = np.log(a_in), np.log(b_in)

    f = np.zeros(ia.size)
    g = np.zeros(ib.size)
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        f = eps * (la - logsumexp_rows((g - c) / eps, axis=1))
        g = eps * (lb - logsumexp_rows((f[:, None] - c) / eps, axis=0))
        pi = np.exp((f[:, None] + g - c) / eps)
        # the column error matters only once the row error meets the tolerance
        row_err = np.maximum.reduce(np.abs(np.add.reduce(pi, axis=1) - a_in))
        if row_err < tol and np.maximum.reduce(
                np.abs(np.add.reduce(pi, axis=0) - b_in)) < tol:
            converged = True
            break

    plan = np.zeros(cost.shape)
    plan[np.ix_(ia, ib)] = pi
    ensure_finite(plan, "sinkhorn plan")
    value = float(np.sum(plan * cost, dtype=np.float64))
    return TransportPlan(matrix=plan, value=value, eps=float(eps), converged=converged, iterations=it)


def gaussian_w2(g1: GaussianStats, g2: GaussianStats) -> float:
    """Closed-form 2-Wasserstein (Bures) distance between two Gaussians."""
    if g1.mean.size != g2.mean.size:
        raise ShapeError(f"dimension mismatch: {g1.mean.size} vs {g2.mean.size}")
    dm = g1.mean - g2.mean
    s2 = sqrtm_psd(g2.cov)
    cross = sqrtm_psd(s2 @ g1.cov @ s2, sym_tol=1e-5)
    val = float(dm @ dm + np.trace(g1.cov) + np.trace(g2.cov) - 2.0 * np.trace(cross))
    return float(np.sqrt(max(val, 0.0)))
