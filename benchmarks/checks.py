"""Output checks computed apart from the program under test.

Every check appends a message to `Checks.failures` instead of raising, so a
run reports all of its failures at once. The arithmetic here deliberately
avoids orcakit's helpers (no `pairwise_sq_dists`, no `report.metric`).
"""

from __future__ import annotations

import numpy as np


def _as_matrix(features) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    return x.mean(axis=1) if x.ndim == 3 else x


def sq_dist_bounds(zt: np.ndarray, zs: np.ndarray) -> tuple[float, float, float]:
    """(mean, max) of squared target-to-source distances and the squared gap
    between the two sets' means, from explicit differences in row chunks."""
    total = 0.0
    largest = 0.0
    for i in range(0, zt.shape[0], 16):
        diff = zt[i : i + 16, None, :] - zs[None, :, :]
        d = np.einsum("ijk,ijk->ij", diff, diff)
        total += float(d.sum())
        largest = max(largest, float(d.max()))
    gap = zt.mean(axis=0) - zs.mean(axis=0)
    return total / (zt.shape[0] * zs.shape[0]), largest, float(gap @ gap)


class Checks:
    def __init__(self, marginal_tol: float):
        self.marginal_tol = marginal_tol
        self.failures: list[str] = []
        self.plans_checked = 0
        self.otdd_checked = 0
        self.worst_marginal = 0.0

    def require(self, ok: bool, message: str):
        if not ok:
            self.failures.append(message)

    # -- OT layer -----------------------------------------------------------

    def plan(self, matrix, a, b):
        """Row and column sums of a converged plan meet the marginal tolerance."""
        matrix = np.asarray(matrix, dtype=np.float64)
        a = np.asarray(a, dtype=np.float64).ravel()
        b = np.asarray(b, dtype=np.float64).ravel()
        err = max(float(np.abs(matrix.sum(axis=1) - a).max()),
                  float(np.abs(matrix.sum(axis=0) - b).max()))
        self.plans_checked += 1
        self.worst_marginal = max(self.worst_marginal, err)
        self.require(err <= self.marginal_tol,
                     f"converged {matrix.shape} plan misses its marginals by {err:.3g}")

    def otdd_value(self, tgt, src, value: float):
        """Jensen lower bound and product-coupling upper bound on OTDD^2.

        Any coupling with uniform marginals moves the target mean onto the
        source mean, so the squared mean gap bounds the OT value from below.
        The entropic plan costs no more than the product coupling, whose
        Euclidean part is the mean squared distance; each label term is the
        cost of a plan between class members, at most the largest squared
        distance. The lower bound carries a relative slack of the marginal
        tolerance, since the plan's marginals are met only to that tolerance.
        """
        zt = _as_matrix(tgt.features)
        zs = _as_matrix(src.features)
        mean_d, max_d, gap2 = sq_dist_bounds(zt, zs)
        v2 = float(value) ** 2
        self.otdd_checked += 1
        self.require(gap2 <= v2 * (1 + self.marginal_tol),
                     f"otdd^2 {v2:.6g} below the squared mean gap {gap2:.6g}")
        self.require(v2 <= mean_d + max_d,
                     f"otdd^2 {v2:.6g} above mean+max squared distance {mean_d + max_d:.6g}")

    # -- refinement -----------------------------------------------------------

    def zero_one(self, logits: np.ndarray, labels: np.ndarray, reported: float, what: str):
        wrong = int(np.count_nonzero(np.argmax(logits, axis=1) != labels.astype(np.int64)))
        mine = wrong / labels.shape[0]
        self.require(mine == reported,
                     f"{what}: zero-one error from logits {mine!r} != evaluate {reported!r}")
