"""Exact OT on small instances: the oracle the Sinkhorn and OTDD tests check
against, independent of Sinkhorn."""

import itertools

import numpy as np

from orcakit.errors import ContractError, NumericError
from orcakit.ot import TransportPlan, validate_histogram


def _basic_feasible_plans(a: np.ndarray, b: np.ndarray):
    """All basic feasible solutions of the transportation polytope.

    Every vertex is supported on n+m-1 cells whose incidence columns are
    linearly independent; enumerating those supports and solving the flow
    system yields every candidate optimum. Solves are batched per chunk.
    """
    n, m = a.size, b.size
    k = n + m - 1
    incidence = np.zeros((k, n * m))
    for i in range(n):
        incidence[i, i * m : (i + 1) * m] = 1.0
    for j in range(m - 1):  # last column constraint is redundant
        incidence[n + j, j::m] = 1.0
    rhs = np.concatenate([a, b[:-1]])

    supports = np.array(list(itertools.combinations(range(n * m), k)))
    for chunk in np.array_split(supports, max(1, supports.shape[0] // 4096)):
        mats = incidence[:, chunk]                      # (k, n_chunk, k)
        mats = np.moveaxis(mats, 1, 0)                  # (n_chunk, k, k)
        dets = np.abs(np.linalg.det(mats))
        ok = dets > 1e-9
        if not ok.any():
            continue
        flows = np.linalg.solve(
            mats[ok], np.broadcast_to(rhs[:, None], (int(ok.sum()), k, 1)).copy()
        )[..., 0]
        feasible = (flows >= -1e-12).all(axis=1)
        for support, flow in zip(chunk[ok][feasible], flows[feasible]):
            plan = np.zeros(n * m)
            plan[support] = np.maximum(flow, 0.0)
            yield plan.reshape(n, m)


def exact_ot_enum(cost, a, b) -> TransportPlan:
    """Exact OT on small instances; a test oracle, independent of Sinkhorn.

    Uniform square instances are solved by assignment enumeration over all
    permutations; general instances enumerate transport-polytope vertices via
    basis-support enumeration (sizes <= 5) or fall back to an LP solve.
    """
    cost = np.asarray(cost, dtype=np.float64)
    a = validate_histogram(a, "a")
    b = validate_histogram(b, "b")
    n, m = cost.shape
    if n > 8 or m > 8:
        raise ContractError(f"exact_ot_enum: instance {n}x{m} above the 8x8 cap")

    uniform = (
        n == m
        and np.allclose(a, 1.0 / n, atol=1e-12)
        and np.allclose(b, 1.0 / m, atol=1e-12)
    )
    if uniform:
        best_val = np.inf
        best_perm = None
        for perm in itertools.permutations(range(n)):
            v = sum(cost[i, perm[i]] for i in range(n)) / n
            if v < best_val - 1e-15:
                best_val = v
                best_perm = perm
        plan = np.zeros((n, m))
        for i in range(n):
            plan[i, best_perm[i]] = 1.0 / n
        return TransportPlan(matrix=plan, value=float(best_val), eps=0.0)

    if n <= 5 and m <= 5:
        best_val = np.inf
        best_plan = None
        for plan in _basic_feasible_plans(a, b):
            v = float(np.sum(plan * cost))
            if v < best_val - 1e-15:
                best_val = v
                best_plan = plan
        return TransportPlan(matrix=best_plan, value=best_val, eps=0.0)

    # 6..8 on a side: vertex enumeration explodes; exact LP instead
    from scipy.optimize import linprog

    c_flat = cost.ravel()
    A_eq = np.zeros((n + m, n * m))
    for i in range(n):
        A_eq[i, i * m : (i + 1) * m] = 1.0
    for j in range(m):
        A_eq[n + j, j::m] = 1.0
    res = linprog(c_flat, A_eq=A_eq, b_eq=np.concatenate([a, b]), bounds=(0, None), method="highs")
    if not res.success:
        raise NumericError(f"exact_ot_enum: LP solve failed: {res.message}")
    return TransportPlan(matrix=res.x.reshape(n, m), value=float(res.fun), eps=0.0)
