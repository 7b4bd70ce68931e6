import itertools

import numpy as np
import pytest

from ot_oracle import exact_ot_enum

from orcakit.errors import ContractError
from orcakit.ot import (
    GaussianStats,
    gaussian_w2,
    sinkhorn_log,
)
from orcakit.tensor import make_rng


def uniform(n):
    return np.full(n, 1.0 / n)


class TestSinkhornLog:
    def test_zero_cost_max_entropy(self):
        plan = sinkhorn_log(np.zeros((2, 2)), uniform(2), uniform(2), eps=0.1)
        assert np.allclose(plan.matrix, 0.25, atol=1e-8)
        assert abs(plan.value) < 1e-12

    def test_singleton(self):
        plan = sinkhorn_log(np.array([[3.5]]), [1.0], [1.0], eps=0.01)
        assert np.allclose(plan.matrix, [[1.0]])
        assert abs(plan.value - 3.5) < 1e-12

    def test_small_eps_matches_lp(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        plan = sinkhorn_log(cost, uniform(2), uniform(2), eps=1e-3, max_iter=5000)
        assert plan.value < 1e-3
        assert np.allclose(plan.matrix, np.diag([0.5, 0.5]), atol=1e-3)

    def test_marginals(self):
        rng = make_rng(11)
        for _ in range(5):
            cost = rng.random((5, 7))
            a = rng.random(5)
            a /= a.sum()
            b = rng.random(7)
            b /= b.sum()
            plan = sinkhorn_log(cost, a, b, eps=0.05, max_iter=5000)
            assert plan.converged
            row, col = plan.marginal_errors(a, b)
            assert row < 1e-6 and col < 1e-6

    def test_eps_to_zero_monotone_gap(self):
        rng = make_rng(5)
        for _ in range(3):
            cost = rng.random((4, 4))
            exact = exact_ot_enum(cost, uniform(4), uniform(4))
            gaps = []
            for eps in (1.0, 0.1, 0.01):
                plan = sinkhorn_log(cost, uniform(4), uniform(4), eps=eps, max_iter=20000)
                assert plan.value >= exact.value - 1e-6
                gaps.append(plan.value - exact.value)
            assert gaps[0] >= gaps[1] - 1e-9 >= gaps[2] - 2e-9

    def test_cost_eps_joint_scaling(self):
        rng = make_rng(9)
        cost = rng.random((3, 4))
        a = uniform(3)
        b = uniform(4)
        lam = 2.0  # power of two keeps the update algebra exact in fp
        p1 = sinkhorn_log(cost, a, b, eps=0.05, max_iter=2000)
        p2 = sinkhorn_log(lam * cost, a, b, eps=lam * 0.05, max_iter=2000)
        assert abs(p2.value - lam * p1.value) < 1e-12
        assert np.abs(p2.matrix - p1.matrix).max() < 1e-12

    def test_nan_cost_rejected(self):
        cost = np.array([[np.nan]])
        with pytest.raises(ContractError):
            sinkhorn_log(cost, [1.0], [1.0], eps=0.1)

    def test_nonconvergence_flag(self):
        cost = make_rng(2).random((4, 4))
        plan = sinkhorn_log(cost, uniform(4), uniform(4), eps=1e-4, max_iter=2)
        assert not plan.converged

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_max_iter_below_one_rejected(self, max_iter):
        with pytest.raises(ContractError, match="max_iter"):
            sinkhorn_log(np.ones((2, 2)), uniform(2), uniform(2), eps=0.1, max_iter=max_iter)


class TestExactOtEnum:
    def test_identity_assignment(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        cost = (pts - pts.T) ** 2
        plan = exact_ot_enum(cost, uniform(3), uniform(3))
        assert abs(plan.value) < 1e-12
        assert np.allclose(plan.matrix, np.eye(3) / 3)

    def test_perfect_matching(self):
        plan = exact_ot_enum(np.array([[0.0, 1.0], [1.0, 0.0]]), uniform(2), uniform(2))
        assert abs(plan.value) < 1e-12

    def test_random_vs_permutation_oracle(self):
        rng = make_rng(17)
        for _ in range(10):
            cost = rng.random((3, 3))
            expected = min(
                sum(cost[i, p[i]] for i in range(3)) / 3
                for p in itertools.permutations(range(3))
            )
            plan = exact_ot_enum(cost, uniform(3), uniform(3))
            assert abs(plan.value - expected) < 1e-12

    def test_nonuniform_vs_linprog(self):
        from scipy.optimize import linprog

        rng = make_rng(23)
        cost = rng.random((3, 4))
        a = np.array([0.5, 0.3, 0.2])
        b = np.array([0.25, 0.25, 0.25, 0.25])
        plan = exact_ot_enum(cost, a, b)
        A_eq = np.zeros((7, 12))
        for i in range(3):
            A_eq[i, i * 4 : (i + 1) * 4] = 1
        for j in range(4):
            A_eq[3 + j, j::4] = 1
        res = linprog(cost.ravel(), A_eq=A_eq, b_eq=np.concatenate([a, b]),
                      bounds=(0, None), method="highs")
        assert abs(plan.value - res.fun) < 1e-9
        row, col = plan.marginal_errors(a, b)
        assert row < 1e-12 and col < 1e-12

    def test_size_cap(self):
        with pytest.raises(ContractError):
            exact_ot_enum(np.zeros((9, 9)), uniform(9), uniform(9))


class TestGaussianW2:
    def test_identical_zero(self):
        g = GaussianStats(np.array([1.0, 2.0]), np.eye(2))
        assert gaussian_w2(g, g) < 1e-8

    def test_identity_cov_mean_shift(self):
        g1 = GaussianStats(np.zeros(3), np.eye(3))
        g2 = GaussianStats(np.array([2.0, 0.0, 0.0]), np.eye(3))
        assert abs(gaussian_w2(g1, g2) - 2.0) < 1e-8

    def test_1d_closed_form_vs_monte_carlo(self):
        g1 = GaussianStats(np.array([0.0]), np.array([[1.0]]))
        g2 = GaussianStats(np.array([3.0]), np.array([[4.0]]))
        val = gaussian_w2(g1, g2)
        assert abs(val - np.sqrt(10.0)) < 1e-8
        # empirical 1D OT via the quantile coupling of sorted samples
        rng = make_rng(101)
        x = np.sort(rng.normal(0.0, 1.0, size=100_000))
        y = np.sort(rng.normal(3.0, 2.0, size=100_000))
        emp = np.sqrt(np.mean((x - y) ** 2))
        assert abs(val - emp) / emp < 0.02

    def test_symmetry(self):
        rng = make_rng(31)
        g = rng.normal(size=(4, 4))
        h = rng.normal(size=(4, 4))
        g1 = GaussianStats(rng.normal(size=4), g.T @ g + 0.1 * np.eye(4))
        g2 = GaussianStats(rng.normal(size=4), h.T @ h + 0.1 * np.eye(4))
        assert abs(gaussian_w2(g1, g2) - gaussian_w2(g2, g1)) < 1e-6

    def test_identity_of_indiscernibles(self):
        g1 = GaussianStats(np.zeros(2), np.eye(2))
        g2 = GaussianStats(np.zeros(2), np.eye(2) * 1.5)
        assert gaussian_w2(g1, g2) > 1e-5
