import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orcakit.errors import ContractError, ShapeError
from orcakit.tensor import logsumexp_rows, make_rng, pairwise_sq_dists, sqrtm_psd


class TestPairwiseSqDists:
    def test_symmetry_zero_diagonal(self):
        a = np.array([[0.0], [1.0]])
        out = pairwise_sq_dists(a, a)
        assert np.allclose(out, [[0, 1], [1, 0]])

    def test_identical_points(self):
        out = pairwise_sq_dists(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]]))
        assert np.allclose(out, [[0.0]])

    def test_hand_345(self):
        out = pairwise_sq_dists(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))
        assert np.allclose(out, [[25.0]])

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            pairwise_sq_dists(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_random_symmetric(self):
        a = make_rng(7).normal(size=(12, 5))
        d = pairwise_sq_dists(a, a)
        assert np.abs(np.diag(d)).max() < 1e-6
        assert np.abs(d - d.T).max() < 1e-6
        assert d.min() >= 0


class TestSqrtmPsd:
    def test_identity(self):
        assert np.allclose(sqrtm_psd(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(sqrtm_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_square_reconstructs(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        s = sqrtm_psd(m)
        assert np.linalg.norm(s @ s - m) < 1e-5 * (1 + np.linalg.norm(m))

    def test_random_gram(self):
        rng = make_rng(3)
        for _ in range(10):
            g = rng.normal(size=(6, 6))
            m = g.T @ g
            s = sqrtm_psd(m)
            assert np.linalg.norm(s @ s - m) < 1e-5 * (1 + np.linalg.norm(m))
            assert np.allclose(s, s.T)

    def test_non_symmetric_rejected(self):
        with pytest.raises(ContractError):
            sqrtm_psd(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_negative_definite_rejected(self):
        with pytest.raises(ContractError):
            sqrtm_psd(-np.eye(2))


class TestLogsumexp:
    """`logsumexp_rows`, the reduction behind every log-domain Sinkhorn sweep."""

    def test_single(self):
        for axis in (0, 1):
            assert logsumexp_rows(np.array([[0.0]]), axis=axis).tolist() == [0.0]

    def test_two_equal(self):
        c = 3.7
        got = logsumexp_rows(np.array([[c, c], [0.0, 0.0]]), axis=1)
        assert np.allclose(got, [c + np.log(2), np.log(2)], rtol=0, atol=1e-12)
        got = logsumexp_rows(np.array([[c, c], [c, c]]).T, axis=0)
        assert np.allclose(got, c + np.log(2), rtol=0, atol=1e-12)

    def test_no_overflow(self):
        got = logsumexp_rows(np.full((2, 2), 1000.0), axis=1)
        assert np.all(np.isfinite(got))
        assert np.allclose(got, 1000 + np.log(2), rtol=0, atol=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=20),
        st.floats(-100, 100),
    )
    def test_shift_invariance(self, v, c):
        m = np.array([v, v[::-1]])
        for axis, mat in ((1, m), (0, m.T)):
            got = logsumexp_rows(mat, axis=axis)
            assert got.shape == (2,)
            assert np.allclose(got, np.log(np.sum(np.exp(np.array(v)))), rtol=0, atol=1e-9)
            assert np.allclose(logsumexp_rows(mat + c, axis=axis), got + c, rtol=0, atol=1e-6)


class TestRng:
    def test_determinism(self):
        a = make_rng(42, "stream").normal(size=10)
        b = make_rng(42, "stream").normal(size=10)
        assert np.array_equal(a, b)

    def test_stream_split(self):
        a = make_rng(42, "x").normal(size=10)
        b = make_rng(42, "y").normal(size=10)
        assert not np.array_equal(a, b)
