import itertools

import numpy as np
import pytest
from ot_oracle import exact_ot_enum

from orcakit.distances import (
    LabeledDataset,
    _otdd_core,
    euclidean_align,
    fit_label_conditionals,
    kmeans_pseudolabels,
    label_distance_matrix,
    mmd,
    otdd,
    otdd_subsampled,
)
from orcakit.errors import ContractError
from orcakit.tensor import make_rng


def toy_dataset(seed, n_per_class=6, classes=2, d=3, shift=0.0):
    rng = make_rng(seed, "toy")
    feats, labels = [], []
    for c in range(classes):
        center = rng.normal(size=d) * 2 + c * 4 + shift
        feats.append(center + 0.3 * rng.normal(size=(n_per_class, d)))
        labels.extend([c] * n_per_class)
    return LabeledDataset(np.vstack(feats), np.array(labels))


class TestFitLabelConditionals:
    def test_single_point_class(self):
        ds = LabeledDataset(np.array([[1.0, 2.0]]), np.array([0]))
        (cond,) = fit_label_conditionals(ds, ridge=0.5)
        assert np.allclose(cond.mean, [1.0, 2.0])
        assert np.allclose(cond.cov, 0.5 * np.eye(2))

    def test_two_point_unbiased_cov(self):
        ds = LabeledDataset(np.array([[0.0], [2.0]]), np.array([0, 0]))
        (cond,) = fit_label_conditionals(ds, ridge=0.1)
        assert np.allclose(cond.mean, [1.0])
        assert np.allclose(cond.cov, [[2.1]])

    def test_identical_partitions(self):
        feats = make_rng(4).normal(size=(8, 2))
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        c1 = fit_label_conditionals(LabeledDataset(feats, labels))
        c2 = fit_label_conditionals(LabeledDataset(feats, 1 - labels))
        assert np.allclose(c1[0].mean, c2[1].mean)
        assert np.allclose(c1[1].cov, c2[0].cov)


class TestLabelDistanceMatrix:
    def test_identical_conditionals_zero_diag(self):
        ds = toy_dataset(1)
        conds = fit_label_conditionals(ds)
        feats = ds.reduced()
        w = label_distance_matrix(conds, conds, feats, feats, mode="exact", eps=1e-3)
        assert np.abs(np.diag(w)).max() < 1e-2

    def test_point_masses(self):
        a = LabeledDataset(np.array([[0.0]]), np.array([0]))
        b = LabeledDataset(np.array([[5.0]]), np.array([0]))
        ca = fit_label_conditionals(a, ridge=0.0)
        cb = fit_label_conditionals(b, ridge=0.0)
        w = label_distance_matrix(ca, cb, a.reduced(), b.reduced(), mode="exact", eps=1e-4)
        assert abs(w[0, 0] - 5.0) < 1e-3

    def test_two_point_classes_vs_enum(self):
        # one class per dataset, two points each on a line
        a = LabeledDataset(np.array([[0.0], [1.0]]), np.array([0, 0]))
        b = LabeledDataset(np.array([[2.0], [3.0]]), np.array([0, 0]))
        ca = fit_label_conditionals(a)
        cb = fit_label_conditionals(b)
        w = label_distance_matrix(ca, cb, a.reduced(), b.reduced(), mode="exact", eps=1e-4)
        cost = np.array([[4.0, 9.0], [1.0, 4.0]])
        oracle = exact_ot_enum(cost, [0.5, 0.5], [0.5, 0.5])
        assert abs(w[0, 0] - np.sqrt(oracle.value)) < 1e-2


class TestOtdd:
    def test_self_distance(self):
        ds = toy_dataset(2)
        rep = otdd(ds, ds, mode="exact", eps=1e-3)
        scale = float(np.abs(ds.reduced()).max())
        assert rep.value < 1e-3 * scale

    def test_label_rename_invariance(self):
        ds = toy_dataset(3)
        renamed = LabeledDataset(ds.features.copy(), 5 - ds.labels)
        src = toy_dataset(4)
        r1 = otdd(ds, src, mode="exact", eps=0.1)
        r2 = otdd(renamed, src, mode="exact", eps=0.1)
        assert abs(r1.value - r2.value) < 1e-6

    def test_point_mass_enum_oracle(self):
        tgt = LabeledDataset(np.array([[0.0], [10.0]]), np.array([0, 1]))
        src0 = LabeledDataset(np.array([[0.0], [10.0]]), np.array([0, 1]))
        rep = otdd(tgt, src0, mode="exact", eps=1e-4)
        assert rep.value < 1e-2
        src = LabeledDataset(np.array([[3.0], [13.0]]), np.array([0, 1]))
        rep = otdd(tgt, src, mode="exact", eps=1e-4)
        # augmented 2x2 cost: feature sq dist + squared class W2 (each class a
        # point mass 3 apart from its counterpart)
        feat = np.array([[9.0, 169.0], [49.0, 9.0]])
        label = np.array([[9.0, 9.0], [9.0, 9.0]])
        oracle = exact_ot_enum(feat + label, [0.5, 0.5], [0.5, 0.5])
        assert abs(rep.value - np.sqrt(oracle.value)) < 0.05 * np.sqrt(oracle.value)

    def test_translation_invariance(self):
        tgt = toy_dataset(5)
        src = toy_dataset(6)
        r1 = otdd(tgt, src, mode="exact", eps=0.1)
        shift = np.array([7.0, -2.0, 1.0])
        tgt2 = LabeledDataset(tgt.features + shift, tgt.labels)
        src2 = LabeledDataset(src.features + shift, src.labels)
        r2 = otdd(tgt2, src2, mode="exact", eps=0.1)
        assert abs(r1.value - r2.value) < 1e-5

    def test_sample_permutation_invariance(self):
        tgt = toy_dataset(7)
        src = toy_dataset(8)
        perm = make_rng(9).permutation(tgt.n)
        tgt2 = LabeledDataset(tgt.features[perm], tgt.labels[perm])
        r1 = otdd(tgt, src, mode="exact", eps=0.1)
        r2 = otdd(tgt2, src, mode="exact", eps=0.1)
        assert abs(r1.value - r2.value) < 1e-6

    def test_gaussian_mode_runs(self):
        rep = otdd(toy_dataset(10), toy_dataset(11), mode="gaussian", eps=0.1)
        assert rep.value >= 0

    def test_rows_index_their_class_conditionals(self):
        tgt = LabeledDataset(make_rng(12).normal(size=(9, 3)),
                             np.array([7, 2, 7, 9, 2, 9, 9, 7, 2]))
        src = toy_dataset(13, classes=3)
        rows, cols = _otdd_core(tgt, src, "exact", 0.1, 0)[5:7]
        for ds, idx in ((tgt, rows), (src, cols)):
            order = {c.label: i for i, c in enumerate(fit_label_conditionals(ds))}
            assert idx.tolist() == [order[int(y)] for y in ds.labels]


class TestOtddSubsampled:
    def test_full_b_equals_classwise_sum(self):
        tgt = toy_dataset(12, n_per_class=5)
        src = toy_dataset(13)
        rep = otdd_subsampled(tgt, src, b="full", rounds=1, seed=0, eps=0.1)
        expected = 0.0
        for c in (0, 1):
            idx = np.flatnonzero(tgt.labels == c)
            sub = LabeledDataset(tgt.features[idx], tgt.labels[idx])
            expected += (idx.size / tgt.n) * otdd(sub, src, eps=0.1, seed=0).value
        assert rep.value == expected  # bit-for-seed

    def test_class_weights(self):
        feats = make_rng(14).normal(size=(10, 2))
        labels = np.array([0, 0, 1, 1, 1, 2, 2, 2, 2, 2])
        src = toy_dataset(15, d=2, classes=3)
        rep = otdd_subsampled(LabeledDataset(feats, labels), src, b=2, rounds=1, eps=0.1)
        assert rep.class_weights == {0: 0.2, 1: 0.3, 2: 0.5}

    def test_gap_shrinks_with_b(self):
        tgt = toy_dataset(16, n_per_class=8)
        src = toy_dataset(17)
        exact = 0.0
        for c in (0, 1):
            idx = np.flatnonzero(tgt.labels == c)
            sub = LabeledDataset(tgt.features[idx], tgt.labels[idx])
            exact += (idx.size / tgt.n) * otdd(sub, src, eps=0.1, seed=0).value
        gaps = []
        for b in (2, 4, "full"):
            rep = otdd_subsampled(tgt, src, b=b, rounds=20, seed=0, eps=0.1)
            gaps.append(abs(rep.value - exact))
        assert gaps[0] >= gaps[1] - 1e-9 >= gaps[2] - 2e-9


class TestMmd:
    def test_identical_zero(self):
        a = make_rng(18).normal(size=(10, 3))
        assert mmd(a, a.copy()) < 1e-6

    def test_rbf_far_clusters(self):
        a = np.array([[0.0, 0.0], [0.1, 0.0]])
        b = np.array([[100.0, 0.0], [100.1, 0.0]])
        val = mmd(a, b, bandwidth=1.0)
        # hand kernel matrices: cross terms vanish, within-cluster mean
        # = (2 + 2 exp(-0.01/2)) / 4 per block
        within = (2 + 2 * np.exp(-0.005)) / 4
        assert abs(val - np.sqrt(2 * within)) < 1e-3
        assert val > 0

    def test_symmetry(self):
        rng = make_rng(20)
        a = rng.normal(size=(8, 2))
        b = rng.normal(size=(9, 2))
        assert mmd(a, b) == mmd(b, a)

    def test_bad_bandwidth(self):
        with pytest.raises(ContractError):
            mmd(np.zeros((2, 2)), np.ones((2, 2)), bandwidth=-1.0)


class TestEuclideanAlign:
    def test_singletons(self):
        assert euclidean_align(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])) == 25.0

    def test_translation_invariance(self):
        rng = make_rng(22)
        a = rng.normal(size=(5, 2))
        b = rng.normal(size=(7, 2))
        t = np.array([3.0, -1.0])
        assert abs(euclidean_align(a, b, seed=4) - euclidean_align(a + t, b + t, seed=4)) < 1e-9

    def test_deterministic(self):
        rng = make_rng(23)
        a = rng.normal(size=(5, 2))
        b = rng.normal(size=(6, 2))
        assert euclidean_align(a, b, seed=7) == euclidean_align(a, b, seed=7)


class TestKmeans:
    def test_k1(self):
        labels = kmeans_pseudolabels(make_rng(24).normal(size=(5, 2)), 1)
        assert np.array_equal(labels, np.zeros(5))

    def test_k_equals_n(self):
        x = np.arange(4, dtype=float).reshape(4, 1) * 10
        labels = kmeans_pseudolabels(x, 4, seed=0)
        assert len(set(labels.tolist())) == 4

    def test_two_blobs(self):
        rng = make_rng(25)
        a = rng.normal(size=(5, 2))
        b = rng.normal(size=(5, 2)) + 50
        x = np.vstack([a, b])
        labels = kmeans_pseudolabels(x, 2, seed=3)
        # brute-force best 2-partition by inertia
        best, best_inertia = None, np.inf
        for assignment in itertools.product([0, 1], repeat=9):
            asg = np.array((0,) + assignment)
            if len(set(asg.tolist())) < 2:
                continue
            inertia = sum(
                np.sum((x[asg == c] - x[asg == c].mean(axis=0)) ** 2)
                for c in (0, 1)
            )
            if inertia < best_inertia:
                best_inertia, best = inertia, asg
        same = np.array_equal(labels, best) or np.array_equal(labels, 1 - best)
        assert same

    def test_k_too_large(self):
        with pytest.raises(ContractError):
            kmeans_pseudolabels(np.zeros((3, 2)), 4)

    def test_deterministic(self):
        x = make_rng(26).normal(size=(20, 3))
        l1 = kmeans_pseudolabels(x, 3, seed=5)
        l2 = kmeans_pseudolabels(x, 3, seed=5)
        assert np.array_equal(l1, l2)
