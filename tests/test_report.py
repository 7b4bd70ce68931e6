"""Metrics, performance profiles, and run-record serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orcakit.errors import ContractError
from orcakit.report import (
    canonical_record,
    metric,
    performance_profile,
    profile_at,
    read_report,
    report_schema,
    write_report,
)


class TestMetrics:
    def test_zero_one_error_basic(self):
        logits = np.array([[2.0, 1.0], [0.0, 3.0], [1.0, 0.5]])
        m = metric("zero_one_error", logits, [0, 1, 1])
        assert m.value == pytest.approx(1.0 / 3.0)
        assert m.n == 3

    def test_zero_one_argmax_ties_lowest_index(self):
        logits = np.array([[1.0, 1.0, 1.0]])
        assert metric("zero_one_error", logits, [0]).value == 0.0
        assert metric("zero_one_error", logits, [1]).value == 1.0

    def test_auroc_four_point_example(self):
        scores = np.array([0.1, 0.4, 0.35, 0.8])
        labels = np.array([0, 0, 1, 1])
        assert metric("auroc", scores, labels).value == pytest.approx(0.75)

    def test_auroc_perfect_and_reversed(self):
        labels = np.array([0, 0, 1, 1])
        assert metric("auroc", [0.1, 0.2, 0.8, 0.9], labels).value == 1.0
        assert metric("auroc", [0.9, 0.8, 0.2, 0.1], labels).value == 0.0

    def test_auroc_ties_use_midranks(self):
        # every score equal -> chance level exactly
        assert metric("auroc", [0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]).value == 0.5

    def test_auroc_single_class_rejected(self):
        with pytest.raises(ContractError):
            metric("auroc", [0.1, 0.2], [1, 1])

    @pytest.mark.parametrize("scores, labels, found", [
        ([0.5, 0.3, 0.1], [0, 1, 2], r"\[0, 1, 2\]"),
        ([0.1, 0.9, 0.5, 0.7, 0.2], [0, 1, 2, 3, 1], r"\[0, 1, 2, 3\]"),
    ], ids=["three-classes", "four-classes"])
    def test_auroc_non_binary_labels_rejected(self, scores, labels, found):
        with pytest.raises(ContractError, match=found):
            metric("auroc", scores, labels)

    def test_nrmse_oracle(self):
        t = np.array([3.0, 4.0])          # RMS = sqrt(12.5)
        p = np.array([3.0, 5.0])          # RMSE = sqrt(0.5)
        expect = np.sqrt(0.5 / 12.5)
        assert metric("nrmse", p, t).value == pytest.approx(expect, rel=1e-12)

    def test_nrmse_zero_on_exact(self):
        t = np.linspace(-1, 1, 7)
        assert metric("nrmse", t, t).value == 0.0

    def test_relative_l2_oracle(self):
        t = np.array([3.0, 4.0])
        p = np.array([3.0, 4.0 + 5.0])
        assert metric("relative_l2", p, t).value == pytest.approx(1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            metric("nrmse", np.zeros(3), np.zeros(4))
        with pytest.raises(ContractError):
            metric("unknown", np.zeros(3), np.zeros(3))

    @given(st.integers(2, 40), st.integers(0, 2 ** 30))
    @settings(max_examples=30, deadline=None)
    def test_auroc_matches_pair_counting(self, n, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=n)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
        oracle = wins / (pos.size * neg.size)
        assert metric("auroc", scores, labels).value == pytest.approx(oracle, abs=1e-12)


class TestProfiles:
    def test_two_method_example(self):
        curves = performance_profile([[1.0, 2.0], [2.0, 1.0]], ["a", "b"])
        for c in curves:
            assert profile_at(c, 1.0) == pytest.approx(0.5)
            assert profile_at(c, 2.0) == pytest.approx(1.0)

    def test_dominant_method_is_one_everywhere(self):
        curves = performance_profile([[1.0, 1.0], [3.0, 5.0]])
        assert np.all(curves[0].rho == 1.0)
        assert profile_at(curves[1], 1.0) == 0.0

    def test_rho_nondecreasing_and_ends_at_one(self):
        rng = np.random.default_rng(7)
        e = rng.uniform(0.1, 5.0, size=(4, 9))
        for c in performance_profile(e):
            assert np.all(np.diff(c.rho) >= 0)
            assert c.rho[-1] == pytest.approx(1.0)

    def test_zero_error_tasks_defined(self):
        curves = performance_profile([[0.0, 1.0], [0.0, 2.0]])
        assert np.all(np.isfinite(curves[0].tau))
        assert profile_at(curves[0], 1.0) == 1.0

    def test_bad_input_rejected(self):
        with pytest.raises(ContractError):
            performance_profile([[-1.0, 2.0]])
        with pytest.raises(ContractError):
            performance_profile(np.zeros((0, 0)))


class TestRunRecords:
    def _record(self):
        return {
            "config": {"mode": "orca", "seed": 3},
            "seeds": [3],
            "epochs": [
                {"epoch": 0, "distance": 1.5, "metric": 0.75, "train_loss": None, "lr": 0.0},
                {"epoch": 1, "distance": 1.25, "metric": 0.5, "train_loss": 1.2, "lr": 1e-3},
            ],
            "final_metrics": {"zero_one_error": 0.5},
            "flags": ["sinkhorn_not_converged"],
            "timing": {"wall_s": 1.23},
        }

    def test_round_trip_byte_identical(self, tmp_path):
        rec = self._record()
        paths = write_report(rec, tmp_path)
        first = open(paths["report"], "rb").read()
        reread = read_report(tmp_path)
        write_report(reread, tmp_path)
        assert open(paths["report"], "rb").read() == first

    def test_canonical_record_drops_timing_only(self):
        rec = self._record()
        canon = canonical_record(rec)
        assert "timing" not in canon
        assert set(rec) - set(canon) == {"timing"}

    def test_curves_csv_columns(self, tmp_path):
        paths = write_report(self._record(), tmp_path)
        lines = open(paths["curves"]).read().splitlines()
        assert lines[0] == "epoch,distance,metric"
        assert lines[1].split(",") == ["0", "1.5", "0.75"]
        assert len(lines) == 3

    def test_missing_required_key_rejected(self, tmp_path):
        rec = self._record()
        del rec["epochs"]
        with pytest.raises(ContractError):
            write_report(rec, tmp_path)

    def test_schema_validates_record(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        write_report(self._record(), tmp_path)
        jsonschema.validate(read_report(tmp_path), report_schema())

    def test_schema_rejects_missing_epochs(self):
        jsonschema = pytest.importorskip("jsonschema")
        bad = {"config": {}, "seeds": [0]}
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, report_schema())
