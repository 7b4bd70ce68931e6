"""Bundle serialization, CSV ingestion, and synthetic task generators."""

import json
import os
import re

import numpy as np
import pytest

from orcakit.bundles import (
    Bundle,
    load_bundle,
    load_csv,
    save_bundle,
    synth_advect1d,
    synth_blobs2d,
    synth_spectra1d,
    synth_task,
)
from orcakit.errors import ContractError, FormatError
from orcakit.models import ParameterSet


class TestBundleIO:
    def _bundle(self):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(6, 1, 4, 4)).astype(np.float32)
        labels = np.array([0, 1, 2, 0, 1, 2], dtype=np.int32)
        return Bundle("toy", feats, labels, "classification", 3)

    def test_round_trip_bit_exact(self, tmp_path):
        b = self._bundle()
        save_bundle(b, tmp_path / "b")
        out = load_bundle(tmp_path / "b")
        assert out.features.dtype == np.float32
        assert out.features.tobytes() == b.features.tobytes()
        assert np.array_equal(out.labels, b.labels)
        assert (out.label_kind, out.classes, out.name) == ("classification", 3, "toy")

    def test_dense_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(3, 1, 8)).astype(np.float32)
        labels = rng.normal(size=(3, 1, 8)).astype(np.float32)
        b = Bundle("field", feats, labels, "dense", 1)
        out = load_bundle(save_bundle(b, tmp_path / "d"))
        assert out.labels.dtype == np.float32
        assert np.array_equal(out.labels, labels)

    def test_truncated_blob_names_byte_counts(self, tmp_path):
        b = self._bundle()
        save_bundle(b, tmp_path / "b")
        blob = tmp_path / "b" / "features.bin"
        raw = blob.read_bytes()
        blob.write_bytes(raw[:-8])
        with pytest.raises(FormatError, match=r"expected \d+ bytes, got \d+"):
            load_bundle(tmp_path / "b")

    def test_bytes_past_the_last_tensor_rejected(self, tmp_path):
        save_bundle(self._bundle(), tmp_path / "b")
        blob = tmp_path / "b" / "features.bin"
        n = len(blob.read_bytes())
        blob.write_bytes(blob.read_bytes() + b"\0" * 4)
        with pytest.raises(FormatError, match=f"features.bin: expected {n} bytes, got {n + 4}"):
            load_bundle(tmp_path / "b")

    def test_bad_manifest_rejected(self, tmp_path):
        d = tmp_path / "b"
        d.mkdir()
        (d / "manifest.json").write_text("{not json")
        with pytest.raises(FormatError):
            load_bundle(d)

    def test_wrong_byte_order_rejected(self, tmp_path):
        save_bundle(self._bundle(), tmp_path / "b")
        mpath = tmp_path / "b" / "manifest.json"
        m = json.loads(mpath.read_text())
        m["byte_order"] = "big"
        mpath.write_text(json.dumps(m))
        with pytest.raises(FormatError):
            load_bundle(tmp_path / "b")

    def test_manifest_path_accepted(self, tmp_path):
        save_bundle(self._bundle(), tmp_path / "b")
        out = load_bundle(os.path.join(tmp_path, "b", "manifest.json"))
        assert out.n == 6

    def test_old_layout_rejected(self, tmp_path):
        d = tmp_path / "b"
        d.mkdir()
        (d / "manifest.json").write_text(json.dumps({
            "name": "toy", "byte_order": "little", "label_kind": "classification",
            "classes": 3,
            "features": {"file": "features.bin", "dtype": "f32", "shape": [1, 1]},
            "labels": {"file": "labels.bin", "dtype": "i32", "shape": [1]}}))
        with pytest.raises(FormatError, match=rf"{re.escape(str(d))}.* has no 'tensors'"):
            load_bundle(d)

    @pytest.mark.parametrize("drop,missing", [
        (lambda m: m.pop("tensors"), "'tensors'"),
        (lambda m: m.pop("meta"), "'meta'"),
        (lambda m: m["meta"].pop("label_kind"), "meta has no 'label_kind'"),
        (lambda m: m["tensors"][1].pop("offset"), "tensor 1 has no 'offset'"),
        (lambda m: m["tensors"].pop(0), "tensors has no 'features'"),
    ], ids=["tensors", "meta", "meta-key", "record-key", "tensor"])
    def test_missing_key_names_path_and_key(self, tmp_path, drop, missing):
        save_bundle(self._bundle(), tmp_path / "b")
        mpath = tmp_path / "b" / "manifest.json"
        m = json.loads(mpath.read_text())
        drop(m)
        mpath.write_text(json.dumps(m))
        with pytest.raises(FormatError, match=rf"{re.escape(str(tmp_path / 'b'))}.*{missing}"):
            load_bundle(tmp_path / "b")

    def test_checkpoint_is_not_a_bundle(self, tmp_path):
        ps = ParameterSet()
        ps.add("w", np.ones((2, 3)))
        ps.save(tmp_path / "ck")
        where = re.escape(str(tmp_path / "ck"))
        with pytest.raises(FormatError, match=rf"{where}.*meta has no 'name'"):
            load_bundle(tmp_path / "ck")

    def test_bundle_is_not_a_checkpoint(self, tmp_path):
        save_bundle(self._bundle(), tmp_path / "b")
        where = re.escape(str(tmp_path / "b"))
        with pytest.raises(FormatError, match=rf"{where}.*has no 'trainable'"):
            ParameterSet.load(tmp_path / "b")

    def test_subset(self):
        b = self._bundle()
        s = b.subset(np.array([1, 3]))
        assert s.n == 2
        assert np.array_equal(s.labels, [1, 0])

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ContractError):
            Bundle("x", np.zeros((3, 1, 2), np.float32),
                   np.zeros(2, np.int32), "classification", 2)


def _save_bundle(path):
    save_bundle(synth_blobs2d(n=8, size=8, seed=0), path)


def _save_checkpoint(path):
    ps = ParameterSet()
    ps.add("w", np.ones((2, 3)))
    ps.add("b", np.zeros(3))
    ps.save(path, meta={"k": 1})


@pytest.mark.parametrize("save,blob", [(_save_bundle, "labels.bin"),
                                       (_save_checkpoint, "params.bin")],
                         ids=["bundle", "checkpoint"])
@pytest.mark.parametrize("at", ["blob", "manifest"])
@pytest.mark.parametrize("overwrite", [False, True], ids=["fresh", "overwrite"])
def test_interrupted_save_leaves_no_manifest(tmp_path, monkeypatch, save, blob, at,
                                             overwrite):
    path = tmp_path / "a"
    if overwrite:
        save(path)
    if at == "blob":
        # a directory where the blob goes makes its write fail
        path.mkdir(exist_ok=True)
        if (path / blob).exists():
            (path / blob).unlink()
        (path / blob).mkdir()
    else:
        def partial_dump(obj, f, **kwargs):
            f.write("{")
            raise OSError("disk full")
        monkeypatch.setattr(json, "dump", partial_dump)
    with pytest.raises(OSError):
        save(path)
    assert not (path / "manifest.json").exists()


class TestCSV:
    def test_standardization_oracle(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("x,label\n0,a\n2,b\n")
        b = load_csv(p)
        # mean 1, population std 1 -> values (-1, 1)
        assert b.features[:, 0, 0] == pytest.approx([-1.0, 1.0])
        assert np.array_equal(b.labels, [0, 1])
        assert b.classes == 2

    def test_categorical_one_hot(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("color,label\nred,0\nblue,1\nred,0\n")
        b = load_csv(p)
        # sorted categories: blue, red
        assert b.features.shape == (3, 1, 2)
        assert b.features[:, 0, 0] == pytest.approx([0.0, 1.0, 0.0])
        assert b.features[:, 0, 1] == pytest.approx([1.0, 0.0, 1.0])

    def test_constant_column_safe(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("x,y,label\n5,1,a\n5,2,b\n")
        b = load_csv(p)
        assert np.all(np.isfinite(b.features))
        assert b.features[:, 0, 0] == pytest.approx([0.0, 0.0])

    def test_explicit_label_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("target,x\na,1\nb,2\n")
        b = load_csv(p, label_column="target")
        assert b.classes == 2
        with pytest.raises(FormatError):
            load_csv(p, label_column="missing")

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("x,label\n")
        with pytest.raises(FormatError):
            load_csv(p)


class TestSynthTasks:
    def test_shapes_and_determinism(self):
        for kind, shape in [("blobs2d", (8, 1, 16, 16)), ("spectra1d", (8, 1, 128))]:
            a = synth_task(kind, seed=3, n=8)
            b = synth_task(kind, seed=3, n=8)
            assert a.features.shape == shape
            assert np.array_equal(a.features, b.features)
            assert not np.array_equal(a.features, synth_task(kind, seed=4, n=8).features)

    def test_blobs_classes_separable_by_quadrant_mass(self):
        b = synth_blobs2d(n=64, size=16, noise=0.0, seed=0)
        h = 8
        quads = np.stack([
            b.features[:, 0, :h, :h].sum(axis=(1, 2)),
            b.features[:, 0, :h, h:].sum(axis=(1, 2)),
            b.features[:, 0, h:, :h].sum(axis=(1, 2)),
            b.features[:, 0, h:, h:].sum(axis=(1, 2)),
        ], axis=1)
        # blob centers land in distinct quadrants (label i -> quadrant i)
        assert np.array_equal(np.argmax(quads, axis=1), b.labels)

    def test_spectra_peak_tracks_class(self):
        b = synth_spectra1d(n=64, length=128, noise=0.0, seed=1)
        grid = (np.arange(128) + 0.5) / 128
        peaks = grid[np.argmax(b.features[:, 0], axis=1)]
        centers = np.array([0.15, 0.38, 0.62, 0.85])
        assert np.all(np.abs(peaks - centers[b.labels]) < 0.1)

    def test_advect_labels_are_shifted_inputs(self):
        # beta = 16/256 grid fractions -> label equals input rolled 16 cells
        b = synth_advect1d(n=8, length=256, beta=16.0 / 256.0, seed=2)
        for i in range(8):
            rolled = np.roll(b.features[i, 0], 16)
            assert np.max(np.abs(b.labels[i, 0] - rolled)) < 1e-6

    def test_advect_resolution_consistency(self):
        lo = synth_advect1d(n=4, length=256, seed=5)
        hi = synth_advect1d(n=4, length=512, seed=5)
        # even-indexed samples of the 512 grid hit the same continuous points
        assert np.max(np.abs(hi.features[:, :, ::2] - lo.features)) < 1e-6
        assert np.max(np.abs(hi.labels[:, :, ::2] - lo.labels)) < 1e-6

    def test_bad_params_rejected(self):
        with pytest.raises(ContractError):
            synth_task("unknown")
        with pytest.raises(ContractError):
            synth_blobs2d(classes=9)
        with pytest.raises(ContractError):
            synth_advect1d(length=4)
