"""The one on-disk tensor format (a manifest plus raw little-endian blobs),
shared by bundles, source caches and checkpoints; CSV ingestion for tabular
data; and the seeded synthetic task generators."""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, FormatError
from .tensor import make_rng


@dataclass
class Bundle:
    name: str
    features: np.ndarray          # (n, c, *spatial) float32
    labels: np.ndarray            # (n,) int32 or (n, c_out, *spatial) float32
    label_kind: str               # classification | dense
    classes: int

    def __post_init__(self):
        if self.label_kind not in ("classification", "dense"):
            raise ContractError(f"unknown label kind {self.label_kind!r}")
        n = self.features.shape[0]
        if self.labels.shape[0] != n:
            raise ContractError("feature/label sample counts differ")
        if self.label_kind == "classification" and self.labels.ndim != 1:
            raise ContractError("classification labels must be a flat id vector")

    @property
    def n(self):
        return self.features.shape[0]

    def subset(self, idx) -> "Bundle":
        return Bundle(self.name, self.features[idx], self.labels[idx],
                      self.label_kind, self.classes)


# ---------------------------------------------------------------------------
# artifact directories: manifest.json {"byte_order", "tensors", "meta"} over raw
# little-endian blobs, tensors that share a blob file packed in record order

MANIFEST = "manifest.json"
DTYPES = {"f32": "<f4", "i32": "<i4"}
RECORD_KEYS = ("name", "file", "offset", "bytes", "dtype", "shape")
# per kind: the tensor names, extra record keys and meta keys it must have
KINDS = {"bundle": (("features", "labels"), (), ("name", "label_kind", "classes")),
         "checkpoint": ((), ("trainable", "provenance"), ())}


def write_artifact(path, tensors, meta: dict) -> str:
    """Write (record, array) pairs and `meta`; each record names its tensor, blob
    file and dtype. The manifest is removed first and renamed in last, so an
    interrupted process leaves none; nothing is fsynced."""
    os.makedirs(path, exist_ok=True)
    manifest_path = os.path.join(path, MANIFEST)
    if os.path.exists(manifest_path):
        os.remove(manifest_path)
    records, blobs = [], {}
    for rec, value in tensors:
        raw = np.asarray(value, dtype=DTYPES[rec["dtype"]]).tobytes(order="C")
        chunks = blobs.setdefault(rec["file"], [])
        records.append({**rec, "offset": sum(map(len, chunks)), "bytes": len(raw),
                        "shape": list(np.shape(value))})
        chunks.append(raw)
    for name, chunks in blobs.items():
        with open(os.path.join(path, name), "wb") as f:
            f.write(b"".join(chunks))
    with open(manifest_path + ".tmp", "w") as f:
        json.dump({"byte_order": "little", "tensors": records, "meta": meta}, f,
                  indent=1, sort_keys=True)
        f.write("\n")
    os.replace(manifest_path + ".tmp", manifest_path)
    return path


def has_artifact(path) -> bool:
    """True when `path` holds a completely written artifact."""
    return os.path.exists(os.path.join(path, MANIFEST))


def _require(obj, keys, where):
    for key in keys:
        if not isinstance(obj, dict) or key not in obj:
            raise FormatError(f"{where} has no {key!r}")


def read_artifact(path, kind: str):
    """(record, array) pairs and meta of the `kind` artifact at `path`, its
    directory or its manifest file."""
    if os.path.isfile(path):
        path = os.path.dirname(path)
    where = f"{kind} manifest {path}"
    names, record_keys, meta_keys = KINDS[kind]
    try:
        with open(os.path.join(path, MANIFEST)) as f:
            manifest = json.load(f)
        _require(manifest, ("byte_order", "tensors", "meta"), where)
        if manifest["byte_order"] != "little":
            raise FormatError(f"{where}: unsupported byte order")
        _require(manifest["meta"], meta_keys, f"{where}: meta")
        blobs, out = {}, []
        for i, rec in enumerate(manifest["tensors"]):
            _require(rec, RECORD_KEYS + record_keys, f"{where}: tensor {i}")
            if rec["dtype"] not in DTYPES:
                raise FormatError(f"{where}: tensor {i}: unknown dtype {rec['dtype']!r}")
            if rec["file"] not in blobs:
                with open(os.path.join(path, rec["file"]), "rb") as f:
                    blobs[rec["file"]] = f.read()
            dtype = np.dtype(DTYPES[rec["dtype"]])
            raw = blobs[rec["file"]][rec["offset"] : rec["offset"] + rec["bytes"]]
            expected = int(np.prod(rec["shape"])) * dtype.itemsize
            if len(raw) != expected:
                raise FormatError(f"{where}: tensor {i}: expected {expected} bytes, "
                                  f"got {len(raw)}")
            out.append((rec, np.frombuffer(raw, dtype).reshape(rec["shape"]).copy()))
        for name, blob in blobs.items():
            end = max(rec["offset"] + rec["bytes"] for rec, _ in out if rec["file"] == name)
            if len(blob) != end:
                raise FormatError(f"{where}: {name}: expected {end} bytes, got {len(blob)}")
        _require({rec["name"]: rec for rec, _ in out}, names, f"{where}: tensors")
    except (OSError, TypeError, ValueError) as exc:
        raise FormatError(f"cannot read {kind} at {path}: {exc}") from exc
    return out, manifest["meta"]


def save_bundle(bundle: Bundle, path) -> str:
    label_dtype = "i32" if bundle.label_kind == "classification" else "f32"
    return write_artifact(path, [
        ({"name": "features", "file": "features.bin", "dtype": "f32"}, bundle.features),
        ({"name": "labels", "file": "labels.bin", "dtype": label_dtype}, bundle.labels),
    ], {"name": bundle.name, "label_kind": bundle.label_kind, "classes": bundle.classes})


def load_bundle(path) -> Bundle:
    tensors, meta = read_artifact(path, "bundle")
    arrays = {rec["name"]: value for rec, value in tensors}
    return Bundle(meta["name"], arrays["features"], arrays["labels"],
                  meta["label_kind"], int(meta["classes"]))


def load_csv(path, label_column: str | None = None) -> Bundle:
    """Tabular ingestion: numeric columns standardized (population mean/std),
    categorical columns one-hot; the label column defaults to 'label' or the
    last column."""
    try:
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
    except OSError as exc:
        raise FormatError(f"CSV {path}: {exc.strerror}") from None
    if len(rows) < 2:
        raise FormatError("CSV needs a header row and at least one data row")
    header = rows[0]
    data = rows[1:]
    if label_column is None:
        label_column = "label" if "label" in header else header[-1]
    if label_column not in header:
        raise FormatError(f"label column {label_column!r} not in header")
    li = header.index(label_column)

    cols = []
    for j, name in enumerate(header):
        if j == li:
            continue
        raw = [r[j] for r in data]
        try:
            vals = np.array([float(v) for v in raw])
            std = vals.std()  # population divisor
            cols.append((vals - vals.mean()) / (std if std > 0 else 1.0))
        except ValueError:
            cats = sorted(set(raw))
            for c in cats:
                cols.append(np.array([1.0 if v == c else 0.0 for v in raw]))
    feats = np.stack(cols, axis=1).astype(np.float32)[:, None, :]  # (n, 1, d)

    raw_labels = [r[li] for r in data]
    uniq = sorted(set(raw_labels))
    label_ids = np.array([uniq.index(v) for v in raw_labels], dtype=np.int32)
    return Bundle(os.path.basename(path), feats, label_ids, "classification", len(uniq))


# ---------------------------------------------------------------------------
# synthetic tasks

BLOB_CENTERS = np.array([[0.25, 0.25], [0.25, 0.75], [0.75, 0.25], [0.75, 0.75]])
SPECTRA_CENTERS = np.array([0.15, 0.38, 0.62, 0.85])


def synth_blobs2d(n: int = 256, size: int = 16, classes: int = 4, noise: float = 0.1,
                  seed: int = 0) -> Bundle:
    """Gaussian blobs rendered into 1 x size x size images, one blob location
    per class."""
    if classes < 1 or classes > len(BLOB_CENTERS):
        raise ContractError(f"blobs2d supports 1..{len(BLOB_CENTERS)} classes")
    if size < 4 or n < classes:
        raise ContractError("blobs2d: size >= 4 and n >= classes required")
    rng = make_rng(seed, "blobs2d")
    grid = (np.arange(size) + 0.5) / size
    yy, xx = np.meshgrid(grid, grid, indexing="ij")
    labels = rng.integers(classes, size=n).astype(np.int32)
    feats = np.zeros((n, 1, size, size), dtype=np.float32)
    for i in range(n):
        cy, cx = BLOB_CENTERS[labels[i]] + rng.normal(0, 0.03, size=2)
        width = 0.12 * (1 + 0.2 * rng.normal())
        img = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * width ** 2))
        feats[i, 0] = img + noise * rng.normal(size=(size, size))
    return Bundle("blobs2d", feats, labels, "classification", classes)


def synth_spectra1d(n: int = 256, length: int = 128, classes: int = 4,
                    noise: float = 0.05, seed: int = 0) -> Bundle:
    """1D spectra whose bump positions render the same latent classes as the
    2D blobs, through a different (nonlinear) observation map."""
    if classes < 1 or classes > len(SPECTRA_CENTERS):
        raise ContractError(f"spectra1d supports 1..{len(SPECTRA_CENTERS)} classes")
    if length < 8 or n < classes:
        raise ContractError("spectra1d: length >= 8 and n >= classes required")
    rng = make_rng(seed, "spectra1d")
    grid = (np.arange(length) + 0.5) / length
    labels = rng.integers(classes, size=n).astype(np.int32)
    feats = np.zeros((n, 1, length), dtype=np.float32)
    for i in range(n):
        c = SPECTRA_CENTERS[labels[i]] + rng.normal(0, 0.015)
        w = 0.04 * (1 + 0.2 * rng.normal())
        amp = 1.0 + 0.2 * rng.normal()
        sig = amp * np.exp(-((grid - c) ** 2) / (2 * w ** 2))
        # second harmonic bump makes the rendering nonlinear in the latent
        sig += 0.4 * amp * np.exp(-((grid - (c / 2 + 0.45)) ** 2) / (2 * (w / 2) ** 2))
        feats[i, 0] = sig + noise * rng.normal(size=length)
    return Bundle("spectra1d", feats, labels, "classification", classes)


def synth_advect1d(n: int = 128, length: int = 256, beta: float = 0.1,
                   seed: int = 0) -> Bundle:
    """Periodic advection of a Gaussian pulse: input is the pulse at t0, the
    dense label is the same pulse shifted by beta (grid fractions).

    Pulse parameters are drawn before gridding, so regenerating at a finer
    resolution samples the same continuous profiles.
    """
    if length < 8 or n < 1:
        raise ContractError("advect1d: length >= 8 and n >= 1 required")
    rng = make_rng(seed, "advect1d")
    centers = rng.uniform(0, 1, size=n)
    widths = rng.uniform(0.03, 0.08, size=n)
    amps = rng.uniform(0.5, 1.5, size=n)
    grid = np.arange(length) / length

    def pulse(c, w, a, shift):
        d = np.abs((grid - c - shift + 0.5) % 1.0 - 0.5)  # periodic distance
        return a * np.exp(-(d ** 2) / (2 * w ** 2))

    feats = np.zeros((n, 1, length), dtype=np.float32)
    labels = np.zeros((n, 1, length), dtype=np.float32)
    for i in range(n):
        feats[i, 0] = pulse(centers[i], widths[i], amps[i], 0.0)
        labels[i, 0] = pulse(centers[i], widths[i], amps[i], beta)
    return Bundle("advect1d", feats, labels, "dense", 1)


SYNTH_KINDS = {
    "blobs2d": synth_blobs2d,
    "spectra1d": synth_spectra1d,
    "advect1d": synth_advect1d,
}


def synth_task(kind: str, seed: int = 0, **params) -> Bundle:
    if kind not in SYNTH_KINDS:
        raise ContractError(f"unknown synthetic task {kind!r}")
    return SYNTH_KINDS[kind](seed=seed, **params)
