"""Dense-array substrate: seeded randomness and small linear-algebra kernels.

Arrays at rest (datasets, parameters, files) are float32; computation
promotes to float64 so reductions and eigensolves stay stable.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ContractError, NumericError, ShapeError

DTYPE = np.float32


def _key_to_ints(key) -> list[int]:
    if isinstance(key, int):
        return [key & 0xFFFFFFFF]
    digest = hashlib.sha256(str(key).encode("utf-8")).digest()
    return [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]


def make_rng(seed: int, *stream) -> np.random.Generator:
    """PCG64 generator for `seed`, optionally split into a named substream.

    Substream keys (strings or ints) are hashed into the seed sequence, so
    per-component streams are independent and stable across runs/platforms.
    """
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    for k in stream:
        entropy.extend(_key_to_ints(k))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def ensure_finite(x: np.ndarray, what: str = "array") -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise NumericError(f"non-finite values in {what}")
    return x


def pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of `a` (n x d) and `b` (m x d)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"expected rank-2 inputs, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"inner dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    sq_a = np.sum(a * a, axis=1)[:, None]
    sq_b = np.sum(b * b, axis=1)[None, :]
    d = sq_a + sq_b - 2.0 * (a @ b.T)
    # roundoff can leave tiny negatives
    np.maximum(d, 0.0, out=d)
    return ensure_finite(d, "pairwise_sq_dists")


def sqrtm_psd(m: np.ndarray, sym_tol: float = 1e-6, eig_floor: float = -1e-8) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues in [eig_floor, 0) are clamped to 0; anything below eig_floor
    (relative to the spectral scale) is a contract violation.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got {m.shape}")
    scale = max(1.0, float(np.abs(m).max()))
    if np.abs(m - m.T).max() > sym_tol * scale:
        raise ContractError("sqrtm_psd: input is not symmetric")
    try:
        w, v = np.linalg.eigh((m + m.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"sqrtm_psd: eigendecomposition failed: {exc}") from exc
    if w.min() < eig_floor * scale:
        raise ContractError(f"sqrtm_psd: matrix is not PSD (min eigenvalue {w.min():g})")
    w = np.maximum(w, 0.0)
    s = (v * np.sqrt(w)) @ v.T
    return (s + s.T) / 2.0


def logsumexp_rows(m: np.ndarray, axis: int) -> np.ndarray:
    """Row/column log-sum-exp used by the log-domain Sinkhorn sweeps."""
    m = np.asarray(m, dtype=np.float64)
    # ufunc reductions directly: cheaper than the np.max / np.sum wrappers, same bits
    hi = np.maximum.reduce(m, axis=axis, keepdims=True)
    e = m - hi
    out = np.log(np.add.reduce(np.exp(e, out=e), axis=axis))
    out += hi.squeeze(axis)
    return out
