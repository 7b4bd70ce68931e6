"""Manual forward/backward primitives for the small transformer stack.

Every forward op returns (output, cache); the matching backward takes the
cache and returns input/parameter gradients. No backward writes into a cache,
so one cache can be replayed; models.py follows the same convention. Compute
dtype follows the input (float32 or float64); parameters are cast on the fly.
Element-wise steps work in place on the array their op just allocated, which
keeps the bits.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

from .errors import ShapeError

LN_EPS = 1e-5


# ---------------------------------------------------------------------------
# linear / layernorm / gelu

def linear_fw(x, w, b):
    w = w.astype(x.dtype, copy=False)
    out = x @ w
    out += b.astype(x.dtype, copy=False)
    return out, (x, w)


def linear_bw(g, cache):
    x, w = cache
    gx = g @ w.T
    x2 = x.reshape(-1, x.shape[-1])
    g2 = g.reshape(-1, g.shape[-1])
    gw = x2.T @ g2
    gb = g2.sum(axis=0)
    return gx, gw, gb


def layernorm_fw(x, scale, shift):
    scale = scale.astype(x.dtype, copy=False)
    shift = shift.astype(x.dtype, copy=False)
    xhat = x - x.mean(axis=-1, keepdims=True)
    var = np.mean(xhat * xhat, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat *= inv
    out = xhat * scale
    out += shift
    return out, (xhat, inv, scale)


def layernorm_bw(g, cache):
    xhat, inv, scale = cache
    d = xhat.shape[-1]
    gxhat = g * scale
    gscale = np.sum(g * xhat, axis=tuple(range(g.ndim - 1)))
    gshift = np.sum(g, axis=tuple(range(g.ndim - 1)))
    gx = d * gxhat
    gx -= np.sum(gxhat, axis=-1, keepdims=True)
    gx -= xhat * np.sum(gxhat * xhat, axis=-1, keepdims=True)
    gx *= inv / d
    return gx, gscale, gshift


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gelu_fw(x):
    cdf = erf(x * _INV_SQRT2)
    cdf += 1.0
    cdf *= 0.5
    return x * cdf, (x, cdf)


def gelu_bw(g, cache):
    x, cdf = cache
    pdf = _INV_SQRT2PI * np.exp(-0.5 * x * x)
    return g * (cdf + x * pdf)


def softmax_fw(x):
    p = x - x.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p, p


def softmax_bw(g, p):
    gx = g * p
    np.subtract(g, np.sum(gx, axis=-1, keepdims=True), out=gx)
    gx *= p
    return gx


# ---------------------------------------------------------------------------
# attention block (pre-norm callers pass the normalized input)

def attention_fw(x, params, prefix, heads):
    """Multi-head self-attention. x: (B, S, D)."""
    b, s, d = x.shape
    if d % heads != 0:
        raise ShapeError(f"embed dim {d} not divisible by {heads} heads")
    hd = d // heads

    q, cq = linear_fw(x, params[prefix + ".wq"], params[prefix + ".bq"])
    k, ck = linear_fw(x, params[prefix + ".wk"], params[prefix + ".bk"])
    v, cv = linear_fw(x, params[prefix + ".wv"], params[prefix + ".bv"])

    def split(t):
        return t.reshape(b, s, heads, hd).transpose(0, 2, 1, 3)  # (B,H,S,hd)

    qh, kh, vh = split(q), split(k), split(v)
    scores = qh @ kh.transpose(0, 1, 3, 2) / np.sqrt(hd)
    probs, cp = softmax_fw(scores)
    ctx = probs @ vh                                    # (B,H,S,hd)
    merged = ctx.transpose(0, 2, 1, 3).reshape(b, s, d)
    out, co = linear_fw(merged, params[prefix + ".wo"], params[prefix + ".bo"])
    cache = (cq, ck, cv, co, qh, kh, vh, cp, heads, hd)
    return out, cache


def attention_bw(g, cache, prefix):
    cq, ck, cv, co, qh, kh, vh, probs, heads, hd = cache
    b, h, s, _ = qh.shape
    d = h * hd

    g_merged, gwo, gbo = linear_bw(g, co)
    g_ctx = g_merged.reshape(b, s, heads, hd).transpose(0, 2, 1, 3)
    g_probs = g_ctx @ vh.transpose(0, 1, 3, 2)
    g_vh = probs.transpose(0, 1, 3, 2) @ g_ctx
    g_scores = softmax_bw(g_probs, probs)
    g_scores /= np.sqrt(hd)
    g_qh = g_scores @ kh
    g_kh = g_scores.transpose(0, 1, 3, 2) @ qh

    def merge(t):
        return t.transpose(0, 2, 1, 3).reshape(b, s, d)

    gq_x, gwq, gbq = linear_bw(merge(g_qh), cq)
    gk_x, gwk, gbk = linear_bw(merge(g_kh), ck)
    gv_x, gwv, gbv = linear_bw(merge(g_vh), cv)
    gx = gq_x + gk_x + gv_x
    grads = {
        prefix + ".wq": gwq, prefix + ".bq": gbq,
        prefix + ".wk": gwk, prefix + ".bk": gbk,
        prefix + ".wv": gwv, prefix + ".bv": gbv,
        prefix + ".wo": gwo, prefix + ".bo": gbo,
    }
    return gx, grads


# ---------------------------------------------------------------------------
# non-overlapping patch convolution (kernel size == stride == k); forward only,
# since the embedder is the first layer and needs no input gradient. The
# data-movement ops below take (B, C, *spatial) arrays and compute their
# reshape and transpose axes from the spatial rank nd.

def patch_fw(x, k):
    """(B, C, *spatial) -> (B, prod(spatial // k), C * k**nd) patches, each
    ordered (channel, offset along each spatial axis); a trailing remainder
    is dropped on every axis."""
    b, c, *spatial = x.shape
    nd = len(spatial)
    grid = [e // k for e in spatial]
    if min(grid) < 1:
        raise ShapeError(f"input {'x'.join(map(str, spatial))} smaller than kernel {k}")
    xt = x[(slice(None), slice(None), *(slice(g * k) for g in grid))]
    xt = xt.reshape(b, c, *(n for g in grid for n in (g, k)))
    # axes: 0 batch, 1 channel, 2 + 2i grid along axis i, 3 + 2i offset in patch
    order = (0, *range(2, 2 + 2 * nd, 2), 1, *range(3, 3 + 2 * nd, 2))
    return xt.transpose(order).reshape(b, math.prod(grid), c * k ** nd)


# ---------------------------------------------------------------------------
# pixel shuffle (sub-pixel rearrangement)

def pixel_shuffle(x, r):
    """(B, r^nd * K, *spatial) -> (B, K, *(r * spatial)); nd inferred."""
    if r == 1:
        return x
    if x.ndim not in (3, 4):
        raise ShapeError(f"pixel_shuffle expects rank 3 or 4, got {x.ndim}")
    b, c, *spatial = x.shape
    nd = len(spatial)
    if c % r ** nd != 0:
        raise ShapeError(f"channels {c} not divisible by {r ** nd}")
    k = c // r ** nd
    # axes: 0 batch, 1 channel, 2 + i offset along axis i, 2 + nd + i position
    order = (0, 1, *(a for i in range(nd) for a in (2 + nd + i, 2 + i)))
    y = x.reshape(b, k, *[r] * nd, *spatial).transpose(order)
    return y.reshape(b, k, *(e * r for e in spatial))


def pixel_unshuffle(x, r):
    if r == 1:
        return x
    if x.ndim not in (3, 4):
        raise ShapeError(f"pixel_unshuffle expects rank 3 or 4, got {x.ndim}")
    b, k, *spatial = x.shape
    nd = len(spatial)
    if any(e % r for e in spatial):
        raise ShapeError(f"spatial {'x'.join(map(str, spatial))} not divisible by {r}")
    coarse = [e // r for e in spatial]
    # axes: 0 batch, 1 channel, 2 + 2i position along axis i, 3 + 2i offset
    order = (0, 1, *range(3, 3 + 2 * nd, 2), *range(2, 2 + 2 * nd, 2))
    y = x.reshape(b, k, *(n for e in coarse for n in (e, r))).transpose(order)
    return y.reshape(b, k * r ** nd, *coarse)


# ---------------------------------------------------------------------------
# positional-table interpolation (variable-length k=1 embedders)

def interp_positional(table, length):
    """Linearly resample an (S, D) table to `length` rows; identity at S."""
    s = table.shape[0]
    if length == s:
        return table, None
    if length == 1:
        w = np.zeros((1, 2))
        idx = np.zeros((1, 2), dtype=np.int64)
        w[0, 0] = 1.0
        return table[:1].copy(), (idx, w, s)
    u = np.arange(length) * (s - 1) / (length - 1)
    lo = np.floor(u).astype(np.int64)
    lo = np.minimum(lo, s - 2)
    frac = u - lo
    out = (1.0 - frac)[:, None] * table[lo] + frac[:, None] * table[lo + 1]
    idx = np.stack([lo, lo + 1], axis=1)
    w = np.stack([1.0 - frac, frac], axis=1)
    return out, (idx, w, s)


def interp_positional_bw(g2, cache):
    """Scatter (S', D) row gradients back to the (S, D) table."""
    idx, w, s = cache
    d = g2.shape[-1]
    gt = np.zeros((s, d), dtype=g2.dtype)
    np.add.at(gt, idx[:, 0], w[:, 0][:, None] * g2)
    np.add.at(gt, idx[:, 1], w[:, 1][:, None] * g2)
    return gt
