"""Architecture kit: convolutional embedder with kernel-selection rules, a
small pre-norm transformer body, classification / dense (pixelshuffle) heads,
trainable-parameter masking, and checkpoint I/O.

Each forward returns (output, cache) and the matching backward takes that
cache, as in nn. Parameters live in a ParameterSet as float32; forward/backward
compute in the dtype of the input batch, so tests can run a float64 shadow by
passing float64 inputs (and, for parameter-space checks, plain dicts of
float64 arrays).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import nn
from .bundles import read_artifact, write_artifact
from .errors import ContractError, ShapeError
from .tensor import DTYPE, make_rng

PROVENANCE = ("pretrained", "randomly-initialized", "warm-init")


@dataclass
class Param:
    value: np.ndarray
    trainable: bool = True
    provenance: str = "randomly-initialized"


class ParameterSet:
    """Ordered name -> float32 tensor map with per-tensor trainable flags."""

    def __init__(self):
        self._entries: dict[str, Param] = {}

    def add(self, name, value, trainable=True, provenance="randomly-initialized"):
        if name in self._entries:
            raise ContractError(f"duplicate parameter name {name!r}")
        if provenance not in PROVENANCE:
            raise ContractError(f"unknown provenance {provenance!r}")
        self._entries[name] = Param(np.asarray(value, dtype=DTYPE), trainable, provenance)

    def __getitem__(self, name) -> np.ndarray:
        return self._entries[name].value

    def __contains__(self, name):
        return name in self._entries

    def set(self, name, value):
        self._entries[name].value = np.asarray(value, dtype=DTYPE)

    def names(self):
        return list(self._entries)

    def entry(self, name) -> Param:
        return self._entries[name]

    def set_trainable(self, name, flag):
        self._entries[name].trainable = bool(flag)

    def set_provenance(self, name, provenance):
        if provenance not in PROVENANCE:
            raise ContractError(f"unknown provenance {provenance!r}")
        self._entries[name].provenance = provenance

    def copy(self) -> "ParameterSet":
        out = ParameterSet()
        for n, p in self._entries.items():
            out.add(n, p.value.copy(), p.trainable, p.provenance)
        return out

    def save(self, path, meta: dict | None = None):
        """Checkpoint: one artifact directory (see bundles), all tensors in params.bin."""
        tensors = [({"name": n, "file": "params.bin", "dtype": "f32", "trainable": p.trainable,
                     "provenance": p.provenance}, p.value) for n, p in self._entries.items()]
        write_artifact(path, tensors, meta or {})

    @classmethod
    def load(cls, path) -> tuple["ParameterSet", dict]:
        tensors, meta = read_artifact(path, "checkpoint")
        out = cls()
        for rec, value in tensors:
            out.add(rec["name"], value, rec["trainable"], rec["provenance"])
        return out, meta


# ---------------------------------------------------------------------------
# specs

@dataclass
class EmbedderSpec:
    input_rank: int            # spatial rank: 1 or 2
    c_in: int
    k: int                     # kernel size == stride
    embed_dim: int
    seq_len: int               # S (positional table length / pad target)
    resize_to: tuple | None = None  # 2D: body pretraining resolution
    warn_small_input: bool = False

    def to_dict(self):
        return asdict(self)


@dataclass
class BodySpec:
    layers: int = 2
    heads: int = 4
    embed_dim: int = 32
    seq_len: int = 64

    def __post_init__(self):
        for key in ("layers", "heads", "embed_dim", "seq_len"):
            if getattr(self, key) < 1:
                raise ContractError(f"{key} must be >= 1")
        if self.embed_dim % self.heads != 0:
            raise ContractError(
                f"embed_dim {self.embed_dim} not divisible by heads {self.heads}"
            )

    def to_dict(self):
        return asdict(self)


@dataclass
class HeadSpec:
    mode: str                   # classification | dense
    classes: int
    k: int = 1                  # upsampling factor for dense heads
    out_extents: tuple = ()     # spatial extents the dense head reconstructs

    def __post_init__(self):
        if self.mode not in ("classification", "dense"):
            raise ContractError(f"unknown head mode {self.mode!r}")

    def to_dict(self):
        d = asdict(self)
        d["out_extents"] = list(self.out_extents)
        return d


# ---------------------------------------------------------------------------
# initialization

def _uniform_fan_in(rng, fan_in, shape):
    bound = 1.0 / math.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


def build_embedder(
    input_shape: tuple,
    embed_dim: int,
    seq_len: int,
    target_seq_len: int | None = None,
    body_patch: int | None = None,
    body_resolution: tuple | None = None,
    seed: int = 0,
) -> tuple[EmbedderSpec, ParameterSet]:
    """Stage-1 embedder construction.

    1D inputs: k is the largest stride whose conv output length stays at or
    above target_seq_len (defaulting to the smallest k fitting within S).
    2D inputs: spatial extents are resized to the body's pretraining
    resolution and k is pinned to the body's patch size.
    """
    rank = len(input_shape) - 1
    if rank not in (1, 2):
        raise ContractError(f"input rank must be 1 or 2, got shape {input_shape}")
    c_in = input_shape[0]
    warn = False
    resize_to = None
    if rank == 1:
        length = input_shape[1]
        if target_seq_len is not None:
            if target_seq_len > length:
                k = 1
                warn = True
            else:
                k = length // target_seq_len  # largest k with floor(L/k) >= target
        else:
            k = 1
            while length // k > seq_len:
                k += 1
    else:
        if body_patch is None:
            raise ContractError("2D embedders require the body patch size")
        k = body_patch
        resize_to = tuple(body_resolution) if body_resolution else tuple(input_shape[1:])
        n_patches = (resize_to[0] // k) * (resize_to[1] // k)
        if n_patches > seq_len:
            raise ContractError(
                f"{n_patches} patches exceed the body sequence length {seq_len}"
            )

    spec = EmbedderSpec(rank, c_in, k, embed_dim, seq_len, resize_to, warn)
    return spec, init_embedder_params(spec, seed)


def init_embedder_params(spec: EmbedderSpec, seed: int = 0) -> ParameterSet:
    patch_in = spec.c_in * spec.k ** spec.input_rank
    d = spec.embed_dim
    params = ParameterSet()
    rng = make_rng(seed, "embedder.conv")
    params.add("embedder.conv.weight", _uniform_fan_in(rng, patch_in, (patch_in, d)))
    params.add("embedder.conv.bias", np.zeros(d))
    params.add(
        "embedder.pos",
        0.01 * make_rng(seed, "embedder.pos").normal(size=(spec.seq_len, d)),
    )
    params.add("embedder.ln.scale", np.ones(d))
    params.add("embedder.ln.shift", np.zeros(d))
    return params


def init_body(spec: BodySpec, seed: int = 0) -> ParameterSet:
    d = spec.embed_dim
    hidden = 4 * d
    params = ParameterSet()
    for i in range(spec.layers):
        p = f"body.block{i}"
        params.add(f"{p}.ln1.scale", np.ones(d))
        params.add(f"{p}.ln1.shift", np.zeros(d))
        for nm in ("wq", "wk", "wv", "wo"):
            rng = make_rng(seed, f"{p}.attn.{nm}")
            params.add(f"{p}.attn.{nm}", _uniform_fan_in(rng, d, (d, d)))
        for nm in ("bq", "bk", "bv", "bo"):
            params.add(f"{p}.attn.{nm}", np.zeros(d))
        params.add(f"{p}.ln2.scale", np.ones(d))
        params.add(f"{p}.ln2.shift", np.zeros(d))
        rng = make_rng(seed, f"{p}.mlp.w1")
        params.add(f"{p}.mlp.w1", _uniform_fan_in(rng, d, (d, hidden)))
        params.add(f"{p}.mlp.b1", np.zeros(hidden))
        rng = make_rng(seed, f"{p}.mlp.w2")
        params.add(f"{p}.mlp.w2", _uniform_fan_in(rng, hidden, (hidden, d)))
        params.add(f"{p}.mlp.b2", np.zeros(d))
    return params


def init_head(spec: HeadSpec, embed_dim: int, seed: int = 0) -> ParameterSet:
    ndim = max(len(spec.out_extents), 1)
    out = spec.classes if spec.mode == "classification" else spec.classes * spec.k ** ndim
    params = ParameterSet()
    rng = make_rng(seed, "head.linear")
    params.add("head.linear.weight", _uniform_fan_in(rng, embed_dim, (embed_dim, out)))
    params.add("head.linear.bias", np.zeros(out))
    return params


def merge_params(*sets: ParameterSet) -> ParameterSet:
    out = ParameterSet()
    for ps in sets:
        for n in ps.names():
            e = ps.entry(n)
            out.add(n, e.value.copy(), e.trainable, e.provenance)
    return out


# ---------------------------------------------------------------------------
# forward / backward

def _nearest_resize_2d(x, hw):
    b, c, h, w = x.shape
    th, tw = hw
    if (h, w) == (th, tw):
        return x
    ri = (np.arange(th) * h // th).clip(0, h - 1)
    ci = (np.arange(tw) * w // tw).clip(0, w - 1)
    return x[:, :, ri][:, :, :, ci]


def embedder_forward(spec: EmbedderSpec, params, x):
    """raw batch -> ((B, S', D) sequence, cache).

    Fixed-length mode (k > 1 or 2D) zero-pads the flattened patches to S;
    k=1 1D embedders accept any length and resample the positional table.
    """
    x = np.asarray(x)
    if x.ndim != spec.input_rank + 2:
        raise ShapeError(f"expected rank-{spec.input_rank + 2} batch, got {x.ndim}")
    if x.shape[1] != spec.c_in:
        raise ShapeError(f"expected {spec.c_in} channels, got {x.shape[1]}")
    if min(x.shape[2:]) < 1:
        raise ContractError("empty spatial extent")
    variable = spec.input_rank == 1 and spec.k == 1

    if spec.input_rank == 2:
        x = _nearest_resize_2d(x, spec.resize_to or x.shape[2:])
    patches = nn.patch_fw(x, spec.k)
    b, s_raw, _ = patches.shape

    proj, lin_cache = nn.linear_fw(patches, params["embedder.conv.weight"],
                                   params["embedder.conv.bias"])

    seq = proj
    if not variable:
        if s_raw > spec.seq_len:
            raise ShapeError(
                f"{s_raw} patches exceed sequence length {spec.seq_len}"
            )
        if s_raw < spec.seq_len:
            seq = np.zeros((b, spec.seq_len, spec.embed_dim), dtype=proj.dtype)
            seq[:, :s_raw] = proj

    normed, ln_cache = nn.layernorm_fw(seq, params["embedder.ln.scale"],
                                       params["embedder.ln.shift"])
    table = params["embedder.pos"].astype(normed.dtype, copy=False)
    pos, pos_cache = nn.interp_positional(table, seq.shape[1])
    out = normed + pos[None, :, :]
    return out, (lin_cache, ln_cache, pos_cache, s_raw)


def embedder_backward(spec: EmbedderSpec, params, cache, g):
    lin_cache, ln_cache, pos_cache, s_raw = cache
    grads = {}
    g_pos = g.sum(axis=0)
    if pos_cache is None:
        grads["embedder.pos"] = g_pos
    else:
        grads["embedder.pos"] = nn.interp_positional_bw(g_pos, pos_cache)
    g_seq, gscale, gshift = nn.layernorm_bw(g, ln_cache)
    grads["embedder.ln.scale"] = gscale
    grads["embedder.ln.shift"] = gshift
    g_proj = g_seq[:, :s_raw]
    _, gw, gb = nn.linear_bw(g_proj, lin_cache)
    grads["embedder.conv.weight"] = gw
    grads["embedder.conv.bias"] = gb
    return grads


def body_forward(spec: BodySpec, params, x):
    """(B, S, D) -> ((B, S, D), cache); the cache is one tuple per block."""
    x = np.asarray(x)
    if x.ndim != 3 or x.shape[2] != spec.embed_dim:
        raise ShapeError(
            f"body expects (B, S, {spec.embed_dim}), got {x.shape}"
        )
    blocks = []
    for i in range(spec.layers):
        p = f"body.block{i}"
        n1, c_ln1 = nn.layernorm_fw(x, params[f"{p}.ln1.scale"], params[f"{p}.ln1.shift"])
        a, c_attn = nn.attention_fw(n1, params, f"{p}.attn", spec.heads)
        h = x + a
        n2, c_ln2 = nn.layernorm_fw(h, params[f"{p}.ln2.scale"], params[f"{p}.ln2.shift"])
        m1, c_m1 = nn.linear_fw(n2, params[f"{p}.mlp.w1"], params[f"{p}.mlp.b1"])
        act, c_act = nn.gelu_fw(m1)
        m2, c_m2 = nn.linear_fw(act, params[f"{p}.mlp.w2"], params[f"{p}.mlp.b2"])
        x = h + m2
        blocks.append((c_ln1, c_attn, c_ln2, c_m1, c_act, c_m2))
    return x, blocks


def body_backward(spec: BodySpec, params, cache, g):
    grads = {}
    for i in reversed(range(spec.layers)):
        p = f"body.block{i}"
        c_ln1, c_attn, c_ln2, c_m1, c_act, c_m2 = cache[i]
        g_m2 = g
        g_act, gw2, gb2 = nn.linear_bw(g_m2, c_m2)
        grads[f"{p}.mlp.w2"] = gw2
        grads[f"{p}.mlp.b2"] = gb2
        g_m1 = nn.gelu_bw(g_act, c_act)
        g_n2, gw1, gb1 = nn.linear_bw(g_m1, c_m1)
        grads[f"{p}.mlp.w1"] = gw1
        grads[f"{p}.mlp.b1"] = gb1
        g_h, gs2, gsh2 = nn.layernorm_bw(g_n2, c_ln2)
        grads[f"{p}.ln2.scale"] = gs2
        grads[f"{p}.ln2.shift"] = gsh2
        g_h = g_h + g  # residual around the MLP
        g_a = g_h
        g_n1, attn_grads = nn.attention_bw(g_a, c_attn, f"{p}.attn")
        grads.update(attn_grads)
        g_x, gs1, gsh1 = nn.layernorm_bw(g_n1, c_ln1)
        grads[f"{p}.ln1.scale"] = gs1
        grads[f"{p}.ln1.shift"] = gsh1
        g = g_h + g_x
    return g, grads


def head_forward(spec: HeadSpec, params, seq):
    """(B, S, D) -> (logits or dense field, cache)."""
    seq = np.asarray(seq)
    if seq.ndim != 3:
        raise ShapeError(f"head expects (B, S, D), got {seq.shape}")
    b, s, _ = seq.shape
    if spec.mode == "classification":
        pooled = seq.mean(axis=1)
        out, lin_cache = nn.linear_fw(pooled, params["head.linear.weight"],
                                      params["head.linear.bias"])
        return out, (lin_cache, s)

    # dense: per-position linear, mold to channel-first, pixel-shuffle up
    if spec.out_extents:
        coarse = tuple(e // spec.k for e in spec.out_extents)
        if int(np.prod(coarse)) != s:
            raise ShapeError(
                f"dense head: sequence length {s} != prod of coarse extents {coarse}"
            )
    else:
        # dynamic 1D mode: pointwise embedders (k=1) accept any length
        if spec.k != 1:
            raise ShapeError("dense head without fixed extents requires k=1")
        coarse = (s,)
    y, lin_cache = nn.linear_fw(seq, params["head.linear.weight"],
                                params["head.linear.bias"])
    cf = np.moveaxis(y.reshape(b, *coarse, y.shape[-1]), -1, 1)  # (B, k^nd * K, *coarse)
    return nn.pixel_shuffle(cf, spec.k), (lin_cache, s)


def head_backward(spec: HeadSpec, params, cache, g):
    lin_cache, s = cache
    if spec.mode == "classification":
        g_pooled, gw, gb = nn.linear_bw(g, lin_cache)
        g_seq = np.repeat(g_pooled[:, None, :], s, axis=1) / s
        return g_seq, {"head.linear.weight": gw, "head.linear.bias": gb}
    g_cf = nn.pixel_unshuffle(g, spec.k)
    g_y = np.moveaxis(g_cf, 1, -1).reshape(len(g), s, -1)
    g_seq, gw, gb = nn.linear_bw(g_y, lin_cache)
    return g_seq, {"head.linear.weight": gw, "head.linear.bias": gb}


# ---------------------------------------------------------------------------
# full model

class Model:
    """Embedder -> body -> head with one shared ParameterSet."""

    def __init__(self, emb_spec, body_spec, head_spec, params):
        self.emb_spec = emb_spec
        self.body_spec = body_spec
        self.head_spec = head_spec
        self.params = params

    @classmethod
    def build(cls, emb_spec, body_spec, head_spec, emb_params=None, seed=0):
        if emb_params is None:
            emb_params = init_embedder_params(emb_spec, seed)
        params = merge_params(emb_params, init_body(body_spec, seed),
                              init_head(head_spec, body_spec.embed_dim, seed))
        return cls(emb_spec, body_spec, head_spec, params)

    def forward(self, x, params=None):
        p = self.params if params is None else params
        seq, c_emb = embedder_forward(self.emb_spec, p, x)
        hid, c_body = body_forward(self.body_spec, p, seq)
        out, c_head = head_forward(self.head_spec, p, hid)
        return out, (c_emb, c_body, c_head)

    def backward(self, cache, g_out, params=None):
        p = self.params if params is None else params
        c_emb, c_body, c_head = cache
        g_seq, g_head = head_backward(self.head_spec, p, c_head, g_out)
        g_emb_out, g_body = body_backward(self.body_spec, p, c_body, g_seq)
        g_embed = embedder_backward(self.emb_spec, p, c_emb, g_emb_out)
        return {**g_head, **g_body, **g_embed}


def trainable_mask(params: ParameterSet, mode: str) -> ParameterSet:
    """Set trainable flags in place and return the set.

    layernorm_only matches the FPT setting: body layernorms plus the whole
    embedder and head train; the positional table stays frozen."""
    if mode == "full":
        for n in params.names():
            params.set_trainable(n, True)
    elif mode == "layernorm_only":
        for n in params.names():
            if n.startswith("body."):
                params.set_trainable(n, ".ln" in n)
            elif n == "embedder.pos":
                params.set_trainable(n, False)
            else:
                params.set_trainable(n, True)
    else:
        raise ContractError(f"unknown mask mode {mode!r}")
    return params


def warm_init_layernorm(params: ParameterSet) -> ParameterSet:
    """Copy the body's first layernorm into the embedder layernorm."""
    for src, dst in (
        ("body.block0.ln1.scale", "embedder.ln.scale"),
        ("body.block0.ln1.shift", "embedder.ln.shift"),
    ):
        if params[src].shape != params[dst].shape:
            raise ShapeError(
                f"layernorm shape mismatch: {params[src].shape} vs {params[dst].shape}"
            )
        params.set(dst, params[src].copy())
        params.set_provenance(dst, "warm-init")
    return params
