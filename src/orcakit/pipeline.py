"""Three-stage workflow: task-specific architecture generation, embedder
alignment against cached source features, and fine-tuning; plus source
pretraining/caching and the train-fraction sweep."""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from . import nn
from .bundles import Bundle, has_artifact, load_bundle, save_bundle
from .config import AlignConfig, ExperimentConfig, StageConfig, run_mode
from .distances import (
    LabeledDataset,
    euclidean_align_grad,
    kmeans_pseudolabels,
    mmd_grad,
    otdd,
    otdd_grad,
    otdd_subsampled_grad,
)
from .errors import ContractError, RunError
from .models import (
    BodySpec,
    HeadSpec,
    Model,
    ParameterSet,
    build_embedder,
    embedder_backward,
    embedder_forward,
    init_body,
    init_head,
    merge_params,
    trainable_mask,
    warm_init_layernorm,
)
from .tensor import make_rng


def worker_count() -> int:
    env = os.environ.get("ORCAKIT_THREADS")
    try:
        return max(1, int(env)) if env else (os.cpu_count() or 1)
    except ValueError:
        raise ContractError(f"ORCAKIT_THREADS must be an integer, got {env!r}") from None


# ---------------------------------------------------------------------------
# schedules / optimizer / losses

def lr_at(cfg: StageConfig, epoch: int) -> float:
    """Learning rate for 1-based epoch `epoch`."""
    if cfg.schedule == "step":
        return cfg.lr * cfg.schedule_factor ** ((epoch - 1) // cfg.schedule_period)
    warm = cfg.warmup_epochs
    if epoch <= warm:
        return cfg.lr * epoch / warm
    if cfg.epochs <= warm:
        return cfg.lr
    return cfg.lr * (cfg.epochs - epoch) / (cfg.epochs - warm)


class Optimizer:
    """SGD or Adam (betas 0.9/0.999) with decoupled weight decay and
    optional global-norm gradient clipping; touches only trainable tensors."""

    def __init__(self, params: ParameterSet, cfg: StageConfig):
        self.params = params
        self.cfg = cfg
        self.state = {}
        self.t = 0

    def step(self, grads: dict, lr: float):
        cfg = self.cfg
        grads = {n: g for n, g in grads.items() if self.params.entry(n).trainable}
        if cfg.grad_clip > 0:
            total = np.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2))
                                for g in grads.values()))
            if total > cfg.grad_clip:
                scale = cfg.grad_clip / total
                grads = {n: g * scale for n, g in grads.items()}
        self.t += 1
        for n, g in grads.items():
            v = self.params[n].astype(np.float64)
            g = g.astype(np.float64)
            if cfg.weight_decay > 0:
                v = v - lr * cfg.weight_decay * v
            if cfg.optimizer == "sgd":
                v = v - lr * g
            else:
                m, s = self.state.get(n, (np.zeros_like(v), np.zeros_like(v)))
                m = 0.9 * m + 0.1 * g
                s = 0.999 * s + 0.001 * g * g
                self.state[n] = (m, s)
                mh = m / (1 - 0.9 ** self.t)
                sh = s / (1 - 0.999 ** self.t)
                v = v - lr * mh / (np.sqrt(sh) + 1e-8)
            self.params.set(n, v)


def softmax_ce(logits, labels, class_weights):
    """Weighted cross-entropy; returns (loss, grad wrt logits)."""
    p, _ = nn.softmax_fw(logits)
    n = labels.shape[0]
    w = class_weights[labels]
    wsum = w.sum()
    ll = -np.log(np.maximum(p[np.arange(n), labels], 1e-30))
    loss = float(np.sum(w * ll) / wsum)
    grad = p
    grad[np.arange(n), labels] -= 1.0
    grad *= (w / wsum)[:, None]
    return loss, grad


def mse_loss(pred, target):
    diff = pred - target
    loss = float(np.mean(diff ** 2))
    return loss, 2.0 * diff / diff.size


def class_weight_vector(labels, classes):
    counts = np.bincount(labels, minlength=classes).astype(np.float64)
    counts[counts == 0] = 1.0
    return 1.0 / counts


# ---------------------------------------------------------------------------
# model construction per task

def body_spec_of(cfg: ExperimentConfig) -> BodySpec:
    m = cfg.model
    return BodySpec(layers=m.layers, heads=m.heads, embed_dim=m.embed_dim,
                    seq_len=m.seq_len)


def embedder_for_bundle(bundle: Bundle, cfg: ExperimentConfig, seed: int):
    m = cfg.model
    shape = bundle.features.shape[1:]
    if len(shape) == 3:
        # the patch size is pinned to model.source_patch, and the resize
        # target is the bundle's own extents, not the body's pretraining one
        return build_embedder(shape, m.embed_dim, m.seq_len,
                              body_patch=m.source_patch,
                              body_resolution=shape[1:], seed=seed)
    return build_embedder(shape, m.embed_dim, m.seq_len,
                          target_seq_len=m.target_seq_len, seed=seed)


def head_for_bundle(bundle: Bundle, emb_spec, cfg: ExperimentConfig) -> HeadSpec:
    if bundle.label_kind == "classification":
        return HeadSpec(mode="classification", classes=bundle.classes)
    k = emb_spec.k
    out_extents = () if (k == 1 and emb_spec.input_rank == 1) else bundle.labels.shape[2:]
    return HeadSpec(mode="dense", classes=bundle.labels.shape[1], k=k,
                    out_extents=tuple(out_extents))


# ---------------------------------------------------------------------------
# the training loop (pretraining, alignment and refinement all run it)

def _train(params: ParameterSet, stage: StageConfig, n: int, stream: str,
           step, log_epoch):
    """Minimize a loss over the trainable tensors of `params`.

    Each epoch shuffles the `n` rows with the `(stage.seed, stream, epoch)`
    RNG and walks them in batches; `step(idx)` returns the batch's
    `(loss, grads)`. A non-finite loss raises RunError before any parameter
    moves. `log_epoch(epoch, mean_loss, lr)` returns the epoch's record row,
    first for epoch 0 with `(0, None, None)`; the rows are returned."""
    opt = Optimizer(params, stage)
    epochs_log = [log_epoch(0, None, None)]
    for epoch in range(1, stage.epochs + 1):
        lr = lr_at(stage, epoch)
        order = make_rng(stage.seed, stream, epoch).permutation(n)
        losses = []
        for i in range(0, n, stage.batch_size):
            idx = order[i : i + stage.batch_size]
            loss, grads = step(idx)
            if not np.isfinite(loss):
                raise RunError(f"non-finite loss {loss} at epoch {epoch}, "
                               f"batch rows {idx[:8].tolist()}")
            opt.step(grads, lr)
            losses.append(loss)
        epochs_log.append(log_epoch(epoch, float(np.mean(losses)) if losses else None, lr))
    return epochs_log


def evaluate(model: Model, bundle: Bundle, metric_name: str, batch_size=64) -> float:
    from .report import metric as eval_metric

    preds = []
    for i in range(0, bundle.n, batch_size):
        out, _ = model.forward(bundle.features[i : i + batch_size])
        preds.append(out)
    preds = np.concatenate(preds, axis=0)
    if metric_name == "auroc":
        scores = nn.softmax_fw(preds)[0][:, 1]
        return eval_metric("auroc", scores, bundle.labels).value
    return eval_metric(metric_name, preds, bundle.labels).value


def train_supervised(model: Model, train: Bundle, val: Bundle | None,
                     cfg: StageConfig, metric_name: str):
    classification = train.label_kind == "classification"
    weights = class_weight_vector(train.labels, train.classes) if classification else None
    held = None

    def step(idx):
        nonlocal held
        out, cache = model.forward(train.features[idx])
        # the previous batch's activations are freed only now, after this
        # forward: freed at the end of each step, malloc hands their pages
        # back to the OS and every forward faults them in again (the desk
        # pretraining took 12x the page faults and 20% longer on 2 cores)
        held = cache
        if classification:
            loss, g = softmax_ce(out, train.labels[idx], weights)
        else:
            loss, g = mse_loss(out, train.labels[idx].astype(out.dtype))
        return loss, model.backward(cache, g)

    def log_epoch(epoch, train_loss, lr):
        return {"epoch": epoch, "train_loss": train_loss,
                "metric": evaluate(model, val, metric_name) if val is not None else None,
                "lr": lr}

    return _train(model.params, cfg, train.n, "train_epoch", step, log_epoch)


# ---------------------------------------------------------------------------
# stage 0: source pretraining and feature caching

def pretrain_source(source: Bundle, cfg: ExperimentConfig, out_dir=None):
    """Supervised training of embedder+body+head on the source task; returns
    (model, record) and optionally writes the checkpoint."""
    stage = cfg.pretrain
    emb_spec, emb_params = embedder_for_bundle(source, cfg, stage.seed)
    body_spec = body_spec_of(cfg)
    head_spec = head_for_bundle(source, emb_spec, cfg)
    model = Model.build(emb_spec, body_spec, head_spec, emb_params, stage.seed)

    rng = make_rng(stage.seed, "pretrain_split")
    idx = rng.permutation(source.n)
    n_val = max(1, source.n // 5)
    val = source.subset(idx[:n_val])
    train = source.subset(idx[n_val:])

    t0 = time.perf_counter()
    epochs_log = train_supervised(model, train, val, stage, "zero_one_error")
    val_err = epochs_log[-1]["metric"]
    majority = np.bincount(val.labels, minlength=val.classes).max() / val.n
    flags = []
    if (1.0 - val_err) < majority + 0.20:
        flags.append("weak_source")
    record = {
        "config": cfg.to_dict(),
        "stage": "pretrain",
        "seeds": [stage.seed],
        "epochs": epochs_log,
        "final_metrics": {"val_zero_one_error": val_err,
                          "majority_rate": float(majority)},
        "flags": flags,
        "timing": {"wall_seconds": time.perf_counter() - t0},
    }
    if out_dir:
        model.params.save(out_dir, meta={
            "embedder_spec": emb_spec.to_dict(),
            "body_spec": body_spec.to_dict(),
            "head_spec": head_spec.to_dict(),
            "val_zero_one_error": val_err,
            "flags": flags,
        })
    return model, record


def cache_source(model: Model, source: Bundle, n: int | None = None, seed: int = 0,
                 out_path=None):
    """One pass of the source data through the source embedder, sequence-mean
    reduced; the cached set backs every later distance computation. `n`
    defaults to min(5000, source.n); a larger `n` draws with replacement."""
    if n is None:
        n = min(5000, source.n)
    if n < 1:
        raise ContractError(f"cache size must be >= 1, got {n}")
    rng = make_rng(seed, "cache_source")
    flags = []
    if n > source.n:
        idx = np.sort(rng.choice(source.n, size=n, replace=True))
        flags.append("sampled_with_replacement")
    elif n < source.n:
        idx = np.sort(rng.choice(source.n, size=n, replace=False))
    else:
        idx = np.arange(source.n)
    feats = _embed_all(model.emb_spec, model.params, source.features[idx]).astype(np.float32)
    labels = source.labels[idx].astype(np.int32)
    cache = Bundle("source_cache", feats[:, None, :], labels,
                   "classification", source.classes)
    if out_path:
        save_bundle(cache, out_path)
    return cache, flags


def cache_dataset(cache: Bundle) -> LabeledDataset:
    return LabeledDataset(cache.features[:, 0, :], cache.labels.astype(np.int64))


# ---------------------------------------------------------------------------
# stage 2: embedder alignment

def _embed_all(emb_spec, emb_params, features, batch_size=64):
    out = []
    for i in range(0, features.shape[0], batch_size):
        seq, _ = embedder_forward(emb_spec, emb_params, features[i : i + batch_size])
        out.append(seq.mean(axis=1))
    return np.concatenate(out, axis=0)


def target_labels_for_alignment(target: Bundle, emb_spec, emb_params,
                                source_classes: int, seed: int) -> np.ndarray:
    """Dense tasks get k-means pseudo-labels (K = source class count) on the
    initially embedded, sequence-reduced target features."""
    if target.label_kind == "classification":
        return target.labels.astype(np.int64)
    feats = _embed_all(emb_spec, emb_params, target.features)
    return kmeans_pseudolabels(feats, source_classes, seed=seed)


def _alignment_loss_grad(z, labels, src_ds: LabeledDataset, stage: AlignConfig,
                         step_seed: int):
    """The configured distance between the batch's reduced embeddings z and
    the source cache: (value, gradient w.r.t. z, converged)."""
    metric = stage.distance_metric
    tgt = LabeledDataset(z, labels)
    if metric == "otdd":
        return otdd_grad(tgt, src_ds, eps=stage.eps, seed=step_seed)
    if metric == "mmd":
        return (*mmd_grad(z, src_ds.reduced()), True)
    # these two hand the embedder a gradient in z's dtype, the two above a
    # float64 one; making them agree would change the aligned checkpoints
    if metric == "otdd-sub":
        value, grad, converged = otdd_subsampled_grad(
            tgt, src_ds, b=stage.subsample_b, rounds=stage.subsample_rounds,
            seed=step_seed, eps=stage.eps)
        return value, grad.astype(z.dtype), converged
    if metric == "euclidean":
        value, grad = euclidean_align_grad(z, src_ds.reduced(), seed=step_seed)
        return value, grad.astype(z.dtype), True
    raise ContractError(f"unknown distance metric {metric!r}")


def align_embedder(target: Bundle, cache: Bundle, emb_spec, emb_params: ParameterSet,
                   stage: AlignConfig):
    """Stage 2: minimize the configured distance between embedded target
    batches and the cached source features. Only embedder tensors move.

    OTDD gradients use the envelope rule: plans are re-solved each step with
    the current embeddings, then frozen while the quadratic cost terms are
    backpropagated. The exact full-set OTDD is logged every epoch. The
    record's `converged` is false if any step's objective or any per-epoch
    exact OTDD left a Sinkhorn solve unconverged.
    """
    src_ds = cache_dataset(cache)
    align_labels = target_labels_for_alignment(
        target, emb_spec, emb_params, cache.classes, stage.seed)
    t0 = time.perf_counter()
    converged = True
    n_steps = 0

    def step(idx):
        nonlocal converged, n_steps
        n_steps += 1
        seq, emb_cache = embedder_forward(emb_spec, emb_params, target.features[idx])
        value, gz, ok = _alignment_loss_grad(seq.mean(axis=1), align_labels[idx], src_ds,
                                             stage, step_seed=n_steps)
        converged = converged and ok
        g_seq = np.repeat(gz[:, None, :], seq.shape[1], axis=1) / seq.shape[1]
        return value, embedder_backward(emb_spec, emb_params, emb_cache, g_seq)

    def log_epoch(epoch, distance, lr):
        nonlocal converged
        feats = _embed_all(emb_spec, emb_params, target.features)
        rep = otdd(LabeledDataset(feats, align_labels), src_ds,
                   eps=stage.eps, seed=stage.seed)
        converged = converged and rep.converged
        return {"epoch": epoch, "distance": distance, "distance_exact": rep.value,
                "lr": lr}

    epochs_log = _train(emb_params, stage, target.n, "align_epoch", step, log_epoch)
    record = {
        "stage": "align",
        "seeds": [stage.seed],
        "epochs": epochs_log,
        "final_metrics": {
            "initial_otdd": epochs_log[0]["distance_exact"],
            "final_otdd": epochs_log[-1]["distance_exact"],
        },
        "converged": converged,
        "timing": {"wall_seconds": time.perf_counter() - t0},
    }
    return emb_params, record


# ---------------------------------------------------------------------------
# stage 3: weight refinement

def assemble_refine_model(mode: str, cfg: ExperimentConfig, target: Bundle,
                          checkpoint: ParameterSet | None,
                          aligned_embedder: ParameterSet | None,
                          seed: int) -> Model:
    uses = run_mode(mode)
    if cfg.model.head_mode != target.label_kind:
        raise ContractError(f"model.head_mode {cfg.model.head_mode!r} does not match the "
                            f"target's label kind {target.label_kind!r}")
    body_spec = body_spec_of(cfg)
    emb_spec, emb_params = embedder_for_bundle(target, cfg, seed)
    head_spec = head_for_bundle(target, emb_spec, cfg)

    if uses.pretrained_body:
        if checkpoint is None:
            raise ContractError(f"mode {mode} requires a pretrained checkpoint")
        body_params = ParameterSet()
        for name in checkpoint.names():
            if name.startswith("body."):
                body_params.add(name, checkpoint[name].copy(), True, "pretrained")
    else:
        body_params = init_body(body_spec, seed)
    if uses.aligned_embedder:
        if aligned_embedder is None:
            raise ContractError(f"mode {mode} requires an aligned embedder")
        emb_params = aligned_embedder.copy()

    head_params = init_head(head_spec, body_spec.embed_dim, seed)
    params = trainable_mask(merge_params(emb_params, body_params, head_params), uses.mask)
    if uses.warm_init:
        warm_init_layernorm(params)
    return Model(emb_spec, body_spec, head_spec, params)


def refine(target: Bundle, val: Bundle | None, cfg: ExperimentConfig, mode: str,
           checkpoint: ParameterSet | None = None,
           aligned_embedder: ParameterSet | None = None,
           seed: int | None = None):
    seed = cfg.refine.seed if seed is None else seed
    stage = replace(cfg.refine, seed=seed)
    model = assemble_refine_model(mode, cfg, target, checkpoint,
                                  aligned_embedder, seed)
    train = target
    if stage.train_fraction < 1.0:
        train = subsample_fraction(target, stage.train_fraction, seed)
    t0 = time.perf_counter()
    epochs_log = train_supervised(model, train, val, stage, stage.metric)
    record = {
        "stage": "refine",
        "mode": mode,
        "seeds": [seed],
        "epochs": epochs_log,
        "final_metrics": {stage.metric: epochs_log[-1]["metric"]}
        if val is not None else {},
        "timing": {"wall_seconds": time.perf_counter() - t0},
    }
    return model, record


def subsample_fraction(bundle: Bundle, fraction: float, seed: int) -> Bundle:
    """Seeded stratified subsample keeping at least one sample per class."""
    if not 0.0 < fraction <= 1.0:
        raise ContractError("fraction must be in (0, 1]")
    if fraction == 1.0:
        return bundle
    rng = make_rng(seed, "fraction")
    if bundle.label_kind == "classification":
        keep = []
        for c in np.unique(bundle.labels):
            idx = np.flatnonzero(bundle.labels == c)
            k = max(1, int(round(fraction * idx.size)))
            keep.append(np.sort(rng.choice(idx, size=k, replace=False)))
        keep = np.sort(np.concatenate(keep))
    else:
        k = max(1, int(round(fraction * bundle.n)))
        keep = np.sort(rng.choice(bundle.n, size=k, replace=False))
    return bundle.subset(keep)


# ---------------------------------------------------------------------------
# full runs and sweeps

def run_pipeline(cfg: ExperimentConfig, mode: str | None = None):
    """Stages 1-3 end to end, preparing only the artifacts RUN_MODES says
    `mode` uses; reuses checkpoint/cache files when present."""
    mode = mode or cfg.mode
    uses = run_mode(mode)
    target = load_bundle(cfg.paths["target_bundle"])
    val = load_bundle(cfg.paths["val_bundle"]) if cfg.paths.get("val_bundle") else None

    checkpoint = aligned = align_record = None
    if uses.pretrained_body:
        source = load_bundle(cfg.paths["source_bundle"])
        ckpt_path = cfg.path("checkpoint")
        if has_artifact(ckpt_path):
            checkpoint, _meta = ParameterSet.load(ckpt_path)
        else:
            model, _rec = pretrain_source(source, cfg, out_dir=ckpt_path)
            checkpoint = model.params

    if uses.aligned_embedder:
        cache_path = cfg.path("cache")
        if has_artifact(cache_path):
            cache = load_bundle(cache_path)
        else:
            src_model = _source_model(cfg, source, checkpoint)
            cache, _flags = cache_source(src_model, source, seed=cfg.seed,
                                         out_path=cache_path)
        emb_spec, emb_params = embedder_for_bundle(target, cfg, cfg.align.seed)
        aligned, align_record = align_embedder(target, cache, emb_spec,
                                               emb_params, cfg.align)

    model, refine_record = refine(target, val, cfg, mode, checkpoint=checkpoint,
                                  aligned_embedder=aligned)
    record = {
        "config": cfg.to_dict(),
        "mode": mode,
        "seeds": [cfg.seed, cfg.align.seed, cfg.refine.seed],
        "epochs": refine_record["epochs"],
        "align": align_record,
        "final_metrics": refine_record["final_metrics"],
        "timing": {"wall_seconds": (align_record or {}).get("timing", {}).get("wall_seconds", 0.0)
                   + refine_record["timing"]["wall_seconds"]},
    }
    return model, record


def _source_model(cfg: ExperimentConfig, source: Bundle, params: ParameterSet) -> Model:
    emb_spec, _ = embedder_for_bundle(source, cfg, cfg.pretrain.seed)
    body_spec = body_spec_of(cfg)
    head_spec = head_for_bundle(source, emb_spec, cfg)
    return Model(emb_spec, body_spec, head_spec, params)


def sweep_train_fraction(cfg: ExperimentConfig, fractions, modes, seeds,
                         target: Bundle, val: Bundle,
                         checkpoint: ParameterSet,
                         aligned_by_seed: dict | None = None):
    """Grid of (fraction, mode, seed) refinement runs; cells run on a thread
    pool capped by ORCAKIT_THREADS."""
    if not fractions:
        raise ContractError("empty fraction list")
    cells = [(f, m, s) for f in fractions for m in modes for s in seeds]

    def run_cell(cell):
        f, m, s = cell
        cell_cfg = replace(cfg, refine=replace(cfg.refine, train_fraction=f))
        aligned = (aligned_by_seed or {}).get(s)
        _model, rec = refine(target, val, cell_cfg, m, checkpoint=checkpoint,
                             aligned_embedder=aligned, seed=s)
        return {"fraction": f, "mode": m, "seed": s,
                "metric": rec["epochs"][-1]["metric"]}

    if worker_count() > 1 and len(cells) > 1:
        with ThreadPoolExecutor(max_workers=worker_count()) as pool:
            rows = list(pool.map(run_cell, cells))
    else:
        rows = [run_cell(c) for c in cells]
    return rows
