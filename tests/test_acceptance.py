"""Acceptance suite: numerical correctness of the OT stack, gradient
integrity, and mechanism-level behavior of the align-then-refine workflow on
seeded synthetic tasks. Each test prints one PASS/FAIL line."""

import time

import numpy as np
import pytest
from conftest import fd_check, to_f64
from ot_oracle import exact_ot_enum

from orcakit.bundles import synth_advect1d, synth_blobs2d, synth_spectra1d
from orcakit.config import ExperimentConfig
from orcakit.distances import LabeledDataset, otdd, otdd_grad, otdd_subsampled
from orcakit.models import (
    BodySpec,
    HeadSpec,
    Model,
    ParameterSet,
    build_embedder,
    init_body,
    init_head,
    merge_params,
)
from orcakit.ot import sinkhorn_log
from orcakit.pipeline import (
    align_embedder,
    cache_source,
    embedder_for_bundle,
    evaluate,
    pretrain_source,
    refine,
)
from orcakit.report import metric, performance_profile, profile_at, read_report, write_report
from orcakit.tensor import make_rng


def verdict(num, ok, desc):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


# ---------------------------------------------------------------------------
# shared desk-scale experiment (blobs2d source body -> spectra1d target)

BASE = {
    "pretrain": {"epochs": 25, "batch_size": 32, "lr": 3e-3, "schedule_period": 100},
    "align": {"epochs": 10, "batch_size": 32, "lr": 1e-3, "distance_metric": "otdd"},
    "refine": {"epochs": 30, "lr": 3e-3, "schedule": "linear", "warmup_epochs": 3,
               "batch_size": 16},
}


def base_config(**stage_overrides):
    data = {k: dict(v) for k, v in BASE.items()}
    for key, val in stage_overrides.items():
        data[key] = {**data.get(key, {}), **val}
    return ExperimentConfig.from_dict(data)


@pytest.fixture(scope="module")
def desk():
    """Pretrained source body, cached source features, and the target pair."""
    cfg = base_config()
    src = synth_blobs2d(n=256, size=16, seed=0)
    model, rec = pretrain_source(src, cfg)
    assert rec["final_metrics"]["val_zero_one_error"] < 0.1
    cache, _ = cache_source(model, src, n=256, seed=0)
    return {
        "cfg": cfg,
        "source": src,
        "model": model,
        "cache": cache,
        "target": synth_spectra1d(n=128, length=128, seed=1),
        "val": synth_spectra1d(n=96, length=128, seed=9),
    }


@pytest.fixture(scope="module")
def aligned_embedder_params(desk):
    cfg = desk["cfg"]
    emb_spec, emb_params = embedder_for_bundle(desk["target"], cfg, 0)
    emb_params, _ = align_embedder(desk["target"], desk["cache"], emb_spec,
                                   emb_params, cfg.align)
    return emb_params


@pytest.fixture(scope="module")
def error_table(desk, aligned_embedder_params):
    """Test error per (train fraction, mode, seed) for criteria 6-8."""
    ckpt = desk["model"].params
    table = {}
    for fraction, modes in [(1.0, ["orca", "naive_ft", "orca_layernorm",
                                   "ft_layernorm"]),
                            (0.1, ["orca", "naive_ft"])]:
        cfg = base_config(refine={"train_fraction": fraction})
        for mode in modes:
            aligned = aligned_embedder_params if mode.startswith("orca") else None
            errs = []
            for seed in range(5):
                _, rec = refine(desk["target"], desk["val"], cfg, mode,
                                checkpoint=ckpt, aligned_embedder=aligned,
                                seed=seed)
                errs.append(rec["final_metrics"]["zero_one_error"])
            table[(fraction, mode)] = np.array(errs)
    return table


# ---------------------------------------------------------------------------

def test_criterion_1_sinkhorn_matches_enumeration():
    t0 = time.perf_counter()
    worst = 0.0
    marg = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n, m = rng.integers(2, 5), rng.integers(2, 5)
        cost = rng.uniform(0.5, 1.5, size=(n, m))
        a = rng.uniform(0.5, 1.5, size=n)
        a /= a.sum()
        b = rng.uniform(0.5, 1.5, size=m)
        b /= b.sum()
        exact = exact_ot_enum(cost, a, b)
        approx = sinkhorn_log(cost, a, b, eps=1e-3, max_iter=200000, tol=1e-9)
        worst = max(worst, abs(approx.value - exact.value) / max(exact.value, 1e-9))
        marg = max(marg, max(approx.marginal_errors(a, b)))
    elapsed = time.perf_counter() - t0
    ok = worst < 0.01 and marg < 1e-6 and elapsed < 10.0
    verdict(1, ok, f"sinkhorn vs enumeration: rel err {worst:.2e} (<1%), "
                   f"marginals {marg:.1e} (<1e-6), {elapsed:.1f}s (<10s)")


def test_criterion_2_otdd_axioms():
    t0 = time.perf_counter()
    self_ok = rename_ok = shift_ok = True
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        n, d, k = 24, 6, 3
        feats = rng.normal(size=(n, d)) + rng.integers(0, 3, size=(n, 1))
        labels = rng.integers(0, k, size=n)
        labels[:k] = np.arange(k)  # every class present
        ds = LabeledDataset(feats, labels)
        scale = float(np.abs(feats).max())

        self_ok &= otdd(ds, ds, eps=1e-3, seed=seed).value < 1e-3 * scale

        other = LabeledDataset(rng.normal(size=(n, d)),
                               np.concatenate([np.arange(k),
                                               rng.integers(0, k, size=n - k)]))
        renamed = LabeledDataset(feats.copy(), (labels + 5) * 2)
        r1 = otdd(ds, other, eps=0.1, seed=seed).value
        r2 = otdd(renamed, other, eps=0.1, seed=seed).value
        rename_ok &= abs(r1 - r2) < 1e-6

        shift = rng.normal(size=(1, d)) * 3.0
        shifted = otdd(LabeledDataset(feats + shift, labels),
                       LabeledDataset(other.features + shift, other.labels),
                       eps=0.1, seed=seed).value
        shift_ok &= abs(shifted - r1) < 1e-5
    elapsed = time.perf_counter() - t0
    ok = self_ok and rename_ok and shift_ok and elapsed < 30.0
    verdict(2, ok, f"OTDD axioms: self={self_ok}, rename={rename_ok}, "
                   f"translation={shift_ok}, {elapsed:.1f}s (<30s)")


def test_criterion_3_classwise_subsampling():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    n = 40
    feats = np.vstack([rng.normal(0, 1, (n // 2, 5)),
                       rng.normal(2.0, 1, (n // 2, 5))])
    labels = np.repeat([0, 1], n // 2)
    tgt = LabeledDataset(feats, labels)
    src = LabeledDataset(np.vstack([rng.normal(0.5, 1, (30, 5)),
                                    rng.normal(2.5, 1, (30, 5))]),
                         np.repeat([0, 1], 30))

    full = otdd_subsampled(tgt, src, b="full", rounds=1, seed=7).value
    classwise = sum(
        (np.sum(labels == c) / n)
        * otdd(LabeledDataset(feats[labels == c], labels[labels == c]),
               src, seed=7).value
        for c in (0, 1)
    )
    bitwise = full == classwise

    errors = []
    for b in (2, 4, 8, "full"):
        vals = [otdd_subsampled(tgt, src, b=b, rounds=1, seed=s).value
                for s in range(20)]
        errors.append(float(np.mean(np.abs(np.array(vals) - classwise))))
    monotone = all(errors[i + 1] <= errors[i] + 1e-12 for i in range(3))
    elapsed = time.perf_counter() - t0
    ok = bitwise and monotone and elapsed < 120.0
    verdict(3, ok, f"class-wise subsampling: bit-for-seed={bitwise}, "
                   f"errors {['%.3f' % e for e in errors]} nonincreasing={monotone}, "
                   f"{elapsed:.1f}s (<2min)")


def test_criterion_4_gradient_integrity():
    t0 = time.perf_counter()
    rng = make_rng(2024)

    # full model (embedder -> body -> head), float32 parameters
    emb_spec, emb_params = build_embedder((1, 32), 16, 16, target_seq_len=16,
                                          seed=0)
    body_spec = BodySpec(layers=2, heads=2, embed_dim=16, seq_len=16)
    head_spec = HeadSpec(mode="classification", classes=3)
    model = Model(emb_spec, body_spec, head_spec,
                  merge_params(emb_params, init_body(body_spec, 1),
                               init_head(head_spec, 16, 2)))
    x = rng.normal(size=(3, 1, 32)).astype(np.float32)
    proj = rng.normal(size=(3, 3))
    params = to_f64(model.params)

    def model_loss(p):
        out, _ = model.forward(x, params={n: v.astype(np.float32)
                                          for n, v in p.items()})
        return float(np.sum(out.astype(np.float64) * proj))

    _, cache = model.forward(x, params=params)
    grads = model.backward(cache, proj.copy(), params=params)
    groups = {
        "embedder": {n: g for n, g in grads.items() if n.startswith("embedder.")},
        "body": {n: g for n, g in grads.items() if n.startswith("body.")},
        "head": {n: g for n, g in grads.items() if n.startswith("head.")},
    }
    worst_f32 = {}
    for part, part_grads in groups.items():
        worst_f32[part] = fd_check(model_loss, params, part_grads, rng,
                                   n_coords=20, h=3e-3)
    model_ok = all(v < 1e-2 for v in worst_f32.values())

    # envelope objective: value re-solves transport plans at each probe.
    # Small entropic eps with generous iterations: the frozen-plan gradient
    # matches the finite difference only once the plans are near the sharp
    # unregularized optimum; unequal class sizes keep that optimum unique.
    env_rng = make_rng(11)
    zt = env_rng.normal(size=(15, 5))
    lt = np.concatenate([np.arange(3), env_rng.integers(0, 3, size=12)])
    src = LabeledDataset(env_rng.normal(size=(16, 5)) + 1.0,
                         np.concatenate([np.arange(3), env_rng.integers(0, 3, size=13)]))

    def envelope_loss(p):
        return otdd_grad(LabeledDataset(p["z"], lt), src, eps=1e-3, seed=0,
                         max_iter=3000)[0]

    value, grad, _ = otdd_grad(LabeledDataset(zt, lt), src, eps=1e-3, seed=0,
                               max_iter=3000)
    env_err = fd_check(envelope_loss, {"z": zt}, {"z": grad}, rng,
                       n_coords=20, h=1e-5)
    elapsed = time.perf_counter() - t0
    ok = model_ok and env_err < 5e-2 and elapsed < 120.0
    verdict(4, ok, "gradient integrity: f32 rel err "
            + ", ".join(f"{k}={v:.1e}" for k, v in worst_f32.items())
            + f" (<1e-2), envelope={env_err:.1e} (<5e-2), {elapsed:.1f}s (<2min)")


def test_criterion_5_alignment_reduces_otdd(desk):
    halved = 0
    noninc = 0
    for seed in range(5):
        cfg = base_config(align={"epochs": 60, "seed": seed})
        emb_spec, emb_params = embedder_for_bundle(desk["target"], cfg, seed)
        _, rec = align_embedder(desk["target"], desk["cache"], emb_spec,
                                emb_params, cfg.align)
        grid = {e["epoch"]: e["distance_exact"] for e in rec["epochs"]}
        pts = [grid[e] for e in (0, 10, 20, 40, 60)]
        halved += pts[-1] < 0.5 * pts[0]
        noninc += all(pts[i + 1] <= pts[i] + 1e-9 for i in range(4))
    ok = halved == 5 and noninc >= 4
    verdict(5, ok, f"alignment: final<0.5x initial in {halved}/5 seeds (need 5), "
                   f"nonincreasing over sweep grid in {noninc}/5 (need >=4)")


def test_criterion_6_orca_beats_naive_ft(error_table):
    t0 = time.perf_counter()
    orca = error_table[(1.0, "orca")]
    naive = error_table[(1.0, "naive_ft")]
    mean_ok = orca.mean() <= naive.mean()
    # paired comparisons: leave one seed out, compare the two variances
    wins = sum(
        np.var(np.delete(orca, i)) <= np.var(np.delete(naive, i))
        for i in range(5)
    )
    ok = mean_ok and wins >= 4
    verdict(6, ok, f"orca mean {orca.mean():.3f} <= naive_ft {naive.mean():.3f}: "
                   f"{mean_ok}, variance lower in {wins}/5 paired comparisons "
                   f"(need >=4)")


def test_criterion_7_layernorm_ablation(error_table):
    orca = error_table[(1.0, "orca")].mean()
    orca_ln = error_table[(1.0, "orca_layernorm")].mean()
    ft_ln = error_table[(1.0, "ft_layernorm")].mean()
    ok = orca_ln <= ft_ln and orca <= orca_ln
    verdict(7, ok, f"orca_layernorm {orca_ln:.3f} <= ft_layernorm {ft_ln:.3f} "
                   f"and orca {orca:.3f} <= orca_layernorm")


def test_criterion_8_gap_grows_with_scarcity(error_table):
    gap_small = (error_table[(0.1, "naive_ft")].mean()
                 - error_table[(0.1, "orca")].mean())
    gap_full = (error_table[(1.0, "naive_ft")].mean()
                - error_table[(1.0, "orca")].mean())
    ok = gap_small >= gap_full
    verdict(8, ok, f"orca-vs-naive gap at fraction 0.1 = {gap_small:.3f} >= "
                   f"gap at 1.0 = {gap_full:.3f}")


def test_criterion_9_resolution_transfer():
    cfg = ExperimentConfig.from_dict({
        "model": {"head_mode": "dense", "target_seq_len": 256, "seq_len": 64},
        "refine": {"epochs": 6, "lr": 1e-3, "schedule": "linear",
                   "warmup_epochs": 2, "metric": "nrmse"},
    })
    train = synth_advect1d(n=64, length=256, seed=2)
    val = synth_advect1d(n=32, length=256, seed=3)
    model, _ = refine(train, val, cfg, "scratch")
    assert model.emb_spec.k == 1
    base = evaluate(model, val, "nrmse")
    hi = evaluate(model, synth_advect1d(n=32, length=512, seed=3), "nrmse")
    ok = hi <= 2.0 * base
    verdict(9, ok, f"k=1 super-resolution: nRMSE {hi:.4f} at 512 <= "
                   f"2x {base:.4f} at 256")


def test_criterion_10_otdd_selects_models(desk):
    """Two candidate bodies for the same target: the fully pretrained source
    body and a one-epoch (weak) body. Smaller post-alignment OTDD should pick
    the better-transferring body."""
    weak_cfg = base_config(pretrain={"epochs": 1})
    weak_model, _ = pretrain_source(desk["source"], weak_cfg)
    weak_cache, _ = cache_source(weak_model, desk["source"], n=256, seed=0)
    bodies = {"good": (desk["model"], desk["cache"]),
              "weak": (weak_model, weak_cache)}
    consistent = 0
    for seed in range(5):
        row = {}
        cfg = base_config(align={"epochs": 40, "seed": seed},
                          refine={"train_fraction": 0.5})
        for name, (model, cache) in bodies.items():
            emb_spec, emb_params = embedder_for_bundle(desk["target"], cfg, seed)
            emb_params, arec = align_embedder(desk["target"], cache, emb_spec,
                                              emb_params, cfg.align)
            _, rrec = refine(desk["target"], desk["val"], cfg, "orca",
                             checkpoint=model.params,
                             aligned_embedder=emb_params, seed=seed)
            row[name] = (arec["final_metrics"]["final_otdd"],
                         rrec["final_metrics"]["zero_one_error"])
        good, weak = row["good"], row["weak"]
        consistent += (good[0] < weak[0]) == (good[1] < weak[1])
    ok = consistent >= 4
    verdict(10, ok, f"smaller post-alignment OTDD picks the lower-error body "
                    f"in {consistent}/5 seeds (need >=4)")


def test_criterion_11_report_correctness(tmp_path):
    curves = performance_profile([[1.0, 2.0], [2.0, 1.0]], ["a", "b"])
    profile_ok = all(
        profile_at(c, 1.0) == pytest.approx(0.5)
        and profile_at(c, 2.0) == pytest.approx(1.0)
        for c in curves
    )
    auroc = metric("auroc", [0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]).value
    auroc_ok = auroc == pytest.approx(0.75)

    record = {"config": {"mode": "orca"}, "seeds": [0],
              "epochs": [{"epoch": 0, "distance": 1.0, "metric": 0.5,
                          "train_loss": None, "lr": None}],
              "final_metrics": {"zero_one_error": 0.5}, "flags": []}
    paths = write_report(record, tmp_path)
    first = open(paths["report"], "rb").read()
    write_report(read_report(tmp_path), tmp_path)
    report_ok = open(paths["report"], "rb").read() == first

    from orcakit.bundles import load_bundle, save_bundle
    b = synth_blobs2d(n=8, size=8, seed=0)
    save_bundle(b, tmp_path / "b")
    b2 = load_bundle(tmp_path / "b")
    save_bundle(b2, tmp_path / "b2")
    bundle_ok = (open(tmp_path / "b" / "features.bin", "rb").read()
                 == open(tmp_path / "b2" / "features.bin", "rb").read())

    ps = ParameterSet()
    ps.add("w", make_rng(0).normal(size=(3, 3)).astype(np.float32))
    ps.save(tmp_path / "p", meta={"k": 1})
    ps2, _ = ParameterSet.load(tmp_path / "p")
    ps2.save(tmp_path / "p2", meta={"k": 1})
    params_ok = (open(tmp_path / "p" / "params.bin", "rb").read()
                 == open(tmp_path / "p2" / "params.bin", "rb").read())

    ok = profile_ok and auroc_ok and report_ok and bundle_ok and params_ok
    verdict(11, ok, f"profiles rho(1)=.5/rho(2)=1: {profile_ok}, "
                    f"auroc=0.75: {auroc_ok}, round-trips bit-exact: "
                    f"{report_ok and bundle_ok and params_ok}")
