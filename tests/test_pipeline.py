"""Schedules, optimizer, losses, and the three workflow stages on tiny tasks."""

import ast
import importlib
import importlib.util
import json
import os
from pathlib import Path

import numpy as np
import pytest
from conftest import fd_check

from orcakit.bundles import synth_advect1d, synth_blobs2d, synth_spectra1d
from orcakit import pipeline
from orcakit.config import (
    DISTANCE_METRICS,
    RUN_MODES,
    AlignConfig,
    ExperimentConfig,
    StageConfig,
)
from orcakit.distances import (
    LabeledDataset,
    euclidean_align,
    mmd,
    mmd_grad,
    otdd,
    otdd_subsampled,
)
from orcakit.errors import ContractError, RunError
from orcakit.models import ParameterSet, init_body
from orcakit.pipeline import (
    Optimizer,
    _alignment_loss_grad,
    align_embedder,
    assemble_refine_model,
    body_spec_of,
    cache_source,
    class_weight_vector,
    embedder_for_bundle,
    evaluate,
    lr_at,
    mse_loss,
    pretrain_source,
    refine,
    run_pipeline,
    softmax_ce,
    subsample_fraction,
    sweep_train_fraction,
    target_labels_for_alignment,
    worker_count,
)
from orcakit.report import canonical_record, report_schema
from orcakit.tensor import make_rng


def small_config(**overrides):
    base = {
        "model": {"layers": 1, "heads": 2, "embed_dim": 16, "seq_len": 16,
                  "source_patch": 2},
        "pretrain": {"epochs": 4, "batch_size": 16, "lr": 3e-3, "schedule_period": 100},
        "align": {"epochs": 2, "batch_size": 16, "lr": 1e-3},
        "refine": {"epochs": 2, "batch_size": 16, "lr": 1e-3,
                   "schedule": "linear", "warmup_epochs": 1},
    }
    for key, val in overrides.items():
        base[key] = {**base.get(key, {}), **val}
    return ExperimentConfig.from_dict(base)


class TestSchedules:
    def test_step_schedule(self):
        cfg = StageConfig(lr=1.0, schedule="step", schedule_factor=0.5,
                          schedule_period=2, epochs=6)
        assert [lr_at(cfg, e) for e in range(1, 7)] == [1.0, 1.0, 0.5, 0.5, 0.25, 0.25]

    def test_linear_schedule_warmup_then_decay(self):
        cfg = StageConfig(lr=1.0, schedule="linear", warmup_epochs=2, epochs=6)
        lrs = [lr_at(cfg, e) for e in range(1, 7)]
        assert lrs[:2] == [0.5, 1.0]
        assert lrs[2:] == pytest.approx([0.75, 0.5, 0.25, 0.0])

    def test_linear_all_warmup(self):
        cfg = StageConfig(lr=2.0, schedule="linear", warmup_epochs=5, epochs=3)
        assert lr_at(cfg, 3) < lr_at(cfg, 5) == 2.0


class TestOptimizer:
    def _params(self):
        p = ParameterSet()
        p.add("a", np.ones((2, 2), np.float32))
        p.add("b", np.full((3,), 2.0, np.float32))
        return p

    def test_sgd_step_oracle(self):
        p = self._params()
        opt = Optimizer(p, StageConfig(optimizer="sgd"))
        opt.step({"a": np.full((2, 2), 0.5), "b": np.zeros(3)}, lr=0.1)
        assert p["a"] == pytest.approx(np.full((2, 2), 0.95))
        assert p["b"] == pytest.approx(np.full(3, 2.0))

    def test_adam_first_step_is_signed_lr(self):
        p = self._params()
        opt = Optimizer(p, StageConfig(optimizer="adam"))
        g = np.array([[3.0, -7.0], [0.1, -0.1]])
        opt.step({"a": g}, lr=0.01)
        # bias-corrected first step moves every coordinate by ~lr*sign(g)
        assert p["a"] == pytest.approx(1.0 - 0.01 * np.sign(g), abs=1e-5)

    def test_frozen_params_never_move(self):
        p = self._params()
        p.set_trainable("b", False)
        before = p["b"].tobytes()
        opt = Optimizer(p, StageConfig(optimizer="adam"))
        opt.step({"a": np.ones((2, 2)), "b": np.ones(3)}, lr=0.1)
        assert p["b"].tobytes() == before

    def test_grad_clip_rescales_global_norm(self):
        p = self._params()
        opt = Optimizer(p, StageConfig(optimizer="sgd", grad_clip=1.0))
        g = np.full((2, 2), 10.0)
        opt.step({"a": g}, lr=1.0)
        moved = 1.0 - p["a"]
        assert np.linalg.norm(moved) == pytest.approx(1.0, rel=1e-5)

    def test_weight_decay_decoupled(self):
        p = self._params()
        opt = Optimizer(p, StageConfig(optimizer="sgd", weight_decay=0.1))
        opt.step({"a": np.zeros((2, 2))}, lr=1.0)
        assert p["a"] == pytest.approx(np.full((2, 2), 0.9))


class TestLosses:
    def test_softmax_ce_oracle(self):
        logits = np.array([[0.0, 0.0]])
        loss, g = softmax_ce(logits, np.array([0]), np.ones(2))
        assert loss == pytest.approx(np.log(2.0))
        assert g[0] == pytest.approx([-0.5, 0.5])

    def test_softmax_ce_gradient_fd(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(5, 3))
        labels = rng.integers(0, 3, size=5)
        w = class_weight_vector(labels, 3)
        _, g = softmax_ce(logits, labels, w)
        h = 1e-6
        for _ in range(10):
            i, j = rng.integers(5), rng.integers(3)
            lp, lm = logits.copy(), logits.copy()
            lp[i, j] += h
            lm[i, j] -= h
            fd = (softmax_ce(lp, labels, w)[0] - softmax_ce(lm, labels, w)[0]) / (2 * h)
            assert g[i, j] == pytest.approx(fd, abs=1e-5)

    def test_class_weights_rebalance(self):
        # two samples of class 0, one of class 1 -> weighted loss equals the
        # unweighted loss of a balanced duplicate
        logits = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        labels = np.array([0, 0, 1])
        w = class_weight_vector(labels, 2)
        loss, _ = softmax_ce(logits, labels, w)
        bal_logits = np.array([[1.0, 0.0], [0.0, 1.0]])
        bal_loss, _ = softmax_ce(bal_logits, np.array([0, 1]), np.ones(2))
        assert loss == pytest.approx(bal_loss)

    def test_mse_loss_and_grad(self):
        pred = np.array([[1.0, 2.0]])
        tgt = np.array([[0.0, 0.0]])
        loss, g = mse_loss(pred, tgt)
        assert loss == pytest.approx(2.5)
        assert g == pytest.approx(np.array([[1.0, 2.0]]))


class TestSubsample:
    def test_stratified_keeps_every_class(self):
        b = synth_blobs2d(n=64, size=8, seed=0)
        s = subsample_fraction(b, 0.1, seed=3)
        assert set(np.unique(s.labels)) == set(np.unique(b.labels))
        assert s.n < b.n

    def test_deterministic_and_full_identity(self):
        b = synth_blobs2d(n=64, size=8, seed=0)
        a = subsample_fraction(b, 0.3, seed=1)
        c = subsample_fraction(b, 0.3, seed=1)
        assert np.array_equal(a.features, c.features)
        assert subsample_fraction(b, 1.0, seed=1) is b

    def test_dense_fraction(self):
        b = synth_advect1d(n=20, length=16, seed=0)
        s = subsample_fraction(b, 0.25, seed=0)
        assert s.n == 5

    def test_bad_fraction(self):
        b = synth_blobs2d(n=16, size=8, seed=0)
        with pytest.raises(ContractError):
            subsample_fraction(b, 0.0, 0)


class TestPretrainAndCache:
    def test_pretrain_learns_blobs(self):
        cfg = small_config(pretrain={"epochs": 15, "lr": 1e-2})
        src = synth_blobs2d(n=128, size=8, seed=0)
        model, rec = pretrain_source(src, cfg)
        errs = [e["metric"] for e in rec["epochs"]]
        assert errs[-1] < errs[0]
        assert errs[-1] < 0.5  # clearly better than the 0.75 chance rate
        assert rec["final_metrics"]["val_zero_one_error"] == errs[-1]
        assert len(rec["epochs"]) == 16  # epoch-0 baseline + 15

    def test_weak_source_flagged_without_training(self):
        cfg = small_config(pretrain={"epochs": 0})
        src = synth_blobs2d(n=64, size=8, seed=0)
        _, rec = pretrain_source(src, cfg)
        assert "weak_source" in rec["flags"]

    def test_checkpoint_round_trip(self, tmp_path):
        cfg = small_config(pretrain={"epochs": 1})
        src = synth_blobs2d(n=32, size=8, seed=0)
        model, _ = pretrain_source(src, cfg, out_dir=tmp_path / "ckpt")
        loaded, meta = ParameterSet.load(tmp_path / "ckpt")
        assert loaded.names() == model.params.names()
        assert "embedder_spec" in meta and "body_spec" in meta

    def test_cache_shapes_and_flags(self):
        cfg = small_config(pretrain={"epochs": 1})
        src = synth_blobs2d(n=32, size=8, seed=0)
        model, _ = pretrain_source(src, cfg)
        cache, flags = cache_source(model, src, n=32, seed=0)
        assert cache.features.shape == (32, 1, 16)
        assert flags == []
        assert np.array_equal(cache.labels, src.labels)
        over, flags = cache_source(model, src, n=40, seed=0)
        assert over.n == 40 and "sampled_with_replacement" in flags
        sub, flags = cache_source(model, src, n=10, seed=0)
        assert sub.n == 10 and flags == []

    def test_cache_deterministic(self):
        cfg = small_config(pretrain={"epochs": 1})
        src = synth_blobs2d(n=32, size=8, seed=0)
        model, _ = pretrain_source(src, cfg)
        a, _ = cache_source(model, src, n=16, seed=5)
        b, _ = cache_source(model, src, n=16, seed=5)
        assert np.array_equal(a.features, b.features)


class TestAlignment:
    def _setup(self, metric="otdd", align_overrides=None):
        cfg = small_config(pretrain={"epochs": 6},
                          align={"distance_metric": metric, **(align_overrides or {})})
        src = synth_blobs2d(n=64, size=8, seed=0)
        model, _ = pretrain_source(src, cfg)
        cache, _ = cache_source(model, src, n=64, seed=0)
        tgt = synth_spectra1d(n=48, length=32, seed=1)
        emb_spec, emb_params = embedder_for_bundle(tgt, cfg, 0)
        return cfg, model, cache, tgt, emb_spec, emb_params

    def test_align_logs_exact_otdd_every_epoch(self):
        cfg, _, cache, tgt, emb_spec, emb_params = self._setup()
        emb_params, rec = align_embedder(tgt, cache, emb_spec, emb_params, cfg.align)
        assert len(rec["epochs"]) == cfg.align.epochs + 1
        assert all("distance_exact" in e for e in rec["epochs"])
        assert rec["final_metrics"]["initial_otdd"] == rec["epochs"][0]["distance_exact"]

    def test_align_reduces_distance(self):
        cfg, _, cache, tgt, emb_spec, emb_params = self._setup(
            align_overrides={"epochs": 5})
        _, rec = align_embedder(tgt, cache, emb_spec, emb_params, cfg.align)
        assert rec["final_metrics"]["final_otdd"] < rec["final_metrics"]["initial_otdd"]

    @pytest.mark.parametrize("metric,extra", [
        ("otdd-sub", {"subsample_b": 4}),
        ("mmd", {}),
        ("euclidean", {}),
    ])
    def test_every_metric_trains(self, metric, extra):
        cfg, _, cache, tgt, emb_spec, emb_params = self._setup(metric, extra)
        _, rec = align_embedder(tgt, cache, emb_spec, emb_params, cfg.align)
        vals = [e["distance"] for e in rec["epochs"][1:]]
        assert all(np.isfinite(v) for v in vals)

    @pytest.mark.parametrize("eps,converged", [(None, True), (1e-4, False)])
    def test_align_records_convergence(self, eps, converged):
        jsonschema = pytest.importorskip("jsonschema")
        cfg, _, cache, tgt, emb_spec, emb_params = self._setup(
            align_overrides={"eps": eps, "epochs": 1})
        _, rec = align_embedder(tgt, cache, emb_spec, emb_params, cfg.align)
        assert rec["converged"] is converged
        jsonschema.validate({**rec, "config": cfg.to_dict()}, report_schema())

    def test_only_embedder_moves(self):
        cfg, _, cache, tgt, emb_spec, emb_params = self._setup()
        names_before = set(emb_params.names())
        aligned, _ = align_embedder(tgt, cache, emb_spec, emb_params, cfg.align)
        assert set(aligned.names()) == names_before
        assert all(n.startswith("embedder.") for n in aligned.names())

    def test_dense_targets_get_pseudolabels(self):
        cfg = small_config()
        tgt = synth_advect1d(n=24, length=16, seed=0)
        emb_spec, emb_params = embedder_for_bundle(tgt, cfg, 0)
        labels = target_labels_for_alignment(tgt, emb_spec, emb_params, 4, seed=0)
        assert labels.shape == (24,)
        assert set(np.unique(labels)) <= set(range(4))

    def test_classification_labels_pass_through(self):
        cfg = small_config()
        tgt = synth_spectra1d(n=24, length=32, seed=0)
        emb_spec, emb_params = embedder_for_bundle(tgt, cfg, 0)
        labels = target_labels_for_alignment(tgt, emb_spec, emb_params, 4, seed=0)
        assert np.array_equal(labels, tgt.labels)


@pytest.mark.parametrize("stage", ["supervised", "align"])
def test_non_finite_loss_stops_before_any_parameter_moves(stage, monkeypatch):
    """The first batch's loss is NaN but its gradient is real, so only the
    loop's check keeps the optimizer from stepping."""
    cfg = small_config(pretrain={"epochs": 1})
    tgt = synth_spectra1d(n=48, length=32, seed=1)
    if stage == "supervised":
        model = assemble_refine_model("scratch", cfg, tgt, None, None, 0)
        params = model.params
        real = pipeline.softmax_ce
        monkeypatch.setattr(pipeline, "softmax_ce",
                            lambda *a: (float("nan"), real(*a)[1]))
        run = lambda: pipeline.train_supervised(model, tgt, None, cfg.refine,
                                                "zero_one_error")
    else:
        src = synth_blobs2d(n=64, size=8, seed=0)
        model, _ = pretrain_source(src, cfg)
        cache, _ = cache_source(model, src, n=64, seed=0)
        emb_spec, params = embedder_for_bundle(tgt, cfg, 0)
        real = pipeline._alignment_loss_grad
        monkeypatch.setattr(pipeline, "_alignment_loss_grad",
                            lambda *a, **k: (float("nan"), *real(*a, **k)[1:]))
        run = lambda: align_embedder(tgt, cache, emb_spec, params, cfg.align)
    before = {n: params[n].copy() for n in params.names()}
    with pytest.raises(RunError, match=r"non-finite loss nan at epoch 1, batch rows \["):
        run()
    for n in params.names():
        assert np.array_equal(params[n], before[n]), n


# b = 6 is larger than the 4-row class 0, so its draws repeat rows
OBJECTIVES = [(m, "full") for m in DISTANCE_METRICS] + [("otdd-sub", 6)]


@pytest.mark.parametrize("metric,b", OBJECTIVES)
def test_alignment_objective_is_the_library(metric, b):
    stage = AlignConfig(distance_metric=metric, subsample_b=b)
    rng = make_rng(31, "objective")
    labels = np.repeat([0, 1], [4, 8])
    z = rng.normal(size=(12, 4)) + 2.0 * labels[:, None]

    # the value is the library function's on the same inputs and seed
    src_labels = np.repeat([0, 1], 8)
    src = LabeledDataset(rng.normal(size=(16, 4)) + src_labels[:, None], src_labels)
    value, grad, _ = _alignment_loss_grad(z, labels, src, stage, step_seed=3)
    zs = src.reduced()
    tgt = LabeledDataset(z, labels)
    if metric == "mmd":
        assert value == mmd(z, zs)
    elif metric == "euclidean":
        assert value == euclidean_align(z, zs, seed=3)
    else:
        if metric == "otdd-sub":
            ref = otdd_subsampled(tgt, src, b=b, seed=3).value
        else:
            ref = otdd(tgt, src, seed=3).value
        assert value == pytest.approx(ref, rel=1e-12, abs=0)
    assert grad.shape == z.shape

    # Finite differences. The envelope gradient is the exact gradient of the
    # OTDD value only where no transport plan moves with the cost, so a
    # one-row source, which fixes every plan by its marginals, checks the
    # gradient's assembly at default settings. The median bandwidth's
    # dependence on z is left out by design (see `mmd_grad`); MMD is checked
    # at a fixed bandwidth instead.
    fd_rng = make_rng(32, "fd")
    if metric == "mmd":
        value, grad = mmd_grad(z, zs, bandwidth=1.5)
        err = fd_check(lambda p: mmd_grad(p["z"], zs, bandwidth=1.5)[0],
                       {"z": z.copy()}, {"z": grad}, fd_rng)
    else:
        point = LabeledDataset(rng.normal(size=(1, 4)), np.array([0]))
        _, grad, converged = _alignment_loss_grad(z, labels, point, stage, step_seed=3)
        assert converged
        err = fd_check(lambda p: _alignment_loss_grad(p["z"], labels, point, stage,
                                                      step_seed=3)[0],
                       {"z": z.copy()}, {"z": grad}, fd_rng)
    assert err < 1e-4


class TestRefine:
    def _ckpt(self):
        cfg = small_config(pretrain={"epochs": 4})
        src = synth_blobs2d(n=64, size=8, seed=0)
        model, _ = pretrain_source(src, cfg)
        return cfg, model.params

    def test_mode_contracts(self):
        cfg, ckpt = self._ckpt()
        tgt = synth_spectra1d(n=24, length=32, seed=1)
        with pytest.raises(ContractError):
            assemble_refine_model("naive_ft", cfg, tgt, None, None, 0)
        with pytest.raises(ContractError):
            assemble_refine_model("orca", cfg, tgt, ckpt, None, 0)
        with pytest.raises(ContractError):
            assemble_refine_model("warp", cfg, tgt, ckpt, None, 0)

    def test_pretrained_body_carried_over(self):
        cfg, ckpt = self._ckpt()
        tgt = synth_spectra1d(n=24, length=32, seed=1)
        m = assemble_refine_model("naive_ft", cfg, tgt, ckpt, None, 0)
        body = [n for n in m.params.names() if n.startswith("body.")]
        for n in body:
            assert np.array_equal(m.params[n], ckpt[n])
            assert m.params.entry(n).provenance == "pretrained"
        s = assemble_refine_model("scratch", cfg, tgt, None, None, 0)
        assert s.params.entry(body[0]).provenance == "randomly-initialized"

    def test_layernorm_modes_freeze_body_weights(self):
        cfg, ckpt = self._ckpt()
        tgt = synth_spectra1d(n=24, length=32, seed=1)
        m = assemble_refine_model("ft_layernorm", cfg, tgt, ckpt, None, 0)
        for n in m.params.names():
            entry = m.params.entry(n)
            if n.startswith("body."):
                assert entry.trainable == (".ln" in n), n
            elif n == "embedder.pos":
                assert not entry.trainable
            else:
                assert entry.trainable, n

    def test_orca_uses_aligned_embedder(self):
        cfg, ckpt = self._ckpt()
        tgt = synth_spectra1d(n=24, length=32, seed=1)
        _, emb = embedder_for_bundle(tgt, cfg, 7)
        marker = emb["embedder.conv.weight"].copy()
        m = assemble_refine_model("orca", cfg, tgt, ckpt, emb, seed=0)
        assert np.array_equal(m.params["embedder.conv.weight"], marker)

    def test_warm_init_provenance(self):
        cfg, ckpt = self._ckpt()
        tgt = synth_spectra1d(n=24, length=32, seed=1)
        m = assemble_refine_model("ft_warm_init", cfg, tgt, ckpt, None, 0)
        assert m.params.entry("embedder.ln.scale").provenance == "warm-init"
        assert np.array_equal(m.params["embedder.ln.scale"],
                              ckpt["body.block0.ln1.scale"])

    def test_refine_applies_train_fraction(self, monkeypatch):
        cfg, ckpt = self._ckpt()
        cfg.refine.train_fraction = 0.25
        tgt = synth_spectra1d(n=32, length=32, seed=1)
        val = synth_spectra1d(n=16, length=32, seed=2)
        trained_on = []
        real = pipeline.train_supervised

        def spy(model, train, *args):
            trained_on.append(train)
            return real(model, train, *args)

        monkeypatch.setattr(pipeline, "train_supervised", spy)
        _, rec = refine(tgt, val, cfg, "naive_ft", checkpoint=ckpt)
        assert rec["mode"] == "naive_ft"
        assert rec["final_metrics"]["zero_one_error"] is not None
        expected = subsample_fraction(tgt, 0.25, cfg.refine.seed)
        assert expected.n == 8
        assert len(trained_on) == 1
        assert np.array_equal(trained_on[0].features, expected.features)
        assert np.array_equal(trained_on[0].labels, expected.labels)

    def test_dense_refine_and_resolution_transfer(self):
        cfg = small_config(model={"head_mode": "dense", "target_seq_len": 32,
                                  "seq_len": 16},
                           refine={"metric": "nrmse", "epochs": 2})
        tgt = synth_advect1d(n=16, length=32, seed=0)
        val = synth_advect1d(n=8, length=32, seed=1)
        model, rec = refine(tgt, val, cfg, "scratch")
        assert rec["final_metrics"]["nrmse"] >= 0
        hi = synth_advect1d(n=8, length=64, seed=1)
        out, _ = model.forward(hi.features[:2])
        assert out.shape == (2, 1, 64)  # k=1 model runs at doubled resolution

    def test_head_mode_must_match_label_kind(self):
        classification = synth_spectra1d(n=24, length=32, seed=1)
        dense = synth_advect1d(n=16, length=32, seed=0)
        dense_cfg = small_config(model={"head_mode": "dense", "target_seq_len": 32})
        cls_cfg = small_config(model={"target_seq_len": 32})
        with pytest.raises(ContractError, match="head_mode"):
            assemble_refine_model("scratch", dense_cfg, classification, None, None, 0)
        with pytest.raises(ContractError, match="head_mode"):
            assemble_refine_model("scratch", cls_cfg, dense, None, None, 0)
        assert assemble_refine_model("scratch", dense_cfg, dense, None, None, 0
                                     ).head_spec.mode == "dense"
        assert assemble_refine_model("scratch", cls_cfg, classification, None, None, 0
                                     ).head_spec.mode == "classification"


@pytest.mark.parametrize("mode", sorted(RUN_MODES))
def test_assembly_follows_the_mode_table(mode):
    """A missing checkpoint or aligned embedder raises exactly when the table
    says the mode uses it, and the assembled model reflects every field."""
    uses = RUN_MODES[mode]
    assert uses.pretrained_body or not uses.aligned_embedder
    cfg = small_config()
    tgt = synth_spectra1d(n=24, length=32, seed=1)
    ckpt = init_body(body_spec_of(cfg), seed=5)
    _, emb = embedder_for_bundle(tgt, cfg, 7)
    for checkpoint, aligned, needed in ((None, emb, uses.pretrained_body),
                                        (ckpt, None, uses.aligned_embedder)):
        if needed:
            with pytest.raises(ContractError, match=f"mode {mode} requires"):
                assemble_refine_model(mode, cfg, tgt, checkpoint, aligned, 0)
        else:
            assemble_refine_model(mode, cfg, tgt, checkpoint, aligned, 0)

    p = assemble_refine_model(mode, cfg, tgt, ckpt, emb, 0).params
    assert (p.entry("body.block0.ln1.scale").provenance == "pretrained") == \
        uses.pretrained_body
    assert np.array_equal(p["embedder.conv.weight"], emb["embedder.conv.weight"]) == \
        uses.aligned_embedder
    assert p.entry("body.block0.attn.wq").trainable == (uses.mask == "full")
    assert (p.entry("embedder.ln.scale").provenance == "warm-init") == uses.warm_init


class TestEvaluate:
    def test_matches_manual_argmax(self):
        cfg = small_config(pretrain={"epochs": 2})
        src = synth_blobs2d(n=32, size=8, seed=0)
        model, _ = pretrain_source(src, cfg)
        err = evaluate(model, src, "zero_one_error")
        out, _ = model.forward(src.features)
        manual = np.mean(np.argmax(out, axis=1) != src.labels)
        assert err == pytest.approx(manual)


class TestEndToEnd:
    def _write_inputs(self, tmp_path):
        from orcakit.bundles import save_bundle

        save_bundle(synth_blobs2d(n=48, size=8, seed=0), tmp_path / "src")
        save_bundle(synth_spectra1d(n=32, length=32, seed=1), tmp_path / "tgt")
        save_bundle(synth_spectra1d(n=16, length=32, seed=2), tmp_path / "val")
        cfg = small_config(pretrain={"epochs": 2}, align={"epochs": 1},
                           refine={"epochs": 1})
        cfg.out_dir = str(tmp_path / "out")
        cfg.paths = {"source_bundle": str(tmp_path / "src"),
                     "target_bundle": str(tmp_path / "tgt"),
                     "val_bundle": str(tmp_path / "val")}
        return cfg

    def test_run_pipeline_orca(self, tmp_path):
        cfg = self._write_inputs(tmp_path)
        model, rec = run_pipeline(cfg, "orca")
        assert rec["mode"] == "orca"
        assert rec["align"] is not None
        assert "zero_one_error" in rec["final_metrics"]
        assert os.path.exists(os.path.join(cfg.out_dir, "checkpoint", "manifest.json"))
        assert os.path.exists(os.path.join(cfg.out_dir, "cache", "manifest.json"))

    def test_run_pipeline_reuses_checkpoint(self, tmp_path):
        cfg = self._write_inputs(tmp_path)
        run_pipeline(cfg, "naive_ft")
        ckpt = os.path.join(cfg.out_dir, "checkpoint", "params.bin")
        before = open(ckpt, "rb").read()
        _, rec = run_pipeline(cfg, "naive_ft")
        assert open(ckpt, "rb").read() == before
        assert rec["align"] is None

    def test_two_runs_share_a_canonical_record(self, tmp_path):
        cfg = self._write_inputs(tmp_path)
        _, first = run_pipeline(cfg, "orca")
        _, second = run_pipeline(cfg, "orca")
        assert canonical_record(first) == canonical_record(second)

    def test_interrupted_checkpoint_is_pretrained_again(self, tmp_path, monkeypatch):
        cfg = self._write_inputs(tmp_path / "run")
        ckpt = os.path.join(cfg.out_dir, "checkpoint")

        def partial_dump(obj, f, **kwargs):
            f.write("{")
            raise OSError("disk full")
        with monkeypatch.context() as m:
            m.setattr(json, "dump", partial_dump)
            with pytest.raises(OSError, match="disk full"):
                run_pipeline(cfg, "naive_ft")
        assert os.path.exists(os.path.join(ckpt, "params.bin"))
        assert not os.path.exists(os.path.join(ckpt, "manifest.json"))
        run_pipeline(cfg, "naive_ft")
        clean = self._write_inputs(tmp_path / "clean")
        run_pipeline(clean, "naive_ft")
        for name in ("manifest.json", "params.bin"):
            assert (open(os.path.join(ckpt, name), "rb").read()
                    == open(os.path.join(clean.out_dir, "checkpoint", name), "rb").read())

    @pytest.mark.parametrize("mode,written", [("scratch", set()),
                                              ("naive_ft", {"checkpoint"})])
    def test_run_pipeline_prepares_only_what_the_mode_uses(self, tmp_path, mode, written):
        cfg = self._write_inputs(tmp_path)
        _, rec = run_pipeline(cfg, mode)
        assert rec["align"] is None
        assert {d for d in ("checkpoint", "cache")
                if os.path.exists(os.path.join(cfg.out_dir, d))} == written

    def test_sweep_grid_and_thread_invariance(self, tmp_path, monkeypatch):
        cfg = self._write_inputs(tmp_path)
        src = synth_blobs2d(n=48, size=8, seed=0)
        model, _ = pretrain_source(src, cfg)
        tgt = synth_spectra1d(n=32, length=32, seed=1)
        val = synth_spectra1d(n=16, length=32, seed=2)
        monkeypatch.setenv("ORCAKIT_THREADS", "1")
        assert worker_count() == 1
        serial = sweep_train_fraction(cfg, [0.5, 1.0], ["naive_ft"], [0, 1],
                                      tgt, val, model.params)
        monkeypatch.setenv("ORCAKIT_THREADS", "4")
        parallel = sweep_train_fraction(cfg, [0.5, 1.0], ["naive_ft"], [0, 1],
                                        tgt, val, model.params)
        assert len(serial) == 4
        assert serial == parallel

    def test_sweep_empty_fractions_rejected(self, tmp_path):
        cfg = self._write_inputs(tmp_path)
        with pytest.raises(ContractError):
            sweep_train_fraction(cfg, [], ["naive_ft"], [0], None, None, None)


def _attribute_chain(node):
    """["a", "b", "c"] for an attribute chain `a.b.c` rooted at a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if parts and isinstance(node, ast.Name) else None


def test_benchmark_traced_names_exist():
    """The benchmark tracer wraps these orcakit attributes at `install()`, and
    its workload reads every `<module>.<name>` chain found below; a benchmark
    run fails on any one that is gone."""
    bench = Path(__file__).resolve().parents[1] / "benchmarks"
    spec = importlib.util.spec_from_file_location("benchmark_tracer", bench / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for mod_name, attrs in tracer.FUNCTIONS.items():
        module = importlib.import_module(f"orcakit.{mod_name}")
        for attr in attrs:
            assert callable(getattr(module, attr, None)), f"orcakit.{mod_name}.{attr}"
    for mod_name, cls_name, meth in tracer.METHODS:
        cls = getattr(importlib.import_module(f"orcakit.{mod_name}"), cls_name)
        assert meth in vars(cls), f"orcakit.{mod_name}.{cls_name}.{meth}"

    tree = ast.parse((bench / "workload.py").read_text())
    aliases, read = {}, []  # read: (orcakit module, attribute chain)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "orcakit":
            aliases.update((a.asname or a.name, f"orcakit.{a.name}") for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("orcakit."):
            read += [(node.module, [a.name]) for a in node.names]
    for node in ast.walk(tree):
        chain = _attribute_chain(node)
        if chain and chain[0] in aliases:
            read.append((aliases[chain[0]], chain[1:]))
    assert aliases and read, "found no orcakit reads in workload.py"
    for module, chain in read:
        obj = importlib.import_module(module)
        for attr in chain:
            assert hasattr(obj, attr), f"{module}.{'.'.join(chain)}"
            obj = getattr(obj, attr)
