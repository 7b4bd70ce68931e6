"""One benchmark workload in one process: set-up, timed phase, output checks.

`run.py` starts this file as a fresh process per run:

    python3 benchmarks/workload.py --workload align-desk --seed 0 --seconds 10 \
        --trace 0 --size full --result benchmarks/out/x.json

It writes one JSON document to --result (and the span list next to it when
--trace 1). Inputs come only from --seed; the program's configs are fixed.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
if not (SRC / "orcakit" / "__init__.py").is_file():
    raise SystemExit(f"no orcakit sources under {SRC}")
sys.path.insert(0, str(SRC))

import orcakit  # noqa: E402
from orcakit import bundles, distances, models, ot, pipeline  # noqa: E402
from orcakit.config import ExperimentConfig  # noqa: E402
from orcakit.errors import OrcaError  # noqa: E402

from checks import Checks  # noqa: E402
from tracer import Tracer  # noqa: E402

if Path(orcakit.__file__).resolve().parent != (SRC / "orcakit").resolve():
    raise SystemExit(f"imported orcakit from {orcakit.__file__}, not {SRC}")

# Desk config of tests/test_acceptance.py, except refine epochs (30 there).
# Ten refine epochs keep a refine-sweep run near 40 s, so that 70 runs over
# the three workloads fit in an hour.
DESK = {
    "pretrain": {"epochs": 25, "batch_size": 32, "lr": 3e-3, "schedule_period": 100},
    "align": {"epochs": 10, "batch_size": 32, "lr": 1e-3, "distance_metric": "otdd"},
    "refine": {"epochs": 10, "lr": 3e-3, "schedule": "linear", "warmup_epochs": 3,
               "batch_size": 16},
}


EVAL_PASSES = 10             # timed evaluate() passes over the validation set


@dataclass(frozen=True)
class Size:
    source_rows: int
    target_rows: int
    val_rows: int
    desk_cache_rows: int
    big_cache_rows: int
    epochs: dict              # stage -> epochs override
    calls_cap: int            # cap on timed otdd calls and evaluate passes
    quality_checks: bool      # checks that need the full-size training runs


SIZES = {
    "full": Size(256, 128, 96, 256, 5000, {}, calls_cap=EVAL_PASSES, quality_checks=True),
    # the self-test's reduced size: every code path, none of the learning
    "small": Size(48, 32, 24, 48, 400, {"pretrain": 1, "align": 1, "refine": 2},
                  calls_cap=1, quality_checks=False),
}


@dataclass(frozen=True)
class Workload:
    name: str
    big_cache: bool           # align to a cache_source pass over a fresh large draw
    align_in_setup: bool      # one alignment in set-up instead of timed rounds
    fractions: tuple
    modes: tuple
    otdd_calls: int           # timed exact otdd calls (about 0.2 s each at 256 rows, 1.4 s at 5000)
    # Target draws aligned per run. Sinkhorn work per alignment varies by
    # about 10% between draws, so align-desk and refine-sweep, whose
    # alignments take 4-5 s, average two; a 5000-row one takes 15 s, so
    # align-bigcache makes one.
    align_targets: int


WORKLOADS = {w.name: w for w in [
    Workload("align-desk", False, False, (0.1,), ("orca", "naive_ft"), 8, 2),
    Workload("align-bigcache", True, False, (0.1,), ("orca", "naive_ft"), 3, 1),
    Workload("refine-sweep", False, True, (0.1, 1.0), ("orca", "naive_ft"), 8, 2),
]}


# The source draw, and so the pretrained body and its 256-row cache, is the
# same in every run: bodies pretrained on different draws change the
# alignment's Sinkhorn work by up to 20%. --seed draws the target side.
SOURCE_SEED = 0


def input_seeds(seed: int) -> dict:
    state = [int(s) for s in np.random.SeedSequence(seed).generate_state(4)]
    return {"source": SOURCE_SEED, "targets": state[:2], "val": state[2],
            "cache_draw": state[3]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def environment() -> dict:
    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
    except (TypeError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "cpu_count": os.cpu_count(),
        "ORCAKIT_THREADS": os.environ.get("ORCAKIT_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "sweep_workers": pipeline.worker_count(),
    }


class Aborted(Exception):
    """An operation raised one of the program's own errors; the phase stops."""


class Ops:
    """Counts operations attempted and failed; a failure aborts the phase."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, n, fn, *args, **kwargs):
        self.attempted += n
        try:
            return fn(*args, **kwargs)
        except OrcaError as exc:
            self.failed += n
            print(f"operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            raise Aborted from exc


class Digest:
    """Hash of the program's outputs, compared between traced and untraced runs."""

    def __init__(self):
        self.h = hashlib.sha256()

    def add(self, label, value):
        self.h.update(label.encode())
        if isinstance(value, np.ndarray):
            self.h.update(str((value.dtype.str, value.shape)).encode())
            self.h.update(np.ascontiguousarray(value).tobytes())
        else:
            self.h.update(json.dumps(value, sort_keys=True).encode())

    def params(self, label, params):
        for name in params.names():
            self.add(f"{label}.{name}", params[name])


def run(args) -> dict:
    wl = WORKLOADS[args.workload]
    size = SIZES[args.size]
    seeds = input_seeds(args.seed)
    cfg_data = {k: {**v, **({"epochs": size.epochs[k]} if k in size.epochs else {})}
                for k, v in DESK.items()}
    cfg = ExperimentConfig.from_dict(cfg_data)
    cache_rows = size.big_cache_rows if wl.big_cache else size.desk_cache_rows

    checks = Checks(ot.MARGINAL_TOL)
    tracer = None
    if args.trace:
        tracer = Tracer(outer_cols=cache_rows, checker=checks)
        tracer.install()
    ops = Ops()
    digest = Digest()
    details = {"orcakit": orcakit.__version__, "input_seeds": seeds,
               "config": cfg.to_dict(), "cache_rows": cache_rows}

    work = Path(args.result).resolve().parent / f"tmp-{os.getpid()}"
    try:
        t_setup = time.perf_counter()
        setup = _setup(wl, size, seeds, cfg, cache_rows, work, checks, digest, details)
        setup_s = time.perf_counter() - t_setup
        details["peak_rss_mb_after"] = {"setup": peak_rss_mb()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    t_timed = time.perf_counter()
    timed = {"align_s": [], "otdd_s": [], "sweep_s": None, "eval_s": []}
    try:
        _timed(args, wl, size, cfg, setup, timed, checks, digest, ops, details)
    except Aborted:
        details["aborted"] = True
    details["timed_s"] = time.perf_counter() - t_timed

    if tracer is not None:
        tracer.uninstall()
    align_s = setup["align_s"] if wl.align_in_setup else timed["align_s"]
    align_samples = cfg.align.epochs * setup["target"].n
    e2e = {
        "setup_s": (setup_s, "s"),
        "align_samples_per_s": (align_samples / statistics.median(align_s), "samples/s")
        if align_s else None,
        "otdd_ms": (1e3 * statistics.median(timed["otdd_s"]), "ms")
        if timed["otdd_s"] else None,
        "refine_samples_per_s": (timed["refine_samples"] / timed["sweep_s"], "samples/s")
        if timed["sweep_s"] else None,
        "infer_samples_per_s": (setup["val"].n / statistics.median(timed["eval_s"]),
                                "samples/s") if timed["eval_s"] else None,
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    details.update(align_round_s=align_s, otdd_call_s=timed["otdd_s"],
                   sweep_s=timed["sweep_s"], eval_pass_s=timed["eval_s"],
                   plans_checked=checks.plans_checked, otdd_checked=checks.otdd_checked,
                   worst_marginal_error=checks.worst_marginal)
    result = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "correct": not checks.failures,
        "attempted": ops.attempted, "failed": ops.failed,
        "checks_failed": checks.failures,
        "e2e": {k: {"value": v[0], "unit": v[1]} for k, v in e2e.items() if v is not None},
        "layers": None,
        "digest": digest.h.hexdigest(),
        "environment": environment(),
        "details": details,
    }
    if tracer is not None:
        result["layers"] = {k: {"value": v, "unit": u}
                            for k, (v, u) in tracer.layer_metrics().items()}
        spans = Path(args.result).with_suffix(".spans.jsonl")
        tracer.write_spans(spans)
        result["spans_file"] = spans.name
        result["span_count"] = len(tracer.spans)
    return result


def _setup(wl, size, seeds, cfg, cache_rows, work, checks, digest, details):
    """Inputs, source pretraining and the source cache, through the same
    bundle and checkpoint files the CLI stages use."""
    made = {
        "source": bundles.synth_task("blobs2d", seed=seeds["source"],
                                     n=size.source_rows, size=16),
        "val": bundles.synth_task("spectra1d", seed=seeds["val"],
                                  n=size.val_rows, length=128),
    }
    for i, tseed in enumerate(seeds["targets"][: wl.align_targets]):
        made[f"target{i}"] = bundles.synth_task("spectra1d", seed=tseed,
                                                n=size.target_rows, length=128)
    if wl.big_cache:
        made["draw"] = bundles.synth_task("blobs2d", seed=seeds["cache_draw"],
                                          n=cache_rows, size=16)
    paths = {k: str(work / k) for k in [*made, "ckpt", "cache"]}
    loaded = {}
    for key, bundle in made.items():
        bundles.save_bundle(bundle, paths[key])
        loaded[key] = bundles.load_bundle(paths[key])
    source, val = loaded["source"], loaded["val"]
    targets = [loaded[f"target{i}"] for i in range(wl.align_targets)]
    target = targets[0]

    model, prec = pipeline.pretrain_source(source, cfg, out_dir=paths["ckpt"])
    val_err = prec["final_metrics"]["val_zero_one_error"]
    details["source_val_error"] = val_err
    if size.quality_checks:
        checks.require(val_err < 0.1, f"source body validation error {val_err} >= 0.1")
    ckpt, _meta = models.ParameterSet.load(paths["ckpt"])
    digest.add("pretrain.epochs", prec["epochs"])
    digest.params("checkpoint", ckpt)

    emb_spec, _ = pipeline.embedder_for_bundle(source, cfg, cfg.pretrain.seed)
    body_spec = pipeline.body_spec_of(cfg)
    src_model = models.Model(emb_spec, body_spec,
                             pipeline.head_for_bundle(source, emb_spec, cfg), ckpt)
    draw = loaded.get("draw", source)
    pipeline.cache_source(src_model, draw, n=cache_rows, seed=0, out_path=paths["cache"])
    cache = bundles.load_bundle(paths["cache"])
    digest.add("cache.features", cache.features)

    out = {"source": source, "target": target, "targets": targets, "val": val, "ckpt": ckpt,
           "cache": cache, "cache_ds": pipeline.cache_dataset(cache),
           "align_s": [], "aligned": None, "align_record": None}
    if wl.align_in_setup:
        for k, tgt in enumerate(targets):
            t0 = time.perf_counter()
            aligned, arec = _align(cfg, tgt, cache)
            out["align_s"].append(time.perf_counter() - t0)
            _check_align(arec, size, checks, details)
            if k == 0:
                out["aligned"], out["align_record"] = aligned, arec
                digest.add("align.epochs", arec["epochs"])
                digest.params("aligned", aligned)
    return out


def _align(cfg, target, cache):
    emb_spec, emb_params = pipeline.embedder_for_bundle(target, cfg, cfg.align.seed)
    return pipeline.align_embedder(target, cache, emb_spec, emb_params, cfg.align)


def _check_align(arec, size, checks, details):
    first = arec["final_metrics"]["initial_otdd"]
    last = arec["final_metrics"]["final_otdd"]
    details.setdefault("align_otdd", []).append([first, last])
    if size.quality_checks:
        checks.require(last < 0.5 * first,
                       f"alignment took OTDD from {first:.4g} to {last:.4g}, not below half")


def _embed(emb_spec, params, features):
    """Sequence-mean embeddings, batched as align_embedder's exact evaluation."""
    out = []
    for i in range(0, features.shape[0], 64):
        seq, _ = models.embedder_forward(emb_spec, params, features[i : i + 64])
        out.append(seq.mean(axis=1))
    return np.concatenate(out, axis=0)


def _timed(args, wl, size, cfg, setup, timed, checks, digest, ops, details):
    target, val, cache = setup["target"], setup["val"], setup["cache"]
    cache_ds, ckpt = setup["cache_ds"], setup["ckpt"]
    t_start = time.perf_counter()

    # alignment rounds from a fresh embedder, cycling through the target
    # draws, until --seconds have passed and every draw has had a round; a
    # traced run makes one round per draw, so its per-layer counts are fixed
    aligned, arec = setup["aligned"], setup["align_record"]
    if not wl.align_in_setup:
        targets = setup["targets"]
        steps = cfg.align.epochs * -(-target.n // cfg.align.batch_size)
        first = {}
        for r in itertools.count():
            k = r % len(targets)
            t0 = time.perf_counter()
            emb, rec = ops.run(steps + cfg.align.epochs + 1, _align, cfg, targets[k], cache)
            timed["align_s"].append(time.perf_counter() - t0)
            if k in first:
                checks.require(rec["epochs"] == first[k]["epochs"],
                               "align rounds from the same inputs disagree")
            else:
                first[k] = rec
                _check_align(rec, size, checks, details)
            if r == 0:
                aligned, arec = emb, rec
                digest.add("align.epochs", arec["epochs"])
                digest.params("aligned", aligned)
            if r + 1 >= len(targets) and (
                    args.trace or time.perf_counter() - t_start >= args.seconds):
                break
    details["peak_rss_mb_after"]["align"] = peak_rss_mb()

    # refinement: the sweep on the default thread pool
    seed = cfg.refine.seed
    cells = [(f, m) for f in wl.fractions for m in wl.modes]
    t0 = time.perf_counter()
    rows = ops.run(len(cells), pipeline.sweep_train_fraction, cfg, list(wl.fractions),
                   list(wl.modes), [seed], target, val, ckpt, {seed: aligned})
    timed["sweep_s"] = time.perf_counter() - t0
    details["peak_rss_mb_after"]["sweep"] = peak_rss_mb()
    timed["refine_samples"] = sum(
        cfg.refine.epochs * pipeline.subsample_fraction(target, f, seed).n for f, _ in cells)
    details["sweep_rows"] = rows
    digest.add("sweep", rows)
    if size.quality_checks:
        majority = np.bincount(val.labels, minlength=val.classes).max() / val.n
        for row in rows:
            if row["fraction"] == 1.0:
                checks.require(1.0 - row["metric"] > majority,
                               f"{row['mode']} at fraction 1.0: accuracy "
                               f"{1.0 - row['metric']:.4g} <= majority rate {majority:.4g}")

    # the cheapest cell again, serially: results must not depend on threads
    cheap = min(rows, key=lambda r: r["fraction"])
    cell_cfg = ExperimentConfig.from_dict({
        **cfg.to_dict(),
        "refine": {**cfg.refine.to_dict(), "train_fraction": cheap["fraction"],
                   "seed": seed}})
    model, rec = ops.run(1, pipeline.refine, target, val, cell_cfg, cheap["mode"],
                         checkpoint=ckpt, aligned_embedder=aligned, seed=seed)
    refined_metric = rec["epochs"][-1]["metric"]
    checks.require(refined_metric == cheap["metric"],
                   f"serial rerun of {cheap['fraction']}/{cheap['mode']} gives "
                   f"{refined_metric!r}, sweep gave {cheap['metric']!r}")
    details["last_two_refine_metrics"] = [e["metric"] for e in rec["epochs"][-2:]]

    # latency block: exact otdd calls on the aligned embeddings and
    # forward-only evaluate passes, alternated so both sample the whole block
    emb_spec, _ = pipeline.embedder_for_bundle(target, cfg, cfg.align.seed)
    ds = distances.LabeledDataset(_embed(emb_spec, aligned, target.features),
                                  target.labels.astype(np.int64))
    n_otdd = min(wl.otdd_calls, size.calls_cap)
    n_eval = min(EVAL_PASSES, size.calls_cap)
    batches = -(-val.n // 64)
    otdd_values, eval_values = [], []
    for i in range(max(n_otdd, n_eval)):
        if i < n_otdd:
            t0 = time.perf_counter()
            rep = ops.run(1, distances.otdd, ds, cache_ds, eps=cfg.align.eps,
                          seed=cfg.align.seed)
            timed["otdd_s"].append(time.perf_counter() - t0)
            otdd_values.append(rep.value)
        if i < n_eval:
            t0 = time.perf_counter()
            eval_values.append(ops.run(batches, pipeline.evaluate, model, val,
                                       "zero_one_error"))
            timed["eval_s"].append(time.perf_counter() - t0)

    final_otdd = arec["final_metrics"]["final_otdd"]
    checks.require(set(otdd_values) == {final_otdd},
                   f"exact otdd values {otdd_values} != align record's final {final_otdd!r}")
    checks.otdd_value(ds, cache_ds, otdd_values[0])
    digest.add("otdd", otdd_values[0])
    checks.require(set(eval_values) == {refined_metric},
                   f"evaluate values {eval_values} != refine record {refined_metric!r}")
    logits = np.concatenate([model.forward(val.features[i : i + 64])[0]
                             for i in range(0, val.n, 64)])
    checks.zero_one(logits, val.labels, eval_values[0], "refined model")
    digest.add("eval", eval_values[0])
    digest.add("logits", logits)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full")
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)
    result = run(args)
    tmp = args.result + ".part"
    with open(tmp, "w") as f:
        json.dump(result, f, indent=1, default=float)
        f.write("\n")
    os.replace(tmp, args.result)


if __name__ == "__main__":
    main()
