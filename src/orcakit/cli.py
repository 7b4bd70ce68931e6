"""Command-line surface; every command maps onto one pipeline or report
operation. Exit codes: 0 success, 1 contract/usage error, 2 numeric/run error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .bundles import load_bundle, load_csv, save_bundle, synth_task
from .config import DISTANCE_METRICS, RUN_MODES, ExperimentConfig
from .distances import LabeledDataset, euclidean_align, mmd, otdd, otdd_subsampled
from .errors import ContractError, OrcaError
from .models import ParameterSet
from .pipeline import (
    align_embedder,
    cache_source,
    embedder_for_bundle,
    evaluate,
    pretrain_source,
    refine,
    run_pipeline,
    _source_model,
    sweep_train_fraction,
)
from .report import performance_profile, write_report

_MODE_NAMES = {m.replace("_", "-"): m for m in RUN_MODES}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _flat_features(bundle):
    return bundle.features.reshape(bundle.n, -1).astype(np.float64)


def _labeled(bundle):
    if bundle.label_kind != "classification":
        raise OrcaError("OTDD on the CLI requires classification bundles")
    return LabeledDataset(_flat_features(bundle), bundle.labels.astype(np.int64))


def cmd_synth(args):
    params = {}
    for key in ("n", "size", "length", "classes", "noise", "beta"):
        if getattr(args, key) is not None:
            params[key] = getattr(args, key)
    bundle = synth_task(args.kind, seed=args.seed, **params)
    save_bundle(bundle, args.out)
    print(json.dumps({"kind": args.kind, "n": bundle.n, "out": args.out}))
    return 0


def cmd_distance(args):
    a = load_bundle(args.a)
    b = load_bundle(args.b)
    if args.metric in ("otdd", "otdd-gaussian"):
        mode = "gaussian" if args.metric == "otdd-gaussian" else "exact"
        rep = otdd(_labeled(a), _labeled(b), mode=mode, eps=args.eps, seed=args.seed)
    elif args.metric == "otdd-sub":
        rep = otdd_subsampled(_labeled(a), _labeled(b), b=args.subsample_b,
                              rounds=args.subsample_rounds, eps=args.eps,
                              seed=args.seed)
    elif args.metric == "mmd":
        val = mmd(_flat_features(a), _flat_features(b))
        print(json.dumps({"metric": "mmd", "value": val}))
        return 0
    elif args.metric == "euclidean":
        val = euclidean_align(_flat_features(a), _flat_features(b), seed=args.seed)
        print(json.dumps({"metric": "euclidean", "value": val}))
        return 0
    print(json.dumps(rep.to_dict()))
    return 0


def cmd_pretrain(args):
    cfg = _config(args)
    source = load_bundle(cfg.paths["source_bundle"])
    ckpt = cfg.path("checkpoint")
    _model, record = pretrain_source(source, cfg, out_dir=ckpt)
    write_report(record, cfg.out_dir)
    print(json.dumps({"checkpoint": ckpt,
                      "val_zero_one_error": record["final_metrics"]["val_zero_one_error"]}))
    return 0


def cmd_cache_source(args):
    cfg = _config(args)
    source = load_bundle(cfg.paths["source_bundle"])
    params, _meta = ParameterSet.load(cfg.path("checkpoint"))
    model = _source_model(cfg, source, params)
    out = cfg.path("cache")
    cache, flags = cache_source(model, source, n=args.n, seed=cfg.seed, out_path=out)
    print(json.dumps({"cache": out, "rows": cache.n, "flags": flags}))
    return 0


def cmd_align(args):
    cfg = _config(args)
    target = load_bundle(cfg.paths["target_bundle"])
    cache = load_bundle(cfg.path("cache"))
    emb_spec, emb_params = embedder_for_bundle(target, cfg, cfg.align.seed)
    emb_params, record = align_embedder(target, cache, emb_spec, emb_params, cfg.align)
    out = cfg.path("aligned_embedder")
    emb_params.save(out, meta={"embedder_spec": emb_spec.to_dict()})
    record["config"] = cfg.to_dict()
    write_report(record, cfg.out_dir)
    print(json.dumps({"aligned_embedder": out,
                      "initial_otdd": record["final_metrics"]["initial_otdd"],
                      "final_otdd": record["final_metrics"]["final_otdd"]}))
    return 0


def _refine_inputs(cfg, modes):
    """Target and val bundles; the checkpoint and aligned embedder if any of `modes` uses them."""
    target = load_bundle(cfg.paths["target_bundle"])
    val = load_bundle(cfg.paths["val_bundle"]) if cfg.paths.get("val_bundle") else None
    checkpoint = aligned = None
    if any(RUN_MODES[m].pretrained_body for m in modes):
        checkpoint, _ = ParameterSet.load(cfg.path("checkpoint"))
    if any(RUN_MODES[m].aligned_embedder for m in modes):
        aligned, _ = ParameterSet.load(cfg.path("aligned_embedder"))
    return target, val, checkpoint, aligned


def cmd_refine(args):
    cfg = _config(args)
    mode = _MODE_NAMES[args.mode]
    target, val, checkpoint, aligned = _refine_inputs(cfg, [mode])
    model, record = refine(target, val, cfg, mode, checkpoint=checkpoint,
                           aligned_embedder=aligned, seed=args.seed)
    eval_path = args.eval_bundle or cfg.paths.get("eval_bundle")
    if eval_path:
        ev = load_bundle(eval_path)
        record["final_metrics"][f"eval_{cfg.refine.metric}"] = evaluate(
            model, ev, cfg.refine.metric)
    record["config"] = cfg.to_dict()
    write_report(record, cfg.out_dir)
    print(json.dumps({"mode": mode, "final_metrics": record["final_metrics"]}))
    return 0


def cmd_pipeline(args):
    cfg = _config(args)
    mode = _MODE_NAMES[args.mode] if args.mode else cfg.mode
    _model, record = run_pipeline(cfg, mode)
    write_report(record, cfg.out_dir)
    print(json.dumps({"mode": mode, "final_metrics": record["final_metrics"],
                      "out": cfg.out_dir}))
    return 0


def _list_flag(flag, text, parse):
    """The comma-separated values of `--flag`, each read by `parse`."""
    values = []
    for item in text.split(","):
        try:
            values.append(parse(item))
        except (KeyError, ValueError):
            raise ContractError(f"--{flag}: cannot read {item!r}") from None
    return values


def cmd_sweep(args):
    cfg = _config(args)
    fractions = _list_flag("fractions", args.fractions, float)
    modes = _list_flag("modes", args.modes, _MODE_NAMES.__getitem__)
    seeds = _list_flag("seeds", args.seeds, int)
    target, val, checkpoint, aligned = _refine_inputs(cfg, modes)
    rows = sweep_train_fraction(cfg, fractions, modes, seeds, target, val,
                                checkpoint, {s: aligned for s in seeds})
    os.makedirs(cfg.out_dir, exist_ok=True)
    out = os.path.join(cfg.out_dir, "sweep.json")
    with open(out, "w") as f:
        json.dump(rows, f, indent=1, sort_keys=True)
        f.write("\n")
    print(json.dumps({"rows": len(rows), "out": out}))
    return 0


def cmd_profile(args):
    with open(args.errors) as f:
        data = json.load(f)
    curves = performance_profile(data["errors"], data.get("methods"))
    os.makedirs(args.out, exist_ok=True)
    out = os.path.join(args.out, "profiles.csv")
    with open(out, "w") as f:
        f.write("method,tau,rho\n")
        for c in curves:
            for t, r in zip(c.tau, c.rho):
                f.write(f"{c.method},{float(t)!r},{float(r)!r}\n")
    print(json.dumps({"methods": [c.method for c in curves], "out": out}))
    return 0


def cmd_ingest_csv(args):
    bundle = load_csv(args.csv, label_column=args.label_column)
    save_bundle(bundle, args.out)
    print(json.dumps({"rows": bundle.n, "classes": bundle.classes, "out": args.out}))
    return 0


def _config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.load(args.config)
    if getattr(args, "out", None):
        cfg.out_dir = args.out
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "metric", None):
        cfg.align = replace(cfg.align, distance_metric=args.metric)
    if getattr(args, "train_fraction", None) is not None:
        cfg.refine = replace(cfg.refine, train_fraction=args.train_fraction)
    return cfg


def build_parser() -> _Parser:
    p = _Parser(prog="orcakit", description="align-then-refine cross-modal workflow")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("synth", help="generate a synthetic task bundle")
    sp.add_argument("--kind", required=True, choices=["blobs2d", "spectra1d", "advect1d"])
    sp.add_argument("--out", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--size", type=int, default=None)
    sp.add_argument("--length", type=int, default=None)
    sp.add_argument("--classes", type=int, default=None)
    sp.add_argument("--noise", type=float, default=None)
    sp.add_argument("--beta", type=float, default=None)
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("distance", help="distance between two bundles")
    sp.add_argument("--metric", required=True, choices=DISTANCE_METRICS)
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--subsample-b", type=int, default=8)
    sp.add_argument("--subsample-rounds", type=int, default=1)
    sp.set_defaults(func=cmd_distance)

    sp = sub.add_parser("pretrain", help="pretrain the source model")
    add_common(sp)
    sp.set_defaults(func=cmd_pretrain)

    sp = sub.add_parser("cache-source", help="cache embedded source features")
    add_common(sp)
    sp.add_argument("--seed", type=int, default=None, help="cache draw seed")
    sp.add_argument("--n", type=int, default=None,
                    help="rows to cache (default: min(5000, source rows))")
    sp.set_defaults(func=cmd_cache_source)

    sp = sub.add_parser("align", help="stage 2: embedder alignment")
    add_common(sp)
    sp.add_argument("--metric", choices=DISTANCE_METRICS)
    sp.set_defaults(func=cmd_align)

    sp = sub.add_parser("refine", help="stage 3: fine-tune on the target task")
    add_common(sp)
    sp.add_argument("--seed", type=int, default=None, help="refine seed")
    sp.add_argument("--mode", required=True, choices=sorted(_MODE_NAMES))
    sp.add_argument("--train-fraction", type=float, default=None)
    sp.add_argument("--eval-bundle", default=None)
    sp.set_defaults(func=cmd_refine)

    sp = sub.add_parser("pipeline", help="stages 1-3 end to end")
    add_common(sp)
    sp.add_argument("--seed", type=int, default=None, help="cache draw seed")
    sp.add_argument("--mode", choices=sorted(_MODE_NAMES), default=None)
    sp.set_defaults(func=cmd_pipeline)

    sp = sub.add_parser("sweep", help="train-fraction x mode x seed grid")
    add_common(sp)
    sp.add_argument("--fractions", default="0.1,1.0")
    sp.add_argument("--modes", default="orca,naive-ft")
    sp.add_argument("--seeds", default="0,1,2,3,4")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("profile", help="Dolan-More performance profiles")
    sp.add_argument("--errors", required=True,
                    help="JSON file with an 'errors' method x task matrix")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_profile)

    sp = sub.add_parser("ingest-csv", help="CSV -> tensor bundle")
    sp.add_argument("--csv", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--label-column", default=None)
    sp.set_defaults(func=cmd_ingest_csv)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OrcaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
