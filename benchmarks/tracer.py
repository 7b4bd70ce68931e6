"""Span tracer that wraps orcakit's public functions from outside the package.

`Tracer.install()` replaces module attributes (and the few methods the
benchmark times) with wrappers that record one span per call. A name bound
into another module by `from .x import y` is the same function object, so
every orcakit module attribute that is that object gets the wrapper too.

Each thread keeps its own span stack, because sweep cells run on pool
threads. A span's self time is its duration minus the part its child spans
cover. Spans are held in memory and written out by `write_spans` at the end.
Counter hooks run after a span closes; their time is charged to the parent
span as hidden child time, so it appears in no self time.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

import numpy as np

# (module, attribute) pairs wrapped as plain functions; the span name is
# "<module>.<attribute>".
FUNCTIONS = {
    "ot": ["sinkhorn_log"],
    "distances": ["otdd", "otdd_grad", "label_distance_matrix",
                  "fit_label_conditionals"],
    "tensor": ["pairwise_sq_dists"],
    "nn": ["linear_fw", "linear_bw", "layernorm_fw", "layernorm_bw",
           "gelu_fw", "gelu_bw", "attention_fw", "attention_bw"],
    "models": ["embedder_forward", "embedder_backward", "body_forward",
               "body_backward", "head_forward", "head_backward"],
    "pipeline": ["evaluate", "refine", "sweep_train_fraction", "align_embedder",
                 "pretrain_source", "cache_source"],
    "bundles": ["save_bundle", "load_bundle"],
}

# (module, class, method) triples wrapped on the class.
METHODS = [
    ("models", "ParameterSet", "save"),
    ("models", "ParameterSet", "load"),
    ("pipeline", "Optimizer", "step"),
]


class Tracer:
    """Records spans and counters for one process; install once, read at the end.

    `outer_cols` is the source cache's row count: a Sinkhorn solve whose
    column count equals it is an outer (batch x cache) solve, any other is a
    class-pair solve. `checker` receives every converged plan and every otdd
    result so the benchmark can verify them against its own arithmetic.
    """

    def __init__(self, outer_cols: int, checker=None):
        self.outer_cols = outer_cols
        self.checker = checker
        self.spans = []             # (id, parent id, name, thread id, start, end, self)
        self.counters = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._restore = []          # (owner, attribute, original) for uninstall
        self._sweep_depth = 0

    # -- span bookkeeping -------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key, value):
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + value

    def _wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            frame = [next(tracer._ids), time.perf_counter(), 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - frame[1]
                self_s = dur - frame[2]
                tracer.spans.append((frame[0], parent[0] if parent else 0, name,
                                     threading.get_ident(), frame[1], end, self_s))
                if parent is not None:
                    parent[2] += dur
            if after is not None:
                t0 = time.perf_counter()
                after(args, kwargs, out, dur, self_s)
                if parent is not None:
                    parent[2] += time.perf_counter() - t0
            return out

        return traced

    # -- per-layer counters -----------------------------------------------

    def _after_sinkhorn(self, args, kwargs, plan, dur, self_s):
        cost = np.asarray(args[0])
        n, m = cost.shape
        kind = "outer" if m == self.outer_cols else "pair"
        self.add(f"{kind}.calls", 1)
        self.add(f"{kind}.self_s", self_s)
        self.add(f"{kind}.iters", plan.iterations)
        self.add("cell_iters", n * m * plan.iterations)
        if not plan.converged:
            self.add("unconverged", 1)
        elif self.checker is not None:
            a = kwargs.get("a", args[1] if len(args) > 1 else None)
            b = kwargs.get("b", args[2] if len(args) > 2 else None)
            self.checker.plan(plan.matrix, a, b)

    def _after_otdd(self, args, kwargs, report, dur, self_s):
        if self.checker is not None:
            tgt = kwargs.get("tgt", args[0] if args else None)
            src = kwargs.get("src", args[1] if len(args) > 1 else None)
            self.checker.otdd_value(tgt, src, report.value)

    def _after_embedder_fw(self, args, kwargs, out, dur, self_s):
        x = kwargs.get("x", args[2] if len(args) > 2 else None)
        self._local.batch_dtype = np.asarray(x).dtype

    def _after_linear_fw(self, args, kwargs, out, dur, self_s):
        x, w = args[0], args[1]
        rows = int(np.prod(x.shape[:-1]))
        self.add("linear.calls", 1)
        self.add("linear.flop", 2 * rows * w.shape[0] * w.shape[1])
        if (x.dtype == np.float64
                and getattr(self._local, "batch_dtype", None) == np.float32):
            self.add("linear.f64_calls", 1)

    def _after_linear_bw(self, args, kwargs, out, dur, self_s):
        x, w = args[1]
        rows = int(np.prod(x.shape[:-1]))
        self.add("linear.flop", 4 * rows * w.shape[0] * w.shape[1])

    def _after_refine(self, args, kwargs, out, dur, self_s):
        if self._sweep_depth:
            self.add("sweep.cell_s", dur)

    def _wrap_sweep(self, fn):
        tracer = self
        inner = self._wrap("pipeline.sweep_train_fraction", fn)

        @functools.wraps(fn)
        def sweep(*args, **kwargs):
            with tracer._lock:
                tracer._sweep_depth += 1
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                return inner(*args, **kwargs)
            finally:
                tracer.add("sweep.wall_s", time.perf_counter() - wall0)
                tracer.add("sweep.cpu_s", time.process_time() - cpu0)
                with tracer._lock:
                    tracer._sweep_depth -= 1

        return sweep

    # -- install / uninstall ----------------------------------------------

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        afters = {
            "ot.sinkhorn_log": self._after_sinkhorn,
            "distances.otdd": self._after_otdd,
            "models.embedder_forward": self._after_embedder_fw,
            "nn.linear_fw": self._after_linear_fw,
            "nn.linear_bw": self._after_linear_bw,
            "pipeline.refine": self._after_refine,
        }
        package = [m for k, m in sorted(sys.modules.items())
                   if (k == "orcakit" or k.startswith("orcakit.")) and m is not None]
        replaced = {}
        for mod_name, attrs in FUNCTIONS.items():
            module = sys.modules[f"orcakit.{mod_name}"]
            for attr in attrs:
                orig = getattr(module, attr)
                name = f"{mod_name}.{attr}"
                if name == "pipeline.sweep_train_fraction":
                    replaced[id(orig)] = (orig, self._wrap_sweep(orig))
                else:
                    replaced[id(orig)] = (orig, self._wrap(name, orig, afters.get(name)))
        for module in package:
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"orcakit.{mod_name}"], cls_name)
            raw = cls.__dict__[meth]
            name = f"{mod_name}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            self._restore.append((cls, meth, raw))
            setattr(cls, meth, wrapped)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore = []

    # -- results ------------------------------------------------------------

    def aggregate(self) -> dict:
        """name -> {"calls", "incl_s", "self_s"} over all recorded spans."""
        agg = {}
        for _id, _parent, name, _tid, start, end, self_s in self.spans:
            rec = agg.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["incl_s"] += end - start
            rec["self_s"] += self_s
        return agg

    def layer_metrics(self) -> dict:
        """The per-layer metrics named in BENCHMARK.json, as name -> (value, unit)."""
        agg = self.aggregate()
        c = self.counters

        def span(name, field):
            return agg.get(name, {}).get(field, 0)

        out = {}
        for kind in ("pair", "outer"):
            out[f"ot.sinkhorn.{kind}.calls"] = (c.get(f"{kind}.calls", 0), "count")
            out[f"ot.sinkhorn.{kind}.self_s"] = (c.get(f"{kind}.self_s", 0.0), "s")
            out[f"ot.sinkhorn.{kind}.iters"] = (c.get(f"{kind}.iters", 0), "count")
        out["ot.sinkhorn.cell_iters"] = (c.get("cell_iters", 0), "count")
        out["ot.sinkhorn.unconverged"] = (c.get("unconverged", 0), "count")
        for fn in ("otdd_grad", "otdd"):
            out[f"distances.{fn}.calls"] = (span(f"distances.{fn}", "calls"), "count")
            out[f"distances.{fn}.self_s"] = (span(f"distances.{fn}", "self_s"), "s")
        for fn in ("label_distance_matrix", "fit_label_conditionals"):
            out[f"distances.{fn}.self_s"] = (span(f"distances.{fn}", "self_s"), "s")
        out["tensor.pairwise_sq_dists.calls"] = (span("tensor.pairwise_sq_dists", "calls"), "count")
        out["tensor.pairwise_sq_dists.self_s"] = (span("tensor.pairwise_sq_dists", "self_s"), "s")
        for op in ("linear", "layernorm", "gelu", "attention"):
            out[f"nn.{op}.fw_s"] = (span(f"nn.{op}_fw", "self_s"), "s")
            out[f"nn.{op}.bw_s"] = (span(f"nn.{op}_bw", "self_s"), "s")
        out["nn.linear.calls"] = (c.get("linear.calls", 0), "count")
        out["nn.linear.f64_calls"] = (c.get("linear.f64_calls", 0), "count")
        out["nn.linear.gflop"] = (c.get("linear.flop", 0) / 1e9, "GFLOP")
        for part in ("embedder", "body", "head"):
            out[f"models.{part}.fw_s"] = (span(f"models.{part}_forward", "incl_s"), "s")
            out[f"models.{part}.bw_s"] = (span(f"models.{part}_backward", "incl_s"), "s")
        out["pipeline.optimizer.steps"] = (span("pipeline.Optimizer.step", "calls"), "count")
        out["pipeline.optimizer.self_s"] = (span("pipeline.Optimizer.step", "self_s"), "s")
        out["pipeline.evaluate_s"] = (span("pipeline.evaluate", "incl_s"), "s")
        cell_s = c.get("sweep.cell_s", 0.0)
        wall = c.get("sweep.wall_s", 0.0)
        out["pipeline.sweep.cell_s"] = (cell_s, "s")
        out["pipeline.sweep.concurrency"] = (cell_s / wall if wall else 0.0, "ratio")
        out["pipeline.sweep.cpu_per_wall"] = (c.get("sweep.cpu_s", 0.0) / wall if wall else 0.0,
                                              "ratio")
        out["bundles.save_s"] = (span("bundles.save_bundle", "incl_s"), "s")
        out["bundles.load_s"] = (span("bundles.load_bundle", "incl_s"), "s")
        out["models.params.save_s"] = (span("models.ParameterSet.save", "incl_s"), "s")
        out["models.params.load_s"] = (span("models.ParameterSet.load", "incl_s"), "s")
        return out

    def write_spans(self, path):
        """One JSON line per span: id, parent, name, thread, start, end, self."""
        keys = ("id", "parent", "name", "thread", "start", "end", "self_s")
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))))
                f.write("\n")
