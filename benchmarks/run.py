"""Align / refine benchmark for orcakit.

    python3 benchmarks/run.py --workload align-desk --seed 0 --seconds 5 --trace 0

Runs one workload in a fresh process (benchmarks/workload.py), checks its
outputs and prints, as the last line of standard output, one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The full result, with the
environment and every timing, goes to benchmarks/out/.

A traced run compares its program outputs with the untraced run of the same
workload, seed and size when that result is in benchmarks/out/, and records
the tracing overhead as the gap between the two runs' end-to-end figures.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD_TIMEOUT_S = 170


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def result_path(workload, seed, trace, size) -> Path:
    tag = "" if size == "full" else f"-{size}"
    return OUT / f"{workload}-seed{seed}-trace{trace}{tag}.json"


def compare_untraced(result: dict, untraced_path: Path, bench: dict) -> dict:
    """Digest match and tracing overhead of a traced run against its twin.

    The overhead of each end-to-end metric is the traced run's extra cost as
    a share of the untraced run's: time or memory ratio minus one, with
    throughputs inverted so that a positive share always means slower.
    """
    if not untraced_path.is_file():
        return {"untraced_result": None}
    with open(untraced_path) as f:
        base = json.load(f)
    overhead = {}
    for m in bench["end_to_end"]:
        if m["name"] not in result["e2e"] or m["name"] not in base["e2e"]:
            continue
        traced, untraced = result["e2e"][m["name"]]["value"], base["e2e"][m["name"]]["value"]
        ratio = traced / untraced if m["better"] == "lower" else untraced / traced
        overhead[m["name"]] = ratio - 1.0
    return {"untraced_result": untraced_path.name,
            "outputs_match": base["digest"] == result["digest"],
            "overhead": overhead}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "small"), default="full",
                   help="small: the self-test's reduced inputs and epochs")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "orcakit" / "__init__.py").is_file():
        print(f"run.py: no orcakit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"run.py: unknown workload {args.workload!r}; one of {names}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    path = result_path(args.workload, args.seed, args.trace, args.size)
    path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size, "--result", str(path)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: workload exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    if proc.returncode != 0 or not path.is_file():
        print(f"run.py: workload exited with {proc.returncode}", file=sys.stderr)
        return 3
    with open(path) as f:
        result = json.load(f)

    correct = result["correct"]
    if args.trace:
        result["untraced"] = compare_untraced(
            result, result_path(args.workload, args.seed, 0, args.size), bench)
        if result["untraced"].get("outputs_match") is False:
            result["checks_failed"].append("traced outputs differ from the untraced run's")
            correct = False
        with open(path, "w") as f:
            json.dump(result, f, indent=1)
            f.write("\n")

    section, source = (("per_layer", "layers") if args.trace else ("end_to_end", "e2e"))
    metrics = {}
    for m in bench[section]:
        got = result[source].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print(f"run.py: workload did not report {m['name']} [{m['unit']}]", file=sys.stderr)
            return 4
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    for failure in result["checks_failed"]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
