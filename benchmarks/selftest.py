"""Reduced-size self-test of the benchmark.

    python3 benchmarks/selftest.py

Runs every workload of BENCHMARK.json at the small size, untraced and then
traced, and checks that each run passes its output checks and reports every
metric that BENCHMARK.json names, with its unit, as a finite number; that the
traced run's program outputs equal the untraced run's; and that run.py fails
without printing a result in a directory holding only the benchmark.
Takes about a minute on two cores. Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def run_bench(cwd: Path, workload: str, trace: int, size="small"):
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "0", "--trace", str(trace), "--size", size]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(proc, section, workload, trace) -> list[str]:
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
    problems = []
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(line) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(line)}")
    if line["correct"] is not True:
        problems.append(f"{where}: output checks failed: {proc.stderr[-2000:]}")
    if not (isinstance(line["attempted"], int) and line["attempted"] >= 1):
        problems.append(f"{where}: attempted {line['attempted']!r}")
    if line["failed"] != 0:
        problems.append(f"{where}: {line['failed']} operations failed")
    want = {m["name"]: m["unit"] for m in section}
    got = line["metrics"]
    if set(got) != set(want):
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    for name, m in got.items():
        if m.get("unit") != want.get(name):
            problems.append(f"{where}: {name} unit {m.get('unit')!r}")
        v = m.get("value")
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"{where}: {name} value {v!r}")
    return problems


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    problems = []
    for w in bench["workloads"]:
        for trace, section in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc = run_bench(ROOT, w["name"], trace)
            problems += check_run(proc, section, w["name"], trace)
        traced = HERE / "out" / f"{w['name']}-seed{SEED}-trace1-small.json"
        if traced.is_file():
            with open(traced) as f:
                match = json.load(f).get("untraced", {}).get("outputs_match")
            if match is not True:
                problems.append(f"{w['name']}: traced outputs match untraced: {match!r}")
        print(f"{w['name']}: done", file=sys.stderr)

    # a directory with only BENCHMARK.json and the benchmark must fail cleanly
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_bench(bare, bench["workloads"][0]["name"], 0, size="full")
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"FAIL: {p}")
    print("selftest: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
