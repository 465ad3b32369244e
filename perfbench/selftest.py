"""Reduced-size self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a hyperlab checkout.  Runs every workload at the
``--small`` sizes, untraced and traced, and checks that each run passes
its correctness gate and prints every metric that BENCHMARK.json names,
with the unit BENCHMARK.json gives it.  Then checks that the benchmark
refuses, with a non-zero exit and no result line, to run in a directory
that holds no hyperlab sources.  Takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import layers

RUN = Path(__file__).resolve().parent / "run.py"


def run(cwd, workload, trace):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "1"]
    cmd += ["--seconds", "0", "--trace", str(trace), "--small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != {name: unit for name, unit, _ in layers.PER_LAYER}:
        problems.append("BENCHMARK.json per_layer differs from layers.PER_LAYER")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(root, workload, trace)
            if proc.returncode != 0:
                problems.append(f"{workload} --trace {trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{workload} --trace {trace}: gate failed\n{proc.stdout}")
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{workload} --trace {trace}: {metric['name']} missing or wrong unit: {got}")
            print(f"{workload} --trace {trace}: {len(result['metrics'])} metrics, {result['attempted']} repeats")

    bare = root / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        proc = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any(bare.parent.iterdir()):
            bare.parent.rmdir()
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"run without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    else:
        print(f"run without sources: exit {proc.returncode}, no result")

    for p in problems:
        print("FAIL:", p)
    print("self-test", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
