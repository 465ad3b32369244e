"""Benchmark of `hyperlab run`, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a hyperlab checkout; hyperlab is imported from its
``src/``.  Each repeat runs the real `hyperlab run` command in a fresh
interpreter with a fresh output directory, which is deleted before the
next repeat, so no file carries over.  Repeats continue until S seconds
have passed (at least three).

``--trace 0`` reports the end-to-end metrics over untraced repeats:
``run_s`` (fastest time of everything `run` does after validation),
``setup_s`` (fastest time from spawning the interpreter to the validated
config) and ``peak_rss_mb`` (median peak resident memory of the run
process).  ``--trace 1`` alternates traced and untraced repeats and
reports the per-layer metrics of ``layers.PER_LAYER`` as medians over the
traced ones, plus the tracing overhead.

Every repeat passes the correctness gate or counts as failed: the run
exits 0, its ``summary.json`` says ``"passed": true``, its digest equals
that of the other repeats, and (traced) its spans pass the consistency
checks of ``layers.analyze``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Threads are pinned so that a run never uses more than nproc: BLAS runs
single-threaded and the density pool gets HYPERLAB_THREADS=min(2, nproc)
workers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import layers
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 60
MIN_REPEATS = 3
# (metric, unit, statistic over a run's untraced repeats).  On a shared
# host, other tenants switch a process between full speed and about half
# speed for seconds at a time, so a run's median time depends on how long
# they were busy.  The fastest repeat is the one they disturbed least:
# times take the minimum, and the report prints the median beside it.
END_TO_END = (
    ("run_s", "s", min),
    ("setup_s", "s", min),
    ("peak_rss_mb", "MB", statistics.median),
)


def thread_env(nproc: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["HYPERLAB_THREADS"] = str(min(2, nproc))
    # fixed string hashing, so dict and set layouts repeat between repeats
    env["PYTHONHASHSEED"] = "0"
    return env


def source_id(root: Path) -> str:
    """Git commit when the checkout has one, else a digest of src/."""
    if (root / ".git").exists():
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        )
        if head.returncode == 0:
            return head.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:12]


def repeat(root, work, config, env, index, traced, workers) -> dict:
    """One `hyperlab run` in a fresh interpreter; its timings and gate."""
    out = work / f"out-{index}"
    result_path = work / f"result-{index}.json"
    spans_path = work / f"spans-{index}.npz"
    cmd = [sys.executable, str(HERE / "child.py"), str(root), str(config), str(out)]
    cmd += [str(result_path)] + ([str(spans_path)] if traced else [])
    rec = {"traced": traced, "ok": False}
    log_path = work / f"log-{index}.txt"
    with open(log_path, "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
    summary = out / "summary.json"
    if code != 0 or not result_path.exists() or not summary.exists():
        tail = log_path.read_text(errors="replace").strip().splitlines()[-3:]
        rec["error"] = f"exit {code}: " + " | ".join(tail)
    else:
        res = json.loads(result_path.read_text())
        body = summary.read_bytes()
        rec.update(
            run_s=res["run_s"],
            setup_s=res["validated"] - spawned,
            peak_rss_mb=res["peak_rss_mb"],
            digest=hashlib.sha256(body).hexdigest()[:12],
            bytes_written=sum(f.stat().st_size for f in out.rglob("*") if f.is_file()),
        )
        rec["ok"] = json.loads(body).get("passed") is True
        if not rec["ok"]:
            rec["error"] = 'summary.json has "passed": false'
        if traced:
            metrics, bases, diag, problems = layers.analyze(
                spans_path, res["run_s"], res["cpu_s"], workers
            )
            metrics["cli.bytes_written"] = float(rec["bytes_written"])
            rec.update(layers=metrics, bases=bases, diag=diag)
            if problems:
                rec["ok"] = False
                rec["error"] = "trace: " + "; ".join(problems)
    shutil.rmtree(out, ignore_errors=True)
    for path in (result_path, spans_path, log_path):
        path.unlink(missing_ok=True)
    return rec


def gate(records) -> None:
    """Fail every repeat whose summary differs from the majority digest."""
    digests = Counter(r["digest"] for r in records if "digest" in r)
    if not digests:
        return
    majority = digests.most_common(1)[0][0]
    for r in records:
        if "digest" in r and r["digest"] != majority:
            r["ok"] = False
            r["error"] = f"summary digest {r['digest']} differs from {majority}"


def tail_line(values) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return f"no percentile above the median has ten samples beyond it at n={n}"
    rank = n - 10  # 1-based rank of the 11th-largest sample
    return f"p{100 * rank / n:.0f} = {sorted(values)[rank - 1]:.4f} s (n={n})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hyperlab" / "cli.py").is_file():
        print(f"error: {root} holds no src/hyperlab; run from a hyperlab checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = thread_env(nproc)
    workers = int(env["HYPERLAB_THREADS"])
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    records = []
    try:
        config = work / "config.json"
        config_text = json.dumps(WORKLOADS[args.workload](args.seed, args.small))
        config.write_text(config_text)
        probe = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(root), "--probe"],
            cwd=root, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if probe.returncode != 0:
            print(f"error: cannot import hyperlab: {probe.stderr.strip()}", file=sys.stderr)
            return 2
        info = json.loads(probe.stdout.strip().splitlines()[-1])
        begin = time.monotonic()
        while len(records) < MIN_REPEATS or time.monotonic() - begin < args.seconds:
            traced = bool(args.trace) and len(records) % 2 == 0
            records.append(repeat(root, work, config, env, len(records), traced, workers))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.exists() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    gate(records)
    ok = [r for r in records if r["ok"]]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    failed = len(records) - len(ok)

    print(f"# workload {args.workload}  seed {args.seed}  source {source_id(root)}")
    print(
        f"# env python {info['python']}  numpy {info['numpy']}  blas {info['blas']}"
        f"  blas_threads {info['blas_threads']}  nproc {nproc}  HYPERLAB_THREADS {workers}"
    )
    print(f"# config sha256 {hashlib.sha256(config_text.encode()).hexdigest()[:12]}")
    for digest, count in Counter(r.get("digest") for r in records).items():
        print(f"# summary sha256 {digest}  repeats {count}")
    for r in records:
        if not r["ok"]:
            print(f"# FAILED repeat ({'traced' if r['traced'] else 'untraced'}): {r['error']}")
    print(f"# fail_ratio {failed}/{len(records)} = {failed / len(records):.4f}")
    run_values = [r["run_s"] for r in plain]
    median = statistics.median(run_values) if run_values else 0.0
    print(f"# run_s untraced median {median:.4f} s; {tail_line(run_values)}")
    print("# run_s of each untraced repeat: " + " ".join(f"{v:.4f}" for v in run_values))

    end_to_end = {}
    for name, unit, statistic in END_TO_END:
        value = statistic([r[name] for r in plain]) if plain else 0.0
        end_to_end[name] = {"value": value, "unit": unit}
        print(f"# {name} {statistic.__name__} {value:.6g} {unit} over {len(plain)} untraced repeats")
    metrics = end_to_end
    if args.trace:
        metrics = {}
        for name, unit, what in layers.PER_LAYER:
            value = statistics.median(r["layers"][name] for r in traced) if traced else 0.0
            metrics[name] = {"value": value, "unit": unit}
            base = f"  (base {traced[0]['bases'][name]:.0f})" if name in layers.RATIOS and traced else ""
            print(f"# {name} = {value:.6g} {unit}{base}  -- {what}")
        if traced and plain:
            fastest = min(r["run_s"] for r in traced)
            print(
                f"# tracing overhead {fastest - end_to_end['run_s']['value']:.4f} s:"
                f" traced run_s {fastest:.4f} s - untraced {end_to_end['run_s']['value']:.4f} s"
            )
        for r in traced[:1]:
            d = r["diag"]
            print(
                f"# trace {d['run_id']}: {d['spans']} spans; layer self times"
                f" {d['accounted_s'] + d['parallel_overlap_s']:.4f} s - parallel overlap"
                f" {d['parallel_overlap_s']:.4f} s = {d['accounted_s']:.4f} s"
                f" vs run_s {r['run_s']:.4f} s (tolerance {layers.SUM_TOLERANCE:.0%};"
                " an identity that catches stray root spans and clock errors only)"
            )

    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(records),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
