"""Per-layer metrics from the spans of one traced run.

A span's self time is its duration minus the time its child spans cover.
Children on the parent's own thread nest and never overlap, so their
durations add; children on worker threads can overlap each other, so they
cover the union of their intervals.  A layer's self time is the sum over
its spans.

Summed over all spans, self time equals the root span (the whole run)
plus the time worker spans ran in parallel with each other.  `analyze`
checks that identity against the run time the child measured.  It holds
by construction, so it only catches a stray root span or a clock error:
work the tracer does not see lands in its caller's self time and passes.
`analyze` also checks that every worker span sits inside the
`fhc_harness` span that queued it.
"""

from __future__ import annotations

import json

import numpy as np

from tracer import LAYERS

# share of the traced run time by which the self-time sum may differ
SUM_TOLERANCE = 0.01
# clock slack allowed when comparing span edges, in seconds
EDGE_SLACK = 1e-6

# (metric, unit, description); every per-layer metric the benchmark reports
PER_LAYER = (
    ("linspace.vectors", "count", "StateVector values built"),
    ("linspace.norm.calls", "count", "calls to linspace.norm"),
    ("linspace.self_s", "s", "self time in linspace"),
    ("operators.apply.calls", "count", "calls to operators.apply"),
    ("operators.self_s", "s", "self time in operators"),
    ("eigenfields.sample_2B_family_s", "s", "time in sample_2B_family, children included"),
    ("eigenfields.pairs", "count", "eigenpairs in sampled families (computed)"),
    ("eigenfields.coordinate_matrix.calls", "count", "calls to EigenFamily.coordinate_matrix"),
    ("eigenfields.self_s", "s", "self time in eigenfields"),
    ("steinhaus.self_s", "s", "self time in steinhaus"),
    ("steinhaus.draws", "count", "Steinhaus variables drawn by steinhaus (computed)"),
    ("steinhaus.draws_per_s", "1/s", "draws over the time of the drawing calls"),
    ("diophantine.self_s", "s", "self time in diophantine"),
    ("diophantine.powers_scanned", "count", "powers each scan had to test (computed)"),
    ("diophantine.cells", "count", "covering-net cells (computed)"),
    ("ergodicity.self_s", "s", "self time in ergodicity"),
    ("construction.build_block_s", "s", "time in build_block, children included"),
    ("construction.certify_s", "s", "self time of run_construction: final draws and visit certificates"),
    ("construction.mc_draws", "count", "Monte Carlo phases drawn by the construction, every tightening retry included (computed)"),
    ("construction.trivial_visit_ratio", "ratio", "blocks whose target ball holds the origin, over blocks (computed)"),
    ("construction.self_s", "s", "self time in construction"),
    ("cantor.build_s", "s", "time in build_cantor_field, children included"),
    ("cantor.verify_s", "s", "time in verify_cantor_separation, children included"),
    ("cantor.nodes", "count", "nodes of the built tree (computed)"),
    ("cantor.prefix_scans", "count", "leaf prefix tests of the verification, 2*splits*leaves (computed)"),
    ("cantor.delta_respected_fraction", "ratio", "splits meeting the delta separation, over splits (computed)"),
    ("cantor.self_s", "s", "self time in cantor"),
    ("density.visit_times_s", "s", "busy time of visit_times over all threads"),
    ("density.pool_wait_s", "s", "time visit_times tasks waited for a worker"),
    ("density.term_steps", "count", "sum of N*k^2 over visit_times calls (computed)"),
    ("density.steps_per_s", "1/s", "term steps over visit_times busy time"),
    ("density.visit_fraction", "ratio", "orbit steps inside a target, over steps scanned by fhc_harness (computed)"),
    ("density.self_s", "s", "self time in density"),
    ("cli.self_s", "s", "self time in cli, writing summary and CSVs included"),
    ("cli.cpu_s", "s", "CPU time of the run process during the run"),
    ("cli.bytes_written", "count", "bytes of the files the run wrote"),
)

CALLS = {
    "linspace.vectors": "linspace.StateVector",
    "linspace.norm.calls": "linspace.norm",
    "operators.apply.calls": "operators.apply",
    "eigenfields.coordinate_matrix.calls": "eigenfields.EigenFamily.coordinate_matrix",
}
INCLUSIVE = {
    "eigenfields.sample_2B_family_s": "eigenfields.sample_2B_family",
    "construction.build_block_s": "construction.build_block",
    "cantor.build_s": "cantor.build_cantor_field",
    "cantor.verify_s": "cantor.verify_cantor_separation",
    "density.visit_times_s": "density.visit_times",
}
COUNTS = (
    "eigenfields.pairs",
    "steinhaus.draws",
    "diophantine.powers_scanned",
    "diophantine.cells",
    "construction.mc_draws",
    "cantor.nodes",
    "cantor.prefix_scans",
    "density.term_steps",
)
# ratio metric -> (numerator count, base count)
RATIOS = {
    "construction.trivial_visit_ratio": ("construction.trivial_blocks", "construction.blocks"),
    "cantor.delta_respected_fraction": ("cantor.delta_respected", "cantor.splits"),
    "density.visit_fraction": ("density.visits", "density.visit_slots"),
}
DRAW_CALLS = (
    "steinhaus.khinchine_report",
    "steinhaus.sample_series_batch",
    "steinhaus.sample_steinhaus",
)


def _union_length(intervals) -> float:
    total, reach = 0.0, -np.inf
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


def analyze(path, run_s: float, cpu_s: float, workers: int):
    """Per-layer metrics of one traced run, the base of each ratio, span
    diagnostics and the list of failed consistency checks."""
    data = np.load(path, allow_pickle=False)
    names = [str(n) for n in data["names"]]
    name, start, end = data["name"], data["start"], data["end"]
    parent, thread, queued = data["parent"], data["thread"], data["queued"]
    counts = json.loads(str(data["counts"]))
    dur = end - start
    n = dur.size
    problems = []

    has_parent = parent >= 0
    safe_parent = np.where(has_parent, parent, 0)
    cross = has_parent & (thread != thread[safe_parent])
    same = has_parent & ~cross
    covered = np.bincount(parent[same], weights=dur[same], minlength=n)
    excess = 0.0
    for p in np.unique(parent[cross]):
        kids = np.flatnonzero(cross & (parent == p))
        union = _union_length(zip(start[kids], end[kids]))
        busy = dur[kids].sum()
        covered[p] += union
        excess += busy - union
        if busy > workers * union * (1 + SUM_TOLERANCE) + EDGE_SLACK:
            problems.append(f"worker spans under span {p} busy {busy:.4f} s > {workers} x {union:.4f} s")
    self_time = dur - covered

    roots = np.flatnonzero(~has_parent)
    if [names[name[r]] for r in roots] != ["cli.run_experiment"]:
        problems.append(f"expected one root span cli.run_experiment, got {[names[name[r]] for r in roots]}")
    if np.any(dur < 0) or np.any(self_time < -EDGE_SLACK):
        problems.append("negative span duration or self time")
    outside = has_parent & (
        (start < start[safe_parent] - EDGE_SLACK) | (end > end[safe_parent] + EDGE_SLACK)
    )
    if outside.any():
        problems.append(f"{int(outside.sum())} spans end outside their parent")
    lag = start[cross] - queued[cross]
    if cross.any() and (
        {names[name[p]] for p in parent[cross]} != {"density.fhc_harness"}
        or {names[name[c]] for c in np.flatnonzero(cross)} != {"density.visit_times"}
        or not np.all(lag >= -EDGE_SLACK)
        or not np.all(queued[cross] >= start[parent[cross]] - EDGE_SLACK)
    ):
        problems.append("worker spans are not visit_times tasks queued by fhc_harness")

    layer_of = np.array([LAYERS.index(s.split(".")[0]) for s in names], dtype=int)
    layer_self = np.bincount(layer_of[name], weights=self_time, minlength=len(LAYERS))
    accounted = float(layer_self.sum()) - excess
    if abs(accounted - run_s) > SUM_TOLERANCE * run_s + 1e-3:
        problems.append(
            f"layer self times minus parallel overlap sum to {accounted:.4f} s, run took {run_s:.4f} s"
        )

    def by_name(span_name, values):
        if span_name not in names:
            return 0.0
        return float(values[name == names.index(span_name)].sum())

    ones = np.ones(n)
    metrics = {f"{layer}.self_s": float(layer_self[i]) for i, layer in enumerate(LAYERS)}
    metrics.update({m: by_name(s, ones) for m, s in CALLS.items()})
    metrics.update({m: by_name(s, dur) for m, s in INCLUSIVE.items()})
    metrics.update({m: float(counts.get(m, 0)) for m in COUNTS})
    metrics["construction.certify_s"] = by_name("construction.run_construction", self_time)
    metrics["density.pool_wait_s"] = float(lag.sum())
    draw_s = sum(by_name(s, dur) for s in DRAW_CALLS)
    metrics["steinhaus.draws_per_s"] = metrics["steinhaus.draws"] / draw_s if draw_s else 0.0
    visit_s = metrics["density.visit_times_s"]
    metrics["density.steps_per_s"] = metrics["density.term_steps"] / visit_s if visit_s else 0.0
    bases = {}
    for metric, (num, base) in RATIOS.items():
        bases[metric] = counts.get(base, 0)
        metrics[metric] = counts.get(num, 0) / bases[metric] if bases[metric] else 0.0
    metrics["cli.cpu_s"] = cpu_s
    diagnostics = {
        "spans": n,
        "run_id": str(data["run_id"]),
        "accounted_s": accounted,
        "parallel_overlap_s": excess,
    }
    return metrics, bases, diagnostics, problems
