"""Experiment orchestration: config validation, seeded pipeline runs and
report emission.

Configs are JSON with nested keys; reports are a sorted-key JSON summary
plus CSV detail files.  Same config and seed give a byte-identical
summary, which is what ``replay`` checks.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import click
import numpy as np

from . import cantor as cantor_mod
from . import construction as cons
from . import density as density_mod
from . import diophantine as dio
from . import eigenfields as ef
from . import ergodicity as ergo
from . import operators as ops
from . import steinhaus as st
from .linspace import StateVector

KNOWN_PIPELINES = (
    "khinchine",
    "diophantine",
    "syndetic",
    "ergodicity",
    "cantor",
    "construct",
    "density",
    "invariance",
)


@dataclass
class ExperimentConfig:
    seed: int
    dimension: int
    operator: dict
    family: dict
    pipelines: dict

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "dimension": self.dimension,
            "operator": self.operator,
            "family": self.family,
            "pipelines": self.pipelines,
        }


# (pipeline, key, smallest value, largest value or None): integer
# parameters that the run refuses outside these bounds; a largest value
# names a bound taken from the config (see validate_config's ``ceilings``)
_INT_BOUNDS = (
    ("khinchine", "trials", 1000, None),
    ("diophantine", "angle_count", 1, None),
    ("diophantine", "targets_per_angle", 1, None),
    ("diophantine", "p_max", 1, None),
    ("syndetic", "angle_count", 1, None),
    ("syndetic", "horizon", 1000, None),
    ("ergodicity", "N", 1000, None),
    ("cantor", "depth", 0, None),
    ("cantor", "seed_count", 1, None),
    ("density", "horizon", 1, None),
    ("density", "angle_index", 0, "last family index"),
    ("construct", "trials", 2, None),
    ("construct", "cert_samples", 1, None),
    ("construct", "steps", 1, "number of targets"),
    ("construct", "p_max", 1, None),
    ("invariance", "trials", 2, None),
    ("invariance", "terms", 1, None),
    ("invariance", "probes", 1, "dimension"),
)


def _is_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) or math.isfinite(value)


def _is_int(value, floor, ceiling=None) -> bool:
    return (
        isinstance(value, int)
        and not isinstance(value, bool)
        and floor <= value
        and (ceiling is None or value <= ceiling)
    )


def _is_pairs(spec) -> bool:
    """A non-empty list of [re, im] pairs of finite numbers."""
    return (
        isinstance(spec, list)
        and len(spec) > 0
        and all(
            isinstance(c, list) and len(c) == 2 and all(_is_number(x) for x in c)
            for c in spec
        )
    )


def _is_coefficients(spec) -> bool:
    """Khinchine coefficients the run accepts: {"equal": n} with n >= 1,
    or a non-empty list of [re, im] pairs."""
    if isinstance(spec, dict):
        return _is_int(spec.get("equal"), 1)
    return _is_pairs(spec)


def _is_target(t, last_index: int) -> bool:
    """A construction target that ConstructionTarget and build_block accept:
    [re, im, family index] coefficient triples, a positive radius and a
    reach power >= 0."""
    if not isinstance(t, dict):
        return False
    coeffs, radius = t.get("coefficients"), t.get("radius", 0.5)
    return (
        isinstance(coeffs, list)
        and len(coeffs) > 0
        and all(
            isinstance(c, list)
            and len(c) == 3
            and _is_number(c[0])
            and _is_number(c[1])
            and _is_int(c[2], 0, last_index)
            for c in coeffs
        )
        and _is_number(radius)
        and radius > 0
        and _is_int(t.get("reach_power", 1), 0)
    )


def validate_config(text: str, horizon=None):
    """Parse a config; returns (ExperimentConfig or None, list of errors).

    ``horizon`` replaces every pipeline's ``horizon`` before the checks,
    so the returned config records the values the run uses."""
    errors = []
    try:
        raw = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        return None, [f"invalid JSON: {exc}"]
    if not raw:
        return None, ["empty config"]
    if not isinstance(raw, dict):
        return None, ["config must be a JSON object"]
    if "seed" not in raw:
        errors.append("missing seed (runs must be reproducible)")
    elif not isinstance(raw["seed"], int):
        errors.append("seed must be an integer")
    dim = raw.get("dimension", 64)
    if not isinstance(dim, int) or dim < 1:
        errors.append("dimension must be >= 1")
    operator = raw.get("operator", {"kind": "scaled_backward_shift", "weight": 2.0})
    family = raw.get("family", {"count": 256})
    pipelines = raw.get("pipelines", {})
    objects = {"operator": operator, "family": family, "pipelines": pipelines}
    if isinstance(pipelines, dict):
        objects.update((f"pipelines.{name}", v) for name, v in pipelines.items())
    for name, value in objects.items():
        if not isinstance(value, dict):
            errors.append(f"{name} must be a JSON object")
    if not errors and not _is_int(family.get("count", 256), 1):
        errors.append("family count must be a positive integer")
    if errors:
        return None, errors
    kind = operator.get("kind")
    weight, eps = operator.get("weight", 0), operator.get("eps", 0)
    if kind not in ("scaled_backward_shift", "perturbed_diagonal"):
        errors.append(f"unknown operator kind {kind!r}")
    elif kind == "scaled_backward_shift" and not (_is_number(weight) and weight > 1):
        errors.append("shift weight must be a number > 1")
    elif kind == "perturbed_diagonal" and not (_is_number(eps) and eps >= 0):
        errors.append("perturbation eps must be a number >= 0")
    if not pipelines:
        errors.append("no pipelines requested")
    if horizon is not None:
        pipelines = {
            name: {**params, "horizon": horizon} if "horizon" in params else params
            for name, params in pipelines.items()
        }
    if kind == "perturbed_diagonal" and "seed_count" in pipelines.get("cantor", {}):
        errors.append(
            "pipelines.cantor.seed_count needs a scaled_backward_shift operator: "
            "it samples the shift's eigenvector field"
        )
    for name, params in pipelines.items():
        if name not in KNOWN_PIPELINES:
            errors.append(f"unknown pipeline {name!r}")
            continue
        for key in ("eta", "radius", "coefficient", "tolerance"):
            if key in params and not (_is_number(params[key]) and params[key] > 0):
                errors.append(f"pipelines.{name}.{key} must be positive")
    for name in ("diophantine", "syndetic"):
        # chords never exceed 2, so eta >= 2 makes every power a return
        eta = pipelines.get(name, {}).get("eta", 0.1)
        if _is_number(eta) and eta >= 2:
            errors.append(f"pipelines.{name}.eta must be below 2")
    coefficients = pipelines.get("khinchine", {}).get("coefficients", {"equal": 100})
    if not _is_coefficients(coefficients):
        errors.append(
            'pipelines.khinchine.coefficients must be {"equal": n} with an integer '
            "n >= 1 or a non-empty list of [re, im] pairs"
        )
    c, d, angles = _ergodicity_lists(pipelines.get("ergodicity", {}))
    pairs = _is_pairs(c) and _is_pairs(d)
    if not pairs:
        errors.append(
            "pipelines.ergodicity.c and d must be non-empty lists of [re, im] pairs"
        )
    if not (isinstance(angles, list) and all(_is_number(a) for a in angles)):
        errors.append("pipelines.ergodicity.angles must be a list of finite numbers")
    elif pairs and not len(c) == len(d) == len(angles):
        errors.append("pipelines.ergodicity.c, d and angles must have equal lengths")
    family_size = dim if kind == "perturbed_diagonal" else family.get("count", 256)
    targets = pipelines.get("construct", {}).get("targets")
    if "construct" in pipelines and not (
        isinstance(targets, list)
        and targets
        and all(_is_target(t, family_size - 1) for t in targets)
    ):
        errors.append(
            "pipelines.construct.targets must be a non-empty list of targets with "
            f"[re, im, index] coefficients, index <= {family_size - 1}, the last "
            "family index, a positive radius and an integer reach_power >= 0"
        )
    ceilings = {
        "dimension": dim,
        "last family index": family_size - 1,
        # a missing or empty target list is reported above
        "number of targets": len(targets) if isinstance(targets, list) and targets else None,
    }
    for name, key, floor, ceiling in _INT_BOUNDS:
        hi = ceilings.get(ceiling)
        if not _is_int(pipelines.get(name, {}).get(key, floor), floor, hi):
            bound = f" and <= {hi}, the {ceiling}" if hi is not None else ""
            errors.append(f"pipelines.{name}.{key} must be an integer >= {floor}{bound}")
    if errors:
        return None, errors
    return ExperimentConfig(raw["seed"], dim, operator, family, pipelines), []


def _make_operator(cfg: ExperimentConfig) -> ops.OperatorSpec:
    if cfg.operator["kind"] == "scaled_backward_shift":
        return ops.make_scaled_backward_shift(cfg.operator["weight"], cfg.dimension)
    angles = ef.qindependent_angles(cfg.dimension)
    return ops.make_perturbed_diagonal(angles, cfg.operator.get("eps", 0.1), cfg.dimension)


def _make_family(cfg: ExperimentConfig, op) -> ef.EigenFamily:
    if op.kind == ops.PERTURBED_DIAGONAL:
        return ef.diagonal_family(op)
    return ef.sample_2B_family(op.weight, cfg.dimension, cfg.family.get("count", 256))


def _rng(cfg: ExperimentConfig, pipeline: str) -> np.random.Generator:
    # disjoint deterministic streams per pipeline
    return np.random.default_rng([cfg.seed, KNOWN_PIPELINES.index(pipeline)])


def _complexes(rows) -> list:
    return [complex(re, im) for re, im in rows]


def _ergodicity_lists(params) -> tuple:
    """The ergodicity pipeline's c, d and angles lists, defaults filled in."""
    c = params.get("c", [[2**-0.5, 0], [2**-0.5, 0]])
    return c, params.get("d", c), params.get("angles", [1.0, float(np.sqrt(2) % 1)])


def run_experiment(cfg: ExperimentConfig, out_dir) -> int:
    """Run every configured pipeline; write summary.json and CSV details.

    Returns 0 iff every pipeline's PASS criterion holds.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    op = _make_operator(cfg)
    family = _make_family(cfg, op)
    summary = {"config": cfg.to_dict(), "results": {}}
    all_pass = True
    construct_ctx = None

    for name in KNOWN_PIPELINES:
        if name not in cfg.pipelines:
            continue
        runner = _RUNNERS[name]
        result, extra_ctx = runner(
            cfg, op, family, cfg.pipelines[name], _rng(cfg, name), out, construct_ctx
        )
        if extra_ctx is not None:
            construct_ctx = extra_ctx
        summary["results"][name] = result
        all_pass = all_pass and result["passed"]

    summary["passed"] = all_pass
    (out / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n"
    )
    return 0 if all_pass else 1


def _run_khinchine(cfg, op, family, params, rng, out, ctx):
    spec = params.get("coefficients", {"equal": 100})
    if isinstance(spec, dict):
        coeffs = np.ones(spec["equal"], dtype=complex)
    else:
        coeffs = np.asarray(_complexes(spec))
    report = st.khinchine_report(coeffs, params.get("trials", 10**5), rng, seed=cfg.seed)
    passed = 0 < report.estimate <= 1.0
    return (
        {
            "estimate": report.estimate,
            "stderr": report.stderr,
            "trials": report.trials,
            "passed": passed,
        },
        None,
    )


def _run_diophantine(cfg, op, family, params, rng, out, ctx):
    eta = params.get("eta", 0.05)
    k = params.get("angle_count", 2)
    per_angle = params.get("targets_per_angle", 4)
    p_max = params.get("p_max", 10**6)
    angles = np.asarray(ef.qindependent_angles(k))
    grid = [np.exp(2j * np.pi * (i + 0.5) / per_angle) for i in range(per_angle)]
    cells = list(np.ndindex((per_angle,) * k))
    targets = [[grid[i] for i in idx] for idx in cells]
    solved = []
    passed = True
    for idx, mu, p in zip(cells, targets, dio.first_returns(angles, targets, eta, p_max)):
        ok = p is not None and bool(
            np.all(np.abs(np.exp(2j * np.pi * p * angles) - np.asarray(mu)) < eta)
        )
        passed = passed and ok
        solved.append({"target_cell": list(idx), "p": p, "verified": ok})
    return ({"eta": eta, "solutions": solved, "passed": passed}, None)


def _run_syndetic(cfg, op, family, params, rng, out, ctx):
    angles = ef.qindependent_angles(params.get("angle_count", 2))
    res = dio.syndetic_return_set(
        angles, params.get("eta", 0.1), params.get("horizon", 10**5)
    )
    passed = len(res.times) > 0 and not res.violations
    return (
        {
            "set_size": len(res.times),
            "gap_bound": res.gap_bound,
            "inclusion_violations": len(res.violations),
            "passed": passed,
        },
        None,
    )


def _run_ergodicity(cfg, op, family, params, rng, out, ctx):
    c, d, angles = _ergodicity_lists(params)
    spec = ergo.CorrelationSpec(_complexes(c), _complexes(d), angles)
    N = params.get("N", 10**5)
    report = ergo.witness_report(spec, N)
    ergo.correlation_csv(report.correlation[: 10**4], out / "correlation.csv")
    return (
        {
            "cesaro": report.cesaro,
            "witness": report.witness,
            "N": N,
            "passed": report.witness > 0,
        },
        None,
    )


def _run_cantor(cfg, op, family, params, rng, out, ctx):
    depth = params.get("depth", 6)
    count = params.get("seed_count")
    seed_family = family
    if count is not None and count != len(family):
        seed_family = ef.sample_2B_family(op.weight, cfg.dimension, count)
    try:
        field = cantor_mod.build_cantor_field(seed_family, depth)
    except cantor_mod.CantorBuildError as exc:
        return {"error": str(exc), "passed": False}, None
    sep = cantor_mod.verify_cantor_separation(field)
    cantor_mod.field_to_csv(field, out / "cantor_field.csv")
    return (
        {
            "depth": depth,
            "leaves": 2**depth,
            "min_margin": sep.min_margin,
            "passed": sep.passed,
        },
        None,
    )


def _run_construct(cfg, op, family, params, rng, out, ctx):
    targets = [
        cons.ConstructionTarget(
            tuple((complex(re, im), int(i)) for re, im, i in t["coefficients"]),
            t.get("radius", 0.5),
            t.get("reach_power", 1),
        )
        for t in params["targets"]
    ]
    try:
        state, phi, report = cons.run_construction(
            op,
            family,
            targets,
            params.get("steps", len(targets)),
            rng,
            trials=params.get("trials", 2000),
            cert_samples=params.get("cert_samples", 200),
            p_max=params.get("p_max", 10**6),
        )
    except (cons.ConstructionError, dio.NetCoverageError) as exc:
        return {"error": str(exc), "passed": False}, None
    (out / "construction_state.json").write_text(state.to_json() + "\n")
    result = {
        "blocks": [
            {
                "index": c.index,
                "expected_norm_bound": c.expected_norm_bound,
                "budget": c.budget,
                "visit_rate": c.visit_rate,
                "visit_floor": c.visit_floor,
            }
            for c in report.certificates
        ],
        "total_norm_estimate": report.total_norm_estimate,
        "total_norm_budget": report.total_norm_budget,
        "passed": report.all_passed(),
    }
    return result, (state, phi)


def _run_density(cfg, op, family, params, rng, out, ctx):
    horizon = params.get("horizon", 2 * 10**5)
    results = {}
    passed = True

    # calibration: a single eigen-term whose visits to a ball around itself
    # are controlled by an explicit arc of angles
    coeff = params.get("coefficient", 0.5)
    radius = params.get("radius", 0.3)
    index = params.get("angle_index", 0)
    x = ef.EigenExpansion([coeff], family.take([index]))
    center = StateVector(coeff * family.vectors[:, index])
    rec = density_mod.visit_times(x, density_mod.TargetBall(center, radius), horizon)
    arc = 2.0 * np.arcsin(min(radius / (2 * abs(coeff)), 1.0)) / np.pi
    frequency = len(rec.times) / horizon
    results["calibration"] = {
        "arc_length": float(arc),
        "visit_frequency": frequency,
        "error": abs(frequency - arc),
    }
    passed = passed and bool(abs(frequency - arc) < 0.01)

    if params.get("use_construction") and ctx is not None:
        state, phi = ctx
        phi_vec = phi.to_vector().entries
        targets = [
            density_mod.TargetBall(
                StateVector(phi_vec + b.center.entries),
                b.radius + 2.0 ** (-(b.index - 1)),
            )
            for b in state.blocks
        ]
        fhc = density_mod.fhc_harness(phi, targets, horizon)
        with open(out / "visit_times.csv", "w") as fh:
            fh.write("block,n\n")
            for b, r in zip(state.blocks, fhc.records):
                for n in r.times[:10000].tolist():
                    fh.write(f"{b.index},{n}\n")
        results["construction_orbit"] = {
            "proxies": list(fhc.proxies),
            "passed": fhc.passed,
        }
        passed = passed and fhc.passed
    results["passed"] = passed
    return results, None


def _run_invariance(cfg, op, family, params, rng, out, ctx):
    coeffs = 0.5 ** np.arange(1, params.get("terms", 32) + 1)
    n_terms = min(coeffs.size, len(family))
    series = ef.EigenExpansion(coeffs[:n_terms], family.take(slice(n_terms)))
    # probe k is the coordinate functional of e_k
    probes = np.eye(params.get("probes", min(8, cfg.dimension)), cfg.dimension, dtype=complex)
    report = st.invariance_gap(op, series, params.get("trials", 10**4), probes, rng)
    passed = report.within(3.0)
    return ({"max_gap": report.max_gap, "passed": passed}, None)


_RUNNERS = {
    "khinchine": _run_khinchine,
    "diophantine": _run_diophantine,
    "syndetic": _run_syndetic,
    "ergodicity": _run_ergodicity,
    "cantor": _run_cantor,
    "construct": _run_construct,
    "density": _run_density,
    "invariance": _run_invariance,
}


@click.group()
def main():
    """Numerical laboratory for linear operator dynamics."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
def validate(config_path):
    """Validate a config file; nonzero exit with diagnostics on failure."""
    cfg, errors = validate_config(Path(config_path).read_text())
    if errors:
        for e in errors:
            click.echo(f"error: {e}", err=True)
        sys.exit(1)
    click.echo("config OK")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--seed", type=int, default=None, help="override the config seed")
@click.option("--out", "out_dir", type=click.Path(), default="hyperlab-out")
@click.option("--horizon", type=int, default=None, help="override pipeline horizons")
def run(config_path, seed, out_dir, horizon):
    """Run the configured pipelines and write summary.json + CSV details."""
    cfg, errors = validate_config(Path(config_path).read_text(), horizon=horizon)
    if errors:
        for e in errors:
            click.echo(f"error: {e}", err=True)
        sys.exit(2)
    if seed is not None:
        cfg.seed = seed
    status = run_experiment(cfg, out_dir)
    click.echo(f"summary written to {Path(out_dir) / 'summary.json'}")
    sys.exit(status)


@main.command()
@click.option("--summary", "summary_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", type=click.Path(), default="hyperlab-replay")
def replay(summary_path, out_dir):
    """Re-run the config embedded in a summary and check byte-identity."""
    old = Path(summary_path).read_text()
    cfg_dict = json.loads(old)["config"]
    cfg, errors = validate_config(json.dumps(cfg_dict))
    if errors:
        for e in errors:
            click.echo(f"error: {e}", err=True)
        sys.exit(2)
    run_experiment(cfg, out_dir)
    new = (Path(out_dir) / "summary.json").read_text()
    if new == old:
        click.echo("replay identical")
        sys.exit(0)
    click.echo("replay DIFFERS from the recorded summary", err=True)
    sys.exit(1)


if __name__ == "__main__":
    main()
