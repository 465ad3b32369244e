"""Experiment orchestration: config validation, seeded pipeline runs and
report emission.

Configs are JSON with nested keys; reports are a sorted-key JSON summary
plus CSV detail files.  Same config and seed give a byte-identical
summary, which is what ``replay`` checks.

Each pipeline parameter's default and check is one row of ``_PARAMS``,
and each ceiling on a cost that spans several parameters of one pipeline
is one row of ``_LIMITS``; ``validate_config`` refuses a key that no row
names and hands each runner its parameters with the defaults filled in.
A valid config has its pipelines' modules loaded by ``validate_config``,
so a run compiles only the modules it calls.  A run whose pipelines draw
nothing loads no module; a runner that draws makes its own generator on
its pipeline's stream, which loads ``numpy.random`` the first time.
``run_experiment`` is the one place where a domain error that a runner
raises (a ValueError or an ArithmeticError) becomes that pipeline's
result, ``{"error": ..., "passed": false}``, and the run then exits 1.
``run --horizon`` sets the horizon of the syndetic and density pipelines,
whether the config sets one or not, and ``run --seed`` the seed; both
pass the checks a config value passes, and the summary records them, so
``replay`` reproduces the run.

``main`` is the command line, on the standard library's argparse.  It
exits 0 on a pass; 1 on a failed pipeline, a replay that differs or a
config that ``validate`` refuses; 2 on a config that ``run`` or ``replay``
refuses, a path argument it cannot use, or a malformed command line.
``main(args, standalone_mode=False)`` returns the status of a command
that completes instead of exiting with it; a refusal still raises
``SystemExit``.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import sys
from pathlib import Path

import numpy as np

# what every run needs; validate_config loads each pipeline's own module
from . import eigenfields as ef
from . import operators as ops
from ._kernels import _Record
from .linspace import StateVector

# the family a config that omits "family" runs, as its summary records it
_FAMILY = {"count": 256}
# ceilings of the torus scans: the diophantine pipeline scans one target
# per cell of a targets_per_angle ** angle_count grid, and the prime sieve
# behind the angles and every array of phases grow with angle_count
_MAX_CELLS = 4096
_MAX_ANGLES = 64
# ceilings of the horizons: a syndetic horizon costs one byte per power for
# the mask of D, and a density horizon 4 bytes per visit and target in the
# records, plus one byte per power and target while the scan runs
_MAX_SYNDETIC_HORIZON = 10**6
_MAX_DENSITY_HORIZON = 10**7
# each construct block's covering scan may run to p_max: 10**7 powers of an
# uncoverable net took 5.1 s over 8 terms, 5.0 s over one with 7 fixed angles
_MAX_COVERING_POWERS = 1 << 23
# N sizes no ergodicity array: correlation.csv keeps its first 10**4 rows,
# and the witness's closed form rounds its kernel phases pi N delta by about
# N * 2**-53 radians
_MAX_ERGODICITY_HORIZON = 10**7
# the Khinchine ratio and the expectation certificate keep one float64 per trial
_MAX_TRIALS = 10**7
# the perturbed diagonal's family takes d back-substitutions of up to d
# Python steps each, 0.8 s at d = 1024 on a 2-core host
_MAX_DIMENSION = 1024
# a family or Cantor seed takes its sqrt-prime angles from a prime sieve of
# about 20 bytes per angle
_MAX_FAMILY_COUNT = 1 << 20
# complex entries of a family (d x count) and of the visit certificate's
# weights (cert_samples x terms), 16 bytes each; a Cantor seed_count keeps
# the family count's ceiling
_MAX_ENTRIES = 1 << 24
# the keys of a config and of its operator and family objects
_KEYS = {
    "config": ("seed", "dimension", "operator", "family", "pipelines"),
    "operator": ("kind", "weight", "eps"),
    "family": ("count",),
}


class ExperimentConfig(_Record):
    """A validated config.  ``to_dict`` is the config the summary records;
    ``params`` maps "operator", "family" and each configured pipeline to
    its parameters with every default filled in."""

    __slots__ = ("seed", "dimension", "operator", "family", "pipelines", "params")

    def __eq__(self, other):
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def to_dict(self) -> dict:
        return {key: getattr(self, key) for key in _KEYS["config"]}


# Checks of the parameter tables: each takes a value and the config's
# bounds (see validate_config) and returns what is wrong with the value,
# or None.


# JSON numbers parse to exactly int or float; a bool is neither
def _is_number(value) -> bool:
    return type(value) is int or (type(value) is float and math.isfinite(value))


def _is_int(value, floor, ceiling=None) -> bool:
    return type(value) is int and floor <= value and (ceiling is None or value <= ceiling)


def _is_list(value, item) -> bool:
    """A non-empty list whose entries all pass ``item``."""
    return isinstance(value, list) and len(value) > 0 and all(item(x) for x in value)


def _is_numbers(value, n) -> bool:
    """A list of n finite numbers."""
    return isinstance(value, list) and len(value) == n and all(map(_is_number, value))


def _is_pairs(value) -> bool:
    return _is_list(value, lambda c: _is_numbers(c, 2))


def _check(message, ok):
    """The check that refuses with ``message`` each value ``ok`` rejects."""
    return lambda value, bounds: None if ok(value) else message


def _int(floor, ceiling=None):
    """An integer >= floor and <= ceiling, a number or the name of a bound
    taken from the config."""

    def check(value, bounds):
        hi = bounds[ceiling] if isinstance(ceiling, str) else ceiling
        if not _is_int(value, floor, hi):
            named = f", the {ceiling}" if isinstance(ceiling, str) else ""
            bound = f" and <= {hi}{named}" if hi is not None else ""
            return f"must be an integer >= {floor}{bound}"

    return check


_positive = _check("must be positive", lambda v: _is_number(v) and v > 0)
_bool = _check("must be true or false", lambda v: isinstance(v, bool))
_pairs = _check("must be a non-empty list of [re, im] pairs", _is_pairs)
_numbers = _check(
    "must be a list of finite numbers",
    lambda v: isinstance(v, list) and all(map(_is_number, v)),
)
# khinchine_report divides by the coefficients' l2 norm
_coefficients = _check(
    'must be {"equal": n} with an integer n >= 1 or a list of [re, im] pairs with a '
    "nonzero coefficient",
    lambda v: _is_int(v.get("equal"), 1)
    if isinstance(v, dict)
    else _is_pairs(v) and any(map(any, v)),
)
# chords never exceed 2, so eta >= 2 makes every power a return
_eta = _check("must be positive and below 2", lambda v: _is_number(v) and 0 < v < 2)


def _triples(value, bounds):
    """Construction target coefficients: [re, im, family index] triples."""
    last = bounds["last family index"]
    if not _is_list(value, lambda c: _is_numbers(c, 3) and _is_int(c[2], 0, last)):
        return (
            "must be a non-empty list of [re, im, index] triples with "
            f"index <= {last}, the last family index"
        )


def _p_max(steps) -> int:
    """The default construct p_max: 10**6, or less where p_max * steps would
    pass _MAX_COVERING_POWERS.  A steps that its own check refuses, or that
    no p_max >= 1 fits, gets 10**6, and the errors report it."""
    fits = _is_int(steps, 1, _MAX_COVERING_POWERS)
    return min(10**6, _MAX_COVERING_POWERS // steps) if fits else 10**6


# One row per parameter of each pipeline: (pipeline, key, default, check).
# A default may be a function of one dict that holds the bounds and the
# parameters resolved before it; a None default makes the key required.
# A check that names a table takes a non-empty list of objects, each
# resolved against that table's rows.
_PARAMS = (
    ("khinchine", "coefficients", {"equal": 100}, _coefficients),
    ("khinchine", "trials", 10**5, _int(1000, _MAX_TRIALS)),
    ("diophantine", "eta", 0.05, _eta),
    ("diophantine", "angle_count", 2, _int(1, _MAX_ANGLES)),
    ("diophantine", "targets_per_angle", 4, _int(1, _MAX_CELLS)),
    ("diophantine", "p_max", 10**6, _int(1)),
    ("syndetic", "eta", 0.1, _eta),
    ("syndetic", "angle_count", 2, _int(1, _MAX_ANGLES)),
    ("syndetic", "horizon", 10**5, _int(1000, _MAX_SYNDETIC_HORIZON)),
    ("ergodicity", "c", [[2**-0.5, 0], [2**-0.5, 0]], _pairs),
    ("ergodicity", "d", lambda b: b["c"], _pairs),
    ("ergodicity", "angles", [1.0, float(np.sqrt(2) % 1)], _numbers),
    ("ergodicity", "N", 10**5, _int(1000, _MAX_ERGODICITY_HORIZON)),
    ("cantor", "depth", 6, _int(0)),
    # the shift's seed: the first seed_count sqrt-prime angles, of which the
    # build reads those within its reach, and the field only at the tree's members
    ("cantor", "seed_count", lambda b: b["family size"], _int(1, "largest family count")),
    ("construct", "targets", None, "target"),
    ("construct", "steps", lambda b: b["number of targets"], _int(1, "number of targets")),
    ("construct", "trials", 2000, _int(2, _MAX_TRIALS)),
    ("construct", "cert_samples", 200, _int(1, "largest sample count for this family")),
    ("construct", "p_max", lambda b: _p_max(b["steps"]), _int(1)),
    ("density", "horizon", 2 * 10**5, _int(1, _MAX_DENSITY_HORIZON)),
    ("density", "coefficient", 0.5, _positive),
    ("density", "radius", 0.3, _positive),
    ("density", "angle_index", 0, _int(0, "last family index")),
    ("density", "use_construction", False, _bool),
    ("invariance", "trials", 10**4, _int(2)),
    ("invariance", "terms", 32, _int(1)),
    ("invariance", "probes", lambda b: min(8, b["dimension"]), _int(1, "dimension")),
    # a construction target: what ConstructionTarget and build_block accept
    ("target", "coefficients", None, _triples),
    ("target", "radius", 0.5, _positive),
    ("target", "reach_power", 1, _int(0, 2**62 - 1)),
)


# One row per ceiling on a cost that spans several parameters of one
# pipeline: (pipeline, what, cost of its resolved parameters p and the
# config's bounds b, ceiling).
# validate_config checks the rows in order once every parameter passes its
# own check, and a pipeline's first failed row ends its checks, so a cost
# may assume the rows before it hold.  Times are from a 2-core host.
_LIMITS = (
    # 10**8 draws took 3.7 s
    ("khinchine", "trials * coefficient count, the number of Steinhaus draws",
     lambda p, b: p["trials"]
     * (len(c) if isinstance(c := p["coefficients"], list) else c["equal"]),
     1 << 26),
    ("diophantine", "targets_per_angle ** angle_count, the cell count",
     lambda p, b: p["targets_per_angle"] ** p["angle_count"], _MAX_CELLS),
    # every unsolved cell tests the angle_count phases of each power a
    # coordinate at a time: at the ceiling, 2**22 powers of one unsolvable
    # cell over 64 angles at eta 1.5 took 0.3 s, 89,478,485 powers of one cell
    # over 3 at eta 0.001 2.3 s, 5461 of 4096 cells over 12 at eta 1.9 0.1 s
    ("diophantine", "p_max * angle_count * cell count, the phase tests of the scan",
     lambda p, b: p["p_max"] * p["angle_count"] * p["targets_per_angle"] ** p["angle_count"],
     1 << 28),
    # a chunk of powers at a time: horizon 10**6 over 16 angles took 0.16 s
    ("syndetic", "horizon * angle_count, the size of the phase array",
     lambda p, b: p["horizon"] * p["angle_count"], 1 << 24),
    # the difference check is quadratic in |D'|, the powers whose chords all
    # stay below eta / 2; at one angle |D'| = 12606 took 0.16 s and 16383 took 0.22 s
    ("syndetic", "horizon * (2 asin(eta / 4) / pi) ** angle_count, the expected size of D'",
     lambda p, b: p["horizon"] * (2 * math.asin(p["eta"] / 4) / math.pi) ** p["angle_count"],
     1 << 14),
    ("construct", "p_max * steps, the powers the covering scans may test",
     lambda p, b: p["p_max"] * p["steps"], _MAX_COVERING_POWERS),
    # the ball test of the density scans squares a radius and the norm of a
    # center, |coefficient| times a unit column, so below 2**500 each square
    # stays finite
    ("construct", "the largest target radius, whose square the density scan takes",
     lambda p, b: max(t["radius"] for t in p["targets"]), 2.0**500),
    ("density", "coefficient, whose square the ball test takes",
     lambda p, b: p["coefficient"], 2.0**500),
    ("density", "radius, whose square the ball test takes", lambda p, b: p["radius"], 2.0**500),
    # the invariance gap keeps two float64 moduli per probe and trial
    ("invariance", "trials * probes, the number of moduli per batch",
     lambda p, b: p["trials"] * p["probes"], 1 << 24),
    # the batches of Phi and T Phi each draw one Steinhaus variable per trial
    # and term: at the ceiling, 2**20 trials of 32 terms and 8 probes at
    # dimension 16 took 4.9 s
    ("invariance", "trials * min(terms, family size) * 2, the Steinhaus draws of both batches",
     lambda p, b: p["trials"] * min(p["terms"], b["family size"]) * 2, 1 << 26),
    # the correlation's constant term sum |c|^2 * sum |d|^2 bounds the cross
    # term too (Cauchy-Schwarz), so no correlation exceeds twice it, and the
    # running Cesaro sums of correlation.csv's min(N, 10**4) rows stay finite
    # below the ceiling, which leaves room for rounding
    ("ergodicity", "N * sum |c|^2 * sum |d|^2, a bound on the Cesaro sums",
     lambda p, b: p["N"] * _square_sum(p["c"]) * _square_sum(p["d"]), 2.0**1020),
    # a phase n * theta of a correlation.csv row, n < min(N, 10**4), of 2**52
    # or more has no fractional part left, and past the largest float it is
    # inf, whose exp makes the row NaN; the witness reads only theta % 1.0
    ("ergodicity", "N * the largest |angle|, a bound on the phases n * theta",
     lambda p, b: p["N"] * max(map(abs, p["angles"]), default=0), 2**52),
    # the witness's closed form holds a few k x k arrays of the angles' gaps,
    # about 56 bytes per pair: at the ceiling, 1024 angles took 0.12-0.16 s and 57 MiB
    ("ergodicity", "angle count ** 2, the pair terms of the witness",
     lambda p, b: len(p["angles"]) ** 2, 1 << 20),
)


def _square_sum(pairs) -> float:
    """sum |re + i im|^2 over [re, im] pairs: inf, not OverflowError, past
    the largest float."""
    return sum(re * re + im * im for re, im in pairs)


def _rows(table: str) -> dict:
    return {key: (default, check) for t, key, default, check in _PARAMS if t == table}


def _unknown_keys(where: str, given: dict, known, errors: list) -> None:
    errors.extend(
        f"{where}: unknown key {key!r}; known keys: {', '.join(known)}"
        for key in given
        if key not in known
    )


def _resolve(table: str, given: dict, where: str, bounds: dict, errors: list) -> dict:
    """The ``given`` parameters with the defaults of ``table``'s rows filled
    in; appends to ``errors`` each key no row names and each given value
    that its row's check refuses."""
    rows = _rows(table)
    _unknown_keys(where, given, rows, errors)
    resolved = {}
    for key, (default, check) in rows.items():
        if key not in given and default is not None:
            if callable(default):
                default = default({**bounds, **resolved})
            resolved[key] = default
            continue
        value = resolved[key] = given.get(key)
        if not isinstance(check, str):
            problem = check(value, bounds)
        elif _is_list(value, lambda v: isinstance(v, dict)):
            resolved[key] = [
                _resolve(check, v, f"{where}.{key}[{i}]", bounds, errors)
                for i, v in enumerate(value)
            ]
            problem = None
        else:
            problem = f"must be a non-empty list of {check} objects"
        if problem:
            errors.append(f"{where}.{key} {problem}")
    return resolved


def validate_config(text: str, horizon=None, seed=None):
    """Parse a config; returns (ExperimentConfig or None, list of errors).

    Each pipeline parameter's default and check is a row of ``_PARAMS``,
    and a key that no row names is refused, as is a key that ``_KEYS``
    does not name at the top level or in the operator or family.  Each
    ceiling that spans several parameters is a row of ``_LIMITS``.
    ``seed`` replaces the config's seed, and ``horizon`` the ``horizon``
    of every configured pipeline that has one (syndetic and density),
    whether the config sets it or not, before the checks, so the returned
    config records the values the run uses."""
    errors = []
    try:
        raw = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        return None, [f"invalid JSON: {exc}"]
    if not raw:
        return None, ["empty config"]
    if not isinstance(raw, dict):
        return None, ["config must be a JSON object"]
    if seed is not None:
        raw["seed"] = seed
    if "seed" not in raw:
        errors.append("missing seed (runs must be reproducible)")
    elif not _is_int(raw["seed"], 0):
        errors.append("seed must be an integer >= 0")
    dim = raw.get("dimension", 64)
    if not _is_int(dim, 1, _MAX_DIMENSION):
        errors.append(f"dimension must be an integer >= 1 and <= {_MAX_DIMENSION}")
    operator = raw.get("operator", {"kind": "scaled_backward_shift", "weight": 2.0})
    family = raw.get("family", _FAMILY)
    pipelines = raw.get("pipelines", {})
    objects = {"operator": operator, "family": family, "pipelines": pipelines}
    if isinstance(pipelines, dict):
        objects.update((f"pipelines.{name}", v) for name, v in pipelines.items())
    for name, value in objects.items():
        if not isinstance(value, dict):
            errors.append(f"{name} must be a JSON object")
    if errors:
        return None, errors
    for where, given in (("config", raw), ("operator", operator), ("family", family)):
        _unknown_keys(where, given, _KEYS[where], errors)
    op, count = {"eps": 0.1, **operator}, {**_FAMILY, **family}["count"]
    # a family of count sqrt-prime angles is d x count
    max_count = min(_MAX_FAMILY_COUNT, _MAX_ENTRIES // dim)
    if not _is_int(count, 1, max_count):
        return None, errors + [f"family count must be an integer >= 1 and <= {max_count}"]
    kind, weight, eps = op.get("kind"), op.get("weight"), op["eps"]
    if kind not in ("scaled_backward_shift", "perturbed_diagonal"):
        errors.append(f"unknown operator kind {kind!r}")
    # the summary records a given weight or eps, so each is checked whatever the kind
    weight_ok = _is_number(weight) and weight > 1
    if not weight_ok and ("weight" in op or kind == "scaled_backward_shift"):
        errors.append("shift weight must be a number > 1")
    if not (_is_number(eps) and eps >= 0):
        errors.append("perturbation eps must be a number >= 0")
    if not pipelines:
        errors.append("no pipelines requested")
    family_size = dim if kind == "perturbed_diagonal" else count
    targets = pipelines.get("construct", {}).get("targets")
    bounds = {
        "dimension": dim,
        "family size": family_size,
        "last family index": family_size - 1,
        "largest family count": max_count,
        # a block's terms are distinct family members
        "largest sample count for this family": _MAX_ENTRIES // family_size,
        # a missing or empty target list is reported by its own check
        "number of targets": len(targets) if isinstance(targets, list) and targets else None,
    }
    params = {"operator": op, "family": {"count": count}}
    for name, given in pipelines.items():
        if name not in _PIPELINES:
            errors.append(f"unknown pipeline {name!r}; known: {', '.join(_PIPELINES)}")
            continue
        if horizon is not None and "horizon" in _rows(name):
            given = pipelines[name] = {**given, "horizon": horizon}
        params[name] = _resolve(name, given, f"pipelines.{name}", bounds, errors)
    if errors:
        return None, errors
    failed = set()
    for name, what, cost, ceiling in _LIMITS:
        # a NaN cost is refused too
        if name in params and name not in failed and not cost(params[name], bounds) <= ceiling:
            failed.add(name)
            errors.append(f"pipelines.{name}.{what}, must be <= {ceiling}")
    erg = params.get("ergodicity")
    if erg and not len(erg["c"]) == len(erg["d"]) == len(erg["angles"]):
        errors.append("pipelines.ergodicity.c, d and angles must have equal lengths")
    if params.get("density", {}).get("use_construction") and "construct" not in params:
        errors.append(
            "pipelines.density.use_construction needs a construct pipeline: "
            "it scans the construction's orbit"
        )
    cantor = params.get("cantor")
    # a depth-n tree needs 2**n - 1 distinct right children besides the
    # root; bit lengths keep a huge depth from building 2**depth
    if cantor and cantor["depth"] > cantor["seed_count"].bit_length() - 1:
        # the perturbed diagonal's seed is its family, one member per dimension
        size = "dimension" if kind == "perturbed_diagonal" else "seed_count"
        errors.append(
            f"pipelines.cantor.depth {cantor['depth']} needs {size} >= "
            f"2**{cantor['depth']}, one seed member per leaf; {size} is "
            f"{cantor['seed_count']}"
        )
    if kind == "perturbed_diagonal" and "seed_count" in pipelines.get("cantor", {}):
        errors.append(
            "pipelines.cantor.seed_count needs a scaled_backward_shift operator: "
            "it samples the shift's eigenvector field"
        )
    if errors:
        return None, errors
    # each runner finds its module loaded
    for name in pipelines:
        importlib.import_module(f".{_PIPELINES[name][0]}", __package__)
    return ExperimentConfig(raw["seed"], dim, operator, family, pipelines, params), []


def _operator_and_family(cfg: ExperimentConfig) -> tuple:
    """The run's operator, and a once-only builder of its eigen family,
    which only the runners that read the family call: building it draws
    nothing, so no stream depends on whether it was built."""
    params, d = cfg.params["operator"], cfg.dimension
    if params["kind"] == "scaled_backward_shift":
        op = ops.make_scaled_backward_shift(params["weight"], d)
        count = cfg.params["family"]["count"]
        return op, functools.cache(lambda: ef.sample_2B_family(op.weight, d, count))
    op = ops.make_perturbed_diagonal(ef.qindependent_angles(d), params["eps"], d)
    return op, functools.cache(lambda: ef.diagonal_family(op))


def _complexes(rows) -> list:
    return [complex(re, im) for re, im in rows]


def run_experiment(cfg: ExperimentConfig, out_dir) -> int:
    """Run every configured pipeline; write summary.json and CSV details.

    Returns 0 iff every pipeline's PASS criterion holds; a pipeline that
    raises a domain error reports it as its result and fails.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    op, family = _operator_and_family(cfg)
    results = {}
    # what a pipeline leaves for a later one: the construction's orbit
    ctx = {}
    for stream, (name, (_, runner)) in enumerate(_PIPELINES.items()):
        if name not in cfg.pipelines:
            continue
        # disjoint deterministic streams per pipeline: a runner that draws
        # seeds its own generator with this entropy, the others ignore it
        entropy = [cfg.seed, stream]
        try:
            results[name] = runner(cfg, op, family, cfg.params[name], entropy, out, ctx)
        except (ValueError, ArithmeticError) as exc:
            # a domain error fails its pipeline; the others still run
            results[name] = {"error": str(exc), "passed": False}

    passed = all(result["passed"] for result in results.values())
    summary = {"config": cfg.to_dict(), "results": results, "passed": passed}
    (out / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n"
    )
    return 0 if passed else 1


def _run_khinchine(cfg, op, family, params, stream, out, ctx):
    from . import steinhaus as st

    rng = np.random.default_rng(stream)
    spec = params["coefficients"]
    if isinstance(spec, dict):
        coeffs = np.ones(spec["equal"], dtype=complex)
    else:
        coeffs = np.asarray(_complexes(spec))
    report = st.khinchine_report(coeffs, params["trials"], rng)
    return {
        "estimate": report.estimate,
        "stderr": report.stderr,
        "trials": report.trials,
        "passed": 0 < report.estimate <= 1.0,
    }


def _run_diophantine(cfg, op, family, params, stream, out, ctx):
    from . import diophantine as dio

    eta, k, per_angle = params["eta"], params["angle_count"], params["targets_per_angle"]
    angles = ef.qindependent_angles(k)
    grid = [np.exp(2j * np.pi * (i + 0.5) / per_angle) for i in range(per_angle)]
    cells = list(np.ndindex((per_angle,) * k))
    targets = [[grid[i] for i in idx] for idx in cells]
    solved = []
    powers = dio.first_returns(angles, targets, eta, params["p_max"])
    for idx, mu, p in zip(cells, targets, powers):
        ok = p is not None and bool(
            np.all(np.abs(np.exp(2j * np.pi * p * angles) - np.asarray(mu)) < eta)
        )
        solved.append({"target_cell": list(idx), "p": p, "verified": ok})
    return {"eta": eta, "solutions": solved, "passed": all(s["verified"] for s in solved)}


def _run_syndetic(cfg, op, family, params, stream, out, ctx):
    from . import diophantine as dio

    angles = ef.qindependent_angles(params["angle_count"])
    res = dio.syndetic_return_set(angles, params["eta"], params["horizon"])
    return {
        "set_size": len(res.times),
        "gap_bound": res.gap_bound,
        "inclusion_violations": len(res.violations),
        "passed": not res.violations,
    }


def _run_ergodicity(cfg, op, family, params, stream, out, ctx):
    from . import ergodicity as ergo

    c, d, N = _complexes(params["c"]), _complexes(params["d"]), params["N"]
    spec = ergo.CorrelationSpec(c, d, params["angles"])
    report = ergo.witness_report(spec, N)
    ergo.correlation_csv(spec.correlation(np.arange(min(N, 10**4))), out / "correlation.csv")
    return {
        "cesaro": report.cesaro,
        "witness": report.witness,
        "limit": report.limit,
        "bound": report.bound,
        "N": N,
        "passed": report.passed,
    }


def _run_cantor(cfg, op, family, params, stream, out, ctx):
    from . import cantor as cantor_mod

    depth = params["depth"]
    if op.kind == ops.SCALED_BACKWARD_SHIFT:
        # the shift's seed is its first seed_count sqrt-prime angles: the
        # build takes vector distances from angle gaps and makes the field
        # only at the tree's members
        seed = (ef.qindependent_angles(params["seed_count"]), op.weight, cfg.dimension)
    else:
        seed = family()
    field = cantor_mod.build_cantor_field(seed, depth)
    sep = cantor_mod.verify_cantor_separation(field)
    cantor_mod.field_to_csv(field, out / "cantor_field.csv")
    return {
        "depth": depth,
        "leaves": 2**depth,
        # a depth-0 tree has no branching node, so no margin
        "min_margin": sep.min_margin if sep.margins.size else None,
        "passed": sep.passed,
    }


def _run_construct(cfg, op, family, params, stream, out, ctx):
    from . import construction as cons

    rng = np.random.default_rng(stream)
    targets = [
        cons.ConstructionTarget(
            tuple((complex(re, im), int(i)) for re, im, i in t["coefficients"]),
            t["radius"],
            t["reach_power"],
        )
        for t in params["targets"]
    ]
    state, phi, report = cons.run_construction(
        op,
        family(),
        targets,
        params["steps"],
        rng,
        trials=params["trials"],
        cert_samples=params["cert_samples"],
        p_max=params["p_max"],
    )
    (out / "construction_state.json").write_text(state.to_json() + "\n")
    ctx["construction"] = state, phi
    return {
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


def _run_density(cfg, op, family, params, stream, out, ctx):
    from . import density as density_mod

    horizon = params["horizon"]

    # calibration: a single eigen-term whose visits to a ball around itself
    # are controlled by an explicit arc of angles
    coeff, radius, index = params["coefficient"], params["radius"], params["angle_index"]
    family = family()
    x = ef.EigenExpansion([coeff], family.take([index]))
    center = StateVector(coeff * family.vectors[:, index])
    visits = density_mod.visit_times(x, density_mod.TargetBall(center, radius), horizon).times.size
    arc = 2.0 * np.arcsin(min(radius / (2 * abs(coeff)), 1.0)) / np.pi
    frequency = visits / horizon
    error = abs(frequency - arc)
    calibration = {"arc_length": float(arc), "visit_frequency": frequency, "error": error}
    results = {"calibration": calibration, "passed": bool(error < 0.01)}

    # validate_config pairs use_construction with a construct pipeline; one
    # that reported a domain error leaves no orbit to scan
    if params["use_construction"] and "construction" in ctx:
        state, phi = ctx["construction"]
        phi_vec = phi.to_vector().entries
        targets = [
            density_mod.TargetBall(
                StateVector(phi_vec + b.center.entries),
                b.radius + 2.0 ** (-(b.index - 1)),
            )
            for b in state.blocks
        ]
        fhc = density_mod.fhc_harness(phi, targets, horizon)
        # one %-format per block over its first 10**4 times, so no visit
        # makes a str of its own
        lines = ["block,n\n"] + [
            f"{b.index},%d\n" * min(r.times.size, 10000) % tuple(r.times[:10000].tolist())
            for b, r in zip(state.blocks, fhc.records)
        ]
        (out / "visit_times.csv").write_text("".join(lines))
        results["construction_orbit"] = {
            "proxies": list(fhc.proxies),
            "passed": fhc.passed,
        }
        results["passed"] = results["passed"] and fhc.passed
    return results


def _run_invariance(cfg, op, family, params, stream, out, ctx):
    from . import steinhaus as st

    rng = np.random.default_rng(stream)
    family = family()
    n_terms = min(params["terms"], len(family))
    coeffs = 0.5 ** np.arange(1, n_terms + 1)
    series = ef.EigenExpansion(coeffs, family.take(slice(n_terms)))
    # probe k is the coordinate functional of e_k
    probes = np.eye(params["probes"], cfg.dimension, dtype=complex)
    report = st.invariance_gap(op, series, params["trials"], probes, rng)
    return {"max_gap": report.max_gap, "passed": report.within(3.0)}


# Every pipeline in run order with its module and runner.  A pipeline's
# position is the id of its random stream, so new pipelines go at the end.
_PIPELINES = {
    "khinchine": ("steinhaus", _run_khinchine),
    "diophantine": ("diophantine", _run_diophantine),
    "syndetic": ("diophantine", _run_syndetic),
    "ergodicity": ("ergodicity", _run_ergodicity),
    "cantor": ("cantor", _run_cantor),
    "construct": ("construction", _run_construct),
    "density": ("density", _run_density),
    "invariance": ("steinhaus", _run_invariance),
}


def main(args=None, standalone_mode=True):
    """Numerical laboratory for linear operator dynamics."""
    parser = argparse.ArgumentParser(prog="hyperlab", description=main.__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for f, path in ((validate, "--config"), (run, "--config"), (replay, "--summary")):
        cmd = sub.add_parser(f.__name__, help=f.__doc__, description=f.__doc__, allow_abbrev=False)
        cmd.add_argument(path, required=True, type=_text(path))
    sub.choices["run"].add_argument("--seed", type=int, help="override the config seed")
    sub.choices["run"].add_argument("--out", default="hyperlab-out")
    sub.choices["run"].add_argument("--horizon", type=int, help="override pipeline horizons")
    sub.choices["replay"].add_argument("--out", default="hyperlab-replay")
    parsed = parser.parse_args(args)
    status = globals()[parsed.command](parsed)
    if standalone_mode:
        sys.exit(status)
    return status


def _refuse(errors, status: int) -> None:
    if errors:
        print(*(f"error: {e}" for e in errors), sep="\n", file=sys.stderr)
        sys.exit(status)


def _text(flag: str):
    """The parser's ``type`` for ``flag``: the text of a readable UTF-8
    file; any other path is refused with exit 2."""

    def read(path):
        try:
            return Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            _refuse([f"{flag}: {exc}"], 2)

    return read


def _out_dir(path) -> Path:
    """``--out`` made a directory before any pipeline runs; refused with
    exit 2 if it cannot be."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _refuse([f"--out: {exc}"], 2)
    return Path(path)


def validate(args) -> int:
    """Validate a config file; nonzero exit with diagnostics on failure."""
    _refuse(validate_config(args.config)[1], 1)
    print("config OK")
    return 0


def run(args) -> int:
    """Run the configured pipelines and write summary.json + CSV details."""
    cfg, errors = validate_config(args.config, args.horizon, args.seed)
    _refuse(errors, 2)
    status = run_experiment(cfg, _out_dir(args.out))
    print(f"summary written to {Path(args.out) / 'summary.json'}")
    return status


def replay(args) -> int:
    """Re-run the config embedded in a summary and check byte-identity."""
    try:
        config = json.loads(args.summary)["config"]
    except json.JSONDecodeError as exc:
        _refuse([f"--summary: not a summary: invalid JSON: {exc}"], 2)
    except (TypeError, KeyError):
        _refuse(['--summary: not a summary: no JSON object with a "config" key'], 2)
    cfg, errors = validate_config(json.dumps(config))
    _refuse(errors, 2)
    run_experiment(cfg, _out_dir(args.out))
    new = (Path(args.out) / "summary.json").read_text()
    if new == args.summary:
        print("replay identical")
        return 0
    found = _first_difference(json.loads(args.summary), json.loads(new))
    detail = ": {}: recorded {}, replayed {}".format(*found) if found else ""
    print(f"replay DIFFERS from the recorded summary{detail}", file=sys.stderr)
    return 1


# the value of a key or index that one summary lacks
_ABSENT = object()


def _first_difference(old, new, path=""):
    """(path, recorded, replayed) of the first value, in the recorded
    summary's order, in which two parsed summaries differ: the path in
    dotted keys and [index] steps, each value as JSON text or ``absent``
    where one side lacks it; None if they hold the same values."""
    if isinstance(old, dict) and isinstance(new, dict):
        steps = [
            (old.get(key, _ABSENT), new.get(key, _ABSENT), f"{path}.{key}" if path else key)
            for key in {**old, **new}
        ]
    elif isinstance(old, list) and isinstance(new, list):
        steps = [
            (*(v[i] if i < len(v) else _ABSENT for v in (old, new)), f"{path}[{i}]")
            for i in range(max(len(old), len(new)))
        ]
    else:
        a, b = ("absent" if v is _ABSENT else json.dumps(v) for v in (old, new))
        return None if a == b else (path, a, b)
    for step in steps:
        found = _first_difference(*step)
        if found:
            return found
    return None


if __name__ == "__main__":
    main()
