import json
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import hyperlab
from hyperlab import cantor as cantor_mod
from hyperlab import construction as cons
from hyperlab import density
from hyperlab import diophantine as dio
from hyperlab import eigenfields as ef
from hyperlab import ergodicity as ergo
from hyperlab import operators as ops
from hyperlab import steinhaus as st
from hyperlab.cli import (
    _PIPELINES,
    _complexes,
    _first_difference,
    main,
    run_experiment,
    validate_config,
)
from hyperlab.linspace import StateVector

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


def read_summary(out):
    """summary.json of a run, refusing the NaN and Infinity that
    json.dumps writes but JSON does not allow."""
    return json.loads((out / "summary.json").read_text(), parse_constant=_refuse)


def invoke(capsys, args):
    """``hyperlab ARGS`` as the command line runs it: an exception other
    than the exit escapes.  ``output`` is stdout followed by stderr."""
    with pytest.raises(SystemExit) as exited:
        main(args)
    out, err = capsys.readouterr()
    return SimpleNamespace(exit_code=exited.value.code, output=out + err, stderr=err)


def small_config(**overrides):
    cfg = {
        "seed": 11,
        "dimension": 24,
        "operator": {"kind": "scaled_backward_shift", "weight": 2.0},
        "family": {"count": 96},
        "pipelines": {
            "khinchine": {"trials": 1500},
            "syndetic": {"eta": 0.5, "horizon": 2000},
            "ergodicity": {"N": 2000},
            "cantor": {"depth": 3, "seed_count": 128},
            "invariance": {"trials": 1500, "probes": 2, "terms": 8},
        },
    }
    cfg.update(overrides)
    return cfg


def test_validate_config_empty_and_malformed():
    cfg, errors = validate_config("")
    assert cfg is None and errors
    cfg, errors = validate_config("{not json")
    assert cfg is None and errors[0].startswith("invalid JSON")


def test_validate_config_field_errors():
    _, errors = validate_config(json.dumps({"pipelines": {"khinchine": {}}}))
    assert any("seed" in e for e in errors)
    _, errors = validate_config(
        json.dumps({"seed": 1, "dimension": 0, "pipelines": {"khinchine": {}}})
    )
    assert "dimension must be an integer >= 1 and <= 1024" in errors
    # a return time, reach_power plus a power of the scan, is an int64
    target = {"coefficients": [[0.5, 0, 3]], "reach_power": 2**62}
    _, errors = validate_config(
        json.dumps({"seed": 1, "pipelines": {"construct": {"targets": [target]}}})
    )
    refusal = f"targets[0].reach_power must be an integer >= 0 and <= {2**62 - 1}"
    assert f"pipelines.construct.{refusal}" in errors
    _, errors = validate_config(
        json.dumps(
            {"seed": 1, "operator": {"kind": "rotation"}, "pipelines": {"khinchine": {}}}
        )
    )
    assert any("operator kind" in e for e in errors)
    _, errors = validate_config(
        json.dumps({"seed": 1, "pipelines": {"mystery": {}}})
    )
    assert any("unknown pipeline" in e for e in errors)
    _, errors = validate_config(
        json.dumps({"seed": 1, "pipelines": {"syndetic": {"eta": -0.5}}})
    )
    assert any("eta must be positive" in e for e in errors)
    _, errors = validate_config(json.dumps({"seed": 1, "pipelines": {}}))
    assert "no pipelines requested" in errors


def test_validate_config_round_trips():
    raw = small_config()
    cfg, errors = validate_config(json.dumps(raw))
    assert not errors
    assert json.loads(json.dumps(cfg.to_dict())) == raw
    cfg2, errors2 = validate_config(json.dumps(cfg.to_dict()))
    assert not errors2 and cfg2.to_dict() == cfg.to_dict()


def test_cli_validate_command(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(small_config()))
    result = invoke(capsys, ["validate", "--config", str(good)])
    assert result.exit_code == 0 and "config OK" in result.output
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"pipelines": {"khinchine": {}}}))
    result = invoke(capsys, ["validate", "--config", str(bad)])
    assert result.exit_code == 1
    # outside standalone mode the status of a completed command is returned
    assert main(["validate", "--config", str(good)], standalone_mode=False) == 0
    assert capsys.readouterr().out == "config OK\n"


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg, errors = validate_config(json.dumps(small_config()))
    assert not errors
    status = run_experiment(cfg, out)
    return out, status


def test_run_experiment_passes_and_writes_summary(run_dir):
    out, status = run_dir
    assert status == 0
    summary = read_summary(out)
    assert summary["passed"]
    assert set(summary["results"]) == {
        "khinchine",
        "syndetic",
        "ergodicity",
        "cantor",
        "invariance",
    }
    for result in summary["results"].values():
        assert result["passed"]
    assert (out / "cantor_field.csv").exists()
    assert (out / "correlation.csv").exists()


def test_replay_is_byte_identical(run_dir, tmp_path, capsys):
    out, _ = run_dir
    result = invoke(
        capsys,
        [
            "replay",
            "--summary",
            str(out / "summary.json"),
            "--out",
            str(tmp_path / "replay"),
        ],
    )
    assert result.exit_code == 0, result.output
    assert "replay identical" in result.output


def test_replay_names_the_first_difference(run_dir, tmp_path, capsys):
    out, _ = run_dir
    summary = read_summary(out)
    recorded = summary["results"]["khinchine"]["estimate"]
    summary["results"]["khinchine"]["estimate"] = recorded + 0.5
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    result = invoke(capsys, ["replay", "--summary", str(edited), "--out", str(tmp_path / "replay")])
    assert result.exit_code == 1
    assert (
        "replay DIFFERS from the recorded summary: results.khinchine.estimate: "
        f"recorded {json.dumps(recorded + 0.5)}, replayed {json.dumps(recorded)}"
    ) in result.output


def test_first_difference_paths():
    assert _first_difference({"a": [1, {"b": 2}]}, {"a": [1, {"b": 2}]}) is None
    assert _first_difference({"a": [1, {"b": 2}], "c": 3}, {"a": [1, {"b": 4}], "c": 5}) == (
        "a[1].b",
        "2",
        "4",
    )
    assert _first_difference({"a": 1.0}, {"a": 1}) == ("a", "1.0", "1")
    assert _first_difference({"a": [1]}, {"a": [1, 2]}) == ("a[1]", "absent", "2")
    assert _first_difference({"a": 1, "b": 2}, {"a": 1}) == ("b", "2", "absent")


def test_seed_override_changes_monte_carlo_results(run_dir, tmp_path):
    out, _ = run_dir
    cfg, _ = validate_config(json.dumps(small_config(seed=99)))
    other = tmp_path / "other"
    run_experiment(cfg, other)
    a = read_summary(out)
    b = read_summary(other)
    assert (
        a["results"]["khinchine"]["estimate"]
        != b["results"]["khinchine"]["estimate"]
    )


def test_construct_and_density_pipelines(tmp_path):
    cfg_raw = {
        "seed": 5,
        "dimension": 32,
        "operator": {"kind": "scaled_backward_shift", "weight": 2.0},
        "family": {"count": 256},
        "pipelines": {
            "construct": {
                "targets": [
                    {"coefficients": [[0.5, 0.0, 3]], "radius": 0.5, "reach_power": 1},
                    {"coefficients": [[0.4, 0.0, 11]], "radius": 0.5, "reach_power": 1},
                ],
                "trials": 1500,
                "cert_samples": 100,
            },
            "density": {"horizon": 3000, "use_construction": True},
        },
    }
    cfg, errors = validate_config(json.dumps(cfg_raw))
    assert not errors
    out = tmp_path / "out"
    status = run_experiment(cfg, out)
    summary = read_summary(out)
    assert status == 0 and summary["passed"]
    assert summary["results"]["construct"]["passed"]
    assert summary["results"]["density"]["construction_orbit"]["passed"]
    assert (out / "construction_state.json").exists()
    assert (out / "visit_times.csv").exists()


def test_visit_times_csv_lists_each_block_in_order(tmp_path, monkeypatch):
    """One line per visit, at most 10000 per block, and nothing for a block
    with no visits."""
    cfg_raw = {
        "seed": 5,
        "dimension": 32,
        "operator": {"kind": "scaled_backward_shift", "weight": 2.0},
        "family": {"count": 256},
        "pipelines": {
            "construct": {
                "targets": [
                    {"coefficients": [[0.5, 0.0, i]], "radius": 0.5, "reach_power": 1}
                    for i in (3, 11, 20)
                ],
                "trials": 1500,
                "cert_samples": 100,
            },
            "density": {"horizon": 3000, "use_construction": True},
        },
    }
    ball = density.TargetBall(StateVector([0.0]), 1.0)
    records = [
        density.VisitRecord(np.arange(0, 24000, 2), 24000, ball),
        density.VisitRecord((), 24000, ball),
        density.VisitRecord((5, 17, 2999), 24000, ball),
    ]
    monkeypatch.setattr(
        density,
        "fhc_harness",
        lambda x, targets, N: density.FhcReport(tuple(records), (0.5, 0.0, 0.1), False),
    )
    cfg, errors = validate_config(json.dumps(cfg_raw))
    assert not errors
    run_experiment(cfg, tmp_path)
    expected = ["block,n"] + [f"1,{n}" for n in range(0, 20000, 2)] + ["3,5", "3,17", "3,2999"]
    assert (tmp_path / "visit_times.csv").read_text() == "\n".join(expected) + "\n"


def test_run_command_rejects_invalid_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    result = invoke(capsys, ["run", "--config", str(bad)])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "args",
    [
        [],
        ["simulate"],
        ["validate"],
        ["run", "--config", "config.json", "--seed", "x"],
        # options are not matched by prefix
        ["run", "--config", "config.json", "--hor", "10"],
        ["replay", "--summary", "summary.json", "--extra"],
    ],
    ids=["no-command", "unknown-command", "no-config", "seed-not-int", "prefix", "extra"],
)
def test_a_malformed_command_line_exits_2_with_usage_on_stderr(
    tmp_path, capsys, monkeypatch, args
):
    # the default --out is relative to the working directory
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(json.dumps(small_config()))
    Path("summary.json").write_text("{}")
    result = invoke(capsys, args)
    assert result.exit_code == 2
    assert result.output == result.stderr and "usage:" in result.stderr.lower()
    assert not (tmp_path / "hyperlab-out").exists()


@pytest.mark.parametrize("command", ["validate", "run", "replay"])
@pytest.mark.parametrize("path", ["directory", "not-utf8.json", "missing.json"])
def test_a_path_argument_that_is_not_a_readable_utf8_file_is_refused(
    tmp_path, capsys, command, path
):
    (tmp_path / "directory").mkdir()
    (tmp_path / "not-utf8.json").write_bytes(b'\xff{"seed": 1}')
    flag = "--summary" if command == "replay" else "--config"
    out = tmp_path / "out"
    outs = [] if command == "validate" else ["--out", str(out)]
    result = invoke(capsys, [command, flag, str(tmp_path / path), *outs])
    assert result.exit_code == 2
    assert result.stderr.startswith(f"error: {flag}: ") and "Traceback" not in result.output
    assert not out.exists()


@pytest.mark.parametrize(
    "text, missing",
    [("not json", "invalid JSON"), ("[1, 2]", '"config" key'), ('{"results": {}}', '"config" key')],
    ids=["not-json", "array", "no-config"],
)
def test_replay_refuses_a_file_that_is_not_a_summary(tmp_path, capsys, text, missing):
    summary = tmp_path / "summary.json"
    summary.write_text(text)
    out = tmp_path / "replay"
    result = invoke(capsys, ["replay", "--summary", str(summary), "--out", str(out)])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: --summary: not a summary: ")
    assert missing in result.stderr and "Traceback" not in result.output
    assert not out.exists()


def test_an_out_path_that_is_a_file_is_refused_before_any_pipeline_runs(
    run_dir, tmp_path, capsys, monkeypatch
):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(small_config()))
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    monkeypatch.setattr("hyperlab.cli.run_experiment", lambda *args: pytest.fail("ran"))
    summary = str(run_dir[0] / "summary.json")
    for args in (["run", "--config", str(config)], ["replay", "--summary", summary]):
        result = invoke(capsys, args + ["--out", str(taken)])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: --out: ") and "Traceback" not in result.output
        assert taken.read_text() == "a file\n"


def test_perturbed_diagonal_config(tmp_path):
    cfg_raw = {
        "seed": 3,
        "dimension": 12,
        "operator": {"kind": "perturbed_diagonal", "eps": 0.2},
        "family": {"count": 12},
        "pipelines": {"khinchine": {"trials": 1500}},
    }
    cfg, errors = validate_config(json.dumps(cfg_raw))
    assert not errors
    assert run_experiment(cfg, tmp_path / "pd") == 0
    read_summary(tmp_path / "pd")


@pytest.mark.parametrize(
    "kind, pipelines, builds",
    [
        # khinchine, syndetic, ergodicity and the shift's cantor never read the family
        ("scaled_backward_shift", {"khinchine": {"trials": 1500}, "cantor": {"depth": 2}}, 0),
        ("perturbed_diagonal", {"khinchine": {"trials": 1500}}, 0),
        ("perturbed_diagonal", {"syndetic": {"horizon": 2000}, "cantor": {"depth": 0}}, 1),
        # three readers build it once
        (
            "scaled_backward_shift",
            {"density": {"horizon": 3000}, "invariance": {"trials": 1500, "terms": 8}},
            1,
        ),
        (
            "perturbed_diagonal",
            {"density": {"horizon": 3000}, "invariance": {"trials": 1500, "terms": 8}},
            1,
        ),
    ],
)
def test_a_run_builds_its_family_only_for_the_pipelines_that_read_it(
    tmp_path, monkeypatch, kind, pipelines, builds
):
    calls = []
    for name in ("sample_2B_family", "diagonal_family"):
        build = getattr(ef, name)
        monkeypatch.setattr(
            ef, name, lambda *args, build=build: calls.append(args) or build(*args)
        )
    raw = {
        "seed": 3,
        "dimension": 12,
        "operator": {"kind": kind, "weight": 2.0, "eps": 0.2},
        "family": {"count": 12},
        "pipelines": pipelines,
    }
    cfg, errors = validate_config(json.dumps(raw))
    assert not errors
    assert run_experiment(cfg, tmp_path) in (0, 1)
    assert len(calls) == builds
    assert set(read_summary(tmp_path)["results"]) == set(pipelines)


def test_density_without_construction_writes_summary(tmp_path):
    cfg_raw = {
        "seed": 3,
        "dimension": 12,
        "operator": {"kind": "perturbed_diagonal", "eps": 0.2},
        "family": {"count": 12},
        "pipelines": {"density": {"horizon": 3000}},
    }
    cfg, errors = validate_config(json.dumps(cfg_raw))
    assert not errors
    status = run_experiment(cfg, tmp_path / "density")
    summary = read_summary(tmp_path / "density")
    result = summary["results"]["density"]
    assert result["passed"] is summary["passed"] is (status == 0)
    assert set(result) == {"calibration", "passed"}


def test_validate_rejects_cantor_seed_count_without_shift():
    cfg_raw = {
        "seed": 3,
        "dimension": 12,
        "operator": {"kind": "perturbed_diagonal", "eps": 0.2},
        "pipelines": {"cantor": {"depth": 0, "seed_count": 64}},
    }
    cfg, errors = validate_config(json.dumps(cfg_raw))
    assert cfg is None and any("pipelines.cantor.seed_count" in e for e in errors)
    del cfg_raw["pipelines"]["cantor"]["seed_count"]
    cfg, errors = validate_config(json.dumps(cfg_raw))
    assert not errors
    # the diagonal family, one member per dimension, is the seed
    cfg_raw["pipelines"]["cantor"]["depth"] = 4
    cfg, errors = validate_config(json.dumps(cfg_raw))
    assert cfg is None and any("needs dimension >= 2**4" in e for e in errors)


def test_cantor_seed_family_too_small_reports_failure(tmp_path, capsys):
    config = tmp_path / "small_seed.json"
    config.write_text(
        json.dumps(small_config(pipelines={"cantor": {"depth": 3, "seed_count": 8}}))
    )
    out = tmp_path / "out"
    result = invoke(capsys, ["run", "--config", str(config), "--out", str(out)])
    # exit 1 through sys.exit, not an escaped CantorBuildError
    assert result.exit_code == 1
    summary = read_summary(out)
    cantor = summary["results"]["cantor"]
    assert cantor["passed"] is False and "no admissible right child" in cantor["error"]
    assert summary["passed"] is False


def test_a_cantor_run_at_a_shift_weight_whose_square_overflows_passes(tmp_path):
    cfg, errors = validate_config(json.dumps({
        "seed": 1,
        "dimension": 64,
        "operator": {"kind": "scaled_backward_shift", "weight": 1e160},
        "pipelines": {"cantor": {"depth": 3, "seed_count": 64}},
    }))
    assert not errors
    assert run_experiment(cfg, tmp_path) == 0
    cantor = read_summary(tmp_path)["results"]["cantor"]
    assert cantor["passed"] is True and cantor["leaves"] == 8


def test_perturbed_diagonal_cantor_failure_names_the_nearest_members(tmp_path):
    cfg, errors = validate_config(json.dumps({
        "seed": 1,
        "dimension": 16,
        "operator": {"kind": "perturbed_diagonal", "eps": 0.2},
        "pipelines": {"cantor": {"depth": 2}},
    }))
    assert not errors
    assert run_experiment(cfg, tmp_path) == 1
    # the root is member 0, every other member is unused at level 1, and
    # a depth-2 build reads those within _reach(2) of the root
    op = ops.make_perturbed_diagonal(ef.qindependent_angles(16), 0.2, 16)
    family = ef.diagonal_family(op)
    offsets = (family.thetas[1:] - family.thetas[0] + 0.5) % 1.0 - 0.5
    near = 1 + np.flatnonzero(np.abs(offsets) <= cantor_mod._reach(2))
    chord = np.abs(np.exp(2j * np.pi * family.thetas[near]) - np.exp(2j * np.pi * family.thetas[0]))
    dist = np.linalg.norm(family.vectors[:, near] - family.vectors[:, [0]], axis=0)
    # the members lie near the coordinate vectors: close in angle, far apart
    assert chord.min() < 0.5 < dist.min()
    assert read_summary(tmp_path)["results"]["cantor"] == {
        "error": "no admissible right child for node '' at level 1 (need chord < 0.5, "
        "vector distance < 0.5; nearest unused members in reach: "
        f"chord {chord.min():.3g}, vector distance {dist.min():.3g})",
        "passed": False,
    }


def test_depth_zero_cantor_run_writes_valid_json(tmp_path):
    cfg, errors = validate_config(json.dumps({"seed": 1, "pipelines": {"cantor": {"depth": 0}}}))
    assert not errors
    assert run_experiment(cfg, tmp_path) == 0
    cantor = read_summary(tmp_path)["results"]["cantor"]
    # a lone root has no branching node, so no margin to report
    assert cantor["min_margin"] is None and cantor["passed"] is True


@pytest.mark.parametrize(
    "scale", [1e200, 1e-170, 5e-324], ids=["overflow", "underflow", "subnormal"]
)
def test_khinchine_ratio_does_not_depend_on_the_scale(tmp_path, scale):
    # |a|**2 overflows at 1e200 and underflows at 1e-170, and 1 / 5e-324
    # overflows, but one coefficient's ratio is exactly 1 at any scale
    khinchine = {"coefficients": [[scale, 0]], "trials": 1000}
    cfg, errors = validate_config(json.dumps({"seed": 1, "pipelines": {"khinchine": khinchine}}))
    assert not errors, errors
    assert run_experiment(cfg, tmp_path) == 0
    result = read_summary(tmp_path)["results"]["khinchine"]
    assert result["estimate"] == 1.0 and result["passed"] is True


_CESARO_SUMS = "N * sum |c|^2 * sum |d|^2, a bound on the Cesaro sums", 2.0**1020


def _correlation_csv_is_finite(spec, N, tmp_path) -> bool:
    """Whether every correlation and running Cesaro average is finite in
    the correlation.csv of a run at N: its first min(N, 10**4) rows."""
    with np.errstate(over="ignore", invalid="ignore"):
        ergo.correlation_csv(spec.correlation(np.arange(min(N, 10**4))), tmp_path / "rows.csv")
    rows = (tmp_path / "rows.csv").read_text().splitlines()[1:]
    return all(math.isfinite(float(x)) for row in rows for x in row.split(",")[1:])


@pytest.mark.parametrize(
    "c, d, N",
    [
        # sum |c|^2 * sum |d|^2 overflows
        ([[1e200, 0]], [[1e200, 0]], 1000),
        # inf * 0: the constant term is NaN
        ([[1e200, 0]], [[0, 0]], 1000),
        # every correlation is finite, but not the sum of N of them
        ([[3e76, 0], [3e76, 0]], [[3e76, 0], [3e76, 0]], 1000),
    ],
    ids=["overflow", "nan", "sum-overflow"],
)
def test_validate_refuses_an_ergodicity_witness_that_overflows(tmp_path, c, d, N):
    angles = [0.3, 0.5][: len(c)]
    spec = ergo.CorrelationSpec(*map(_complexes, (c, d)), angles)
    assert not _correlation_csv_is_finite(spec, N, tmp_path)
    ergodicity = {"c": c, "d": d, "angles": angles, "N": N}
    cfg, errors = validate_config(json.dumps({"seed": 1, "pipelines": {"ergodicity": ergodicity}}))
    assert cfg is None
    what, ceiling = _CESARO_SUMS
    assert errors == [f"pipelines.ergodicity.{what}, must be <= {ceiling}"]


_PHASES = "N * the largest |angle|, a bound on the phases n * theta", 2**52


def test_validate_refuses_ergodicity_angles_whose_phases_overflow(tmp_path, capsys):
    # n * 1e308 is inf for every n > 1, so the CSV's rows are NaN; the
    # witness reads 1e308 % 1.0 = 0.0 and stays finite
    spec = ergo.CorrelationSpec([2**-0.5] * 2, [2**-0.5] * 2, [1e308, 0.5])
    assert not _correlation_csv_is_finite(spec, 1000, tmp_path)
    report = ergo.witness_report(spec, 1000)
    assert math.isfinite(report.witness) and math.isfinite(report.cesaro)
    raw = {"seed": 1, "dimension": 8, "family": {"count": 16}}
    raw["pipelines"] = {"ergodicity": {"N": 1000, "angles": [1e308, 0.5]}}
    what, ceiling = _PHASES
    refusal = f"pipelines.ergodicity.{what}, must be <= {ceiling}"
    assert validate_config(json.dumps(raw)) == (None, [refusal])
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(raw))
    for command, status in ((["validate"], 1), (["run", "--out", str(tmp_path / "out")], 2)):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--config", str(path)], standalone_mode=False)
        assert exc.value.code == status
        assert capsys.readouterr().err == f"error: {refusal}\n"
    assert not (tmp_path / "out").exists()
    # an empty angle list costs nothing: only its length is refused
    raw["pipelines"]["ergodicity"]["angles"] = []
    _, errors = validate_config(json.dumps(raw))
    assert errors == ["pipelines.ergodicity.c, d and angles must have equal lengths"]


def test_validate_refuses_more_angle_pairs_than_the_witness_takes():
    # validation only: nothing here is run
    def errors(count):
        ergodicity = {"c": [[1, 0]] * count, "d": [[1, 0]] * count, "angles": [0.5] * count}
        return validate_config(json.dumps(_holes_config({"ergodicity": ergodicity})))[1]

    assert errors(1024) == []
    what = "angle count ** 2, the pair terms of the witness"
    assert errors(1025) == [f"pipelines.ergodicity.{what}, must be <= {2**20}"]


def test_an_ergodicity_witness_below_the_overflow_ceiling_is_finite(tmp_path):
    ergodicity = {"c": [[1e75, 0]], "d": [[1e75, 0]], "angles": [0.3], "N": 1000}
    cfg, errors = validate_config(json.dumps({"seed": 1, "pipelines": {"ergodicity": ergodicity}}))
    assert not errors, errors
    assert run_experiment(cfg, tmp_path) == 0
    result = read_summary(tmp_path)["results"]["ergodicity"]
    assert result["passed"] is True
    assert result["witness"] == pytest.approx(1e300, rel=1e-12)


_BALL = "whose square the ball test takes"


@pytest.mark.parametrize(
    "pipelines, what",
    [
        # t.radius**2 raises OverflowError
        ({"density": {"horizon": 100, "radius": 1e300}}, f"density.radius, {_BALL}"),
        # inf - inf in the ball test: no power visits, and the calibration passes
        ({"density": {"horizon": 100, "coefficient": 1e300}}, f"density.coefficient, {_BALL}"),
        (
            {
                "construct": {"targets": [{"coefficients": [[0.5, 0, 3]], "radius": 1e300}]},
                "density": {"horizon": 100, "use_construction": True},
            },
            "construct.the largest target radius, whose square the density scan takes",
        ),
    ],
    ids=["density-radius", "density-coefficient", "construct-radius"],
)
def test_a_ball_whose_square_overflows_is_refused(tmp_path, capsys, pipelines, what):
    raw = {"seed": 1, "dimension": 8, "family": {"count": 16}, "pipelines": pipelines}
    refusal = f"pipelines.{what}, must be <= {2.0**500}"
    assert validate_config(json.dumps(raw)) == (None, [refusal])
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(raw))
    for command, status in ((["validate"], 1), (["run", "--out", str(tmp_path / "out")], 2)):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--config", str(path)], standalone_mode=False)
        assert exc.value.code == status
        assert capsys.readouterr().err == f"error: {refusal}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_balls_at_the_square_ceiling_run_clean(tmp_path):
    big = 2.0**500
    pipelines = {
        "construct": {"targets": [{"coefficients": [[0.5, 0, 3]], "radius": big}]},
        "density": {"horizon": 100, "coefficient": big, "radius": big, "use_construction": True},
    }
    raw = {"seed": 1, "dimension": 8, "family": {"count": 16}, "pipelines": pipelines}
    cfg, errors = validate_config(json.dumps(raw))
    assert not errors, errors
    assert run_experiment(cfg, tmp_path) == 0
    assert read_summary(tmp_path)["results"]["density"]["passed"] is True


# runs a workload config in a fresh interpreter and prints whether the run
# imported numpy.ma, which numpy's first np.unique call does
_NO_MA = """
import json, sys
sys.path[:0] = sys.argv[1:3]
from workloads import WORKLOADS
from hyperlab.cli import run_experiment, validate_config
cfg, errors = validate_config(json.dumps(WORKLOADS[sys.argv[3]](1, small=True)))
assert not errors, errors
assert run_experiment(cfg, __import__("pathlib").Path(sys.argv[4])) == 0
print("numpy.ma" in sys.modules)
"""


@pytest.mark.parametrize("workload", ["cantor-field", "orbit", "monte-carlo"])
def test_workload_runs_do_not_import_numpy_ma(workload, tmp_path):
    src = str(Path(hyperlab.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", _NO_MA, src, str(PERFBENCH), workload, str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize(
    "pipeline, params, key",
    [
        ("density", {"horizon": 0}, "horizon"),
        ("khinchine", {"trials": 999}, "trials"),
        ("khinchine", {"coefficients": [[0, 0]]}, "coefficients"),
        ("cantor", {"depth": -1, "seed_count": 64}, "depth"),
        ("cantor", {"depth": 2, "seed_count": 0}, "seed_count"),
        # a depth-n tree has 2**n distinct seed members as leaves
        ("cantor", {"depth": 70}, "depth"),
        ("cantor", {"depth": 3, "seed_count": 4}, "depth"),
        # the orbit it would scan is the construct pipeline's
        ("density", {"horizon": 1000, "use_construction": True}, "use_construction"),
        ("syndetic", {"horizon": 999}, "horizon"),
        # each would exhaust memory in one allocation
        ("ergodicity", {"N": 10**12}, "N"),
        ("khinchine", {"trials": 10**12}, "trials"),
        ("invariance", {"trials": 10**12}, "trials"),
        ("khinchine", {"coefficients": {"equal": 10**10}}, "trials * coefficient count"),
        ("khinchine", {"trials": 10**6}, "trials * coefficient count"),
        (None, {"family": {"count": 10**10}}, "family count"),
        (None, {"dimension": 10**8}, "dimension"),
        (None, {"dimension": 1024, "family": {"count": 2**15}}, "family count"),
        ("cantor", {"seed_count": 10**10}, "seed_count"),
        ("cantor", {"depth": 3, "seed_count": 2**20}, "seed_count"),
        ("construct", {"targets": [{"coefficients": [[0.5, 0, 3]]}], "trials": 10**10}, "trials"),
        (
            "construct",
            {"targets": [{"coefficients": [[0.5, 0, 3]]}], "cert_samples": 10**10},
            "cert_samples",
        ),
    ],
    ids=[
        "density.horizon",
        "khinchine.trials",
        "khinchine.coefficients-zero",
        "cantor.depth",
        "cantor.seed_count",
        "cantor.depth-70",
        "cantor.depth-over-seed",
        "density.use_construction-without-construct",
        "syndetic.horizon",
        "ergodicity.N-huge",
        "khinchine.trials-huge",
        "invariance.trials-huge",
        "khinchine.coefficients-huge",
        "khinchine.draws-huge",
        "family.count-huge",
        "dimension-huge",
        "family.entries-huge",
        "cantor.seed_count-huge",
        "cantor.seed-entries-huge",
        "construct.trials-huge",
        "construct.cert_samples-huge",
    ],
)
def test_validate_rejects_what_run_refuses(pipeline, params, key):
    if pipeline is None:  # a top-level key
        raw, where = small_config(**params), key
    else:
        raw, where = small_config(pipelines={pipeline: params}), f"pipelines.{pipeline}.{key}"
    cfg, errors = validate_config(json.dumps(raw))
    assert cfg is None and any(where in e for e in errors), errors


def test_validate_accepts_every_workload_and_the_readme_config():
    sys.path.insert(0, str(PERFBENCH))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(PERFBENCH))
    readme = (PERFBENCH.parent / "README.md").read_text()
    configs = [json.loads(readme.split("```json\n")[1].split("```")[0])]
    configs += [make(1, small) for make in WORKLOADS.values() for small in (False, True)]
    for raw in configs:
        cfg, errors = validate_config(json.dumps(raw))
        assert not errors, (raw, errors)


def test_invariance_terms_beyond_the_family_run_the_whole_family(tmp_path):
    # the pipeline reads at most one term per family member
    outs = []
    for terms in (10**10, 96):
        raw = small_config(pipelines={"invariance": {"trials": 1000, "probes": 2, "terms": terms}})
        cfg, errors = validate_config(json.dumps(raw))
        assert not errors, errors
        assert run_experiment(cfg, tmp_path / str(terms)) in (0, 1)
        outs.append(read_summary(tmp_path / str(terms))["results"])
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "w, d, count, depth, builds",
    [(2.0, 32, 256, 3, True), (2.0, 64, 256, 4, True), (2.0, 64, 256, 5, False)],
    ids=["builds-3", "builds-4", "fails-5"],
)
def test_cantor_pipeline_gives_the_tree_of_the_whole_family(tmp_path, w, d, count, depth, builds):
    # the pipeline samples only the arc of the seed the build can read, in
    # angle order; the tree is the one the whole family in prime order gives
    try:
        field = cantor_mod.build_cantor_field(ef.sample_2B_family(w, d, count), depth)
    except cantor_mod.CantorBuildError as exc:
        expected = {"error": str(exc), "passed": False}
    else:
        sep = cantor_mod.verify_cantor_separation(field)
        cantor_mod.field_to_csv(field, tmp_path / "reference.csv")
        leaves, margin = 2**depth, sep.min_margin
        expected = {"depth": depth, "leaves": leaves, "min_margin": margin, "passed": sep.passed}
    assert ("error" not in expected) == builds, expected
    for cantor in ({"depth": depth}, {"depth": depth, "seed_count": count}):
        raw = {
            "seed": 1,
            "dimension": d,
            "operator": {"kind": "scaled_backward_shift", "weight": w},
            "family": {"count": count},
            "pipelines": {"cantor": cantor},
        }
        cfg, errors = validate_config(json.dumps(raw))
        assert not errors, errors
        out = tmp_path / str(len(cantor))
        assert run_experiment(cfg, out) == (1 if "error" in expected else 0)
        assert read_summary(out)["results"]["cantor"] == expected
        if "error" in expected:
            assert not (out / "cantor_field.csv").exists()
        else:
            reference = (tmp_path / "reference.csv").read_bytes()
            assert (out / "cantor_field.csv").read_bytes() == reference


@pytest.mark.parametrize(
    "overrides",
    [
        {"operator": 3},
        {"family": [96]},
        {"pipelines": {"syndetic": {"eta": "big"}}},
        {"pipelines": {"khinchine": 5}},
    ],
    ids=["operator", "family", "eta", "pipeline"],
)
def test_validate_reports_mistyped_fields(tmp_path, overrides, capsys):
    config = tmp_path / "typed.json"
    config.write_text(json.dumps(small_config(**overrides)))
    result = invoke(capsys, ["validate", "--config", str(config)])
    # exit 1 through sys.exit with a diagnostic, not an escaped exception
    assert result.exit_code == 1
    assert "error:" in result.output


def test_horizon_override_is_recorded_and_replays(tmp_path, capsys):
    config = tmp_path / "syndetic.json"
    config.write_text(
        json.dumps(small_config(pipelines={"syndetic": {"eta": 0.5, "horizon": 2000}}))
    )
    out = tmp_path / "out"
    result = invoke(
        capsys, ["run", "--config", str(config), "--out", str(out), "--horizon", "5000"]
    )
    assert result.exit_code == 0, result.output
    summary = read_summary(out)
    assert summary["config"]["pipelines"]["syndetic"]["horizon"] == 5000
    result = invoke(
        capsys,
        ["replay", "--summary", str(out / "summary.json"), "--out", str(tmp_path / "re")],
    )
    assert result.exit_code == 0 and "replay identical" in result.output
    # an override below a pipeline's floor is refused like a config value
    result = invoke(capsys, ["run", "--config", str(config), "--horizon", "10"])
    assert result.exit_code == 2 and "pipelines.syndetic.horizon" in result.output
    # the override reaches pipelines whose config leaves horizon to its default
    config.write_text(
        json.dumps(small_config(pipelines={"density": {}, "syndetic": {"eta": 0.5}}))
    )
    out = tmp_path / "omitted"
    result = invoke(
        capsys, ["run", "--config", str(config), "--out", str(out), "--horizon", "1000"]
    )
    assert result.exit_code == 0, result.output
    summary = read_summary(out)
    for name in ("density", "syndetic"):
        assert summary["config"]["pipelines"][name]["horizon"] == 1000
    result = invoke(
        capsys,
        ["replay", "--summary", str(out / "summary.json"), "--out", str(tmp_path / "re2")],
    )
    assert result.exit_code == 0 and "replay identical" in result.output


def _holes_config(pipelines, kind="scaled_backward_shift"):
    operator = {"kind": kind, "weight": 2.0, "eps": 0.2}
    return {
        "seed": 3,
        "dimension": 12,
        "operator": operator,
        "family": {"count": 16},
        "pipelines": pipelines,
    }


TARGET = {"coefficients": [[0.5, 0.0, 3]], "radius": 0.5}


@pytest.mark.parametrize(
    "pipelines, kind",
    [
        ({"invariance": {"probes": 20}}, "scaled_backward_shift"),
        ({"invariance": {"probes": 0}}, "scaled_backward_shift"),
        ({"invariance": {"terms": 0}}, "scaled_backward_shift"),
        ({"density": {"angle_index": 99}}, "scaled_backward_shift"),
        ({"density": {"angle_index": 12}}, "perturbed_diagonal"),
        ({"density": {"coefficient": float("inf")}}, "scaled_backward_shift"),
        ({"construct": {"targets": [TARGET], "trials": "many"}}, "scaled_backward_shift"),
        (
            {"construct": {"targets": [{"coefficients": [[0.5, 0.0, 300]]}]}},
            "scaled_backward_shift",
        ),
        ({"construct": {"trials": 100}}, "scaled_backward_shift"),
        ({"construct": {"targets": [TARGET], "steps": 2}}, "scaled_backward_shift"),
        ({"construct": {"targets": [TARGET], "cert_samples": 0}}, "scaled_backward_shift"),
        (
            {
                "construct": {"targets": [TARGET], "steps": 0},
                "density": {"horizon": 100, "use_construction": True},
            },
            "scaled_backward_shift",
        ),
        ({"ergodicity": {"N": 10}}, "scaled_backward_shift"),
        ({"syndetic": {"angle_count": 0}}, "scaled_backward_shift"),
        ({"syndetic": {"eta": 5}}, "scaled_backward_shift"),
        ({"diophantine": {"angle_count": "two"}}, "scaled_backward_shift"),
        ({"diophantine": {"targets_per_angle": 0}}, "scaled_backward_shift"),
        ({"diophantine": {"p_max": 0}}, "scaled_backward_shift"),
        ({"diophantine": {"eta": 2.0}}, "scaled_backward_shift"),
        ({"construct": {"targets": [TARGET], "p_max": 0}}, "scaled_backward_shift"),
        ({"khinchine": {"coefficients": {"equal": 0}}}, "scaled_backward_shift"),
        ({"khinchine": {"coefficients": []}}, "scaled_backward_shift"),
        ({"ergodicity": {"N": 1000, "c": [[1]]}}, "scaled_backward_shift"),
        ({"ergodicity": {"N": 1000, "d": []}}, "scaled_backward_shift"),
        ({"ergodicity": {"N": 1000, "angles": "x"}}, "scaled_backward_shift"),
        ({"ergodicity": {"N": 1000, "angles": [0.1, 0.2, 0.3]}}, "scaled_backward_shift"),
        ({"invariance": {"trials": "many"}}, "scaled_backward_shift"),
        ({"invariance": {"trials": 1}}, "scaled_backward_shift"),
        ({"diophantine": {"angle_count": 30, "targets_per_angle": 2}}, "scaled_backward_shift"),
        ({"diophantine": {"angle_count": 10**9, "targets_per_angle": 1}}, "scaled_backward_shift"),
        ({"syndetic": {"angle_count": 10**9}}, "scaled_backward_shift"),
        ({"syndetic": {"horizon": 10**6 + 1, "angle_count": 1}}, "scaled_backward_shift"),
        ({"syndetic": {"horizon": 10**6, "angle_count": 17}}, "scaled_backward_shift"),
        ({"syndetic": {"horizon": 10**12}}, "scaled_backward_shift"),
        ({"density": {"horizon": 10**7 + 1}}, "scaled_backward_shift"),
        ({"density": {"horizon": 10**12}}, "scaled_backward_shift"),
        # each would scan for hours
        (
            {
                "diophantine": {
                    "eta": 0.001,
                    "angle_count": 3,
                    "targets_per_angle": 1,
                    "p_max": 10**12,
                }
            },
            "scaled_backward_shift",
        ),
        ({"construct": {"targets": [TARGET], "p_max": 10**12}}, "scaled_backward_shift"),
        # |D'| of about 315,000 powers for the quadratic difference check
        ({"syndetic": {"eta": 1.9, "horizon": 10**6, "angle_count": 1}}, "scaled_backward_shift"),
    ],
    ids=[
        "invariance.probes>dimension",
        "invariance.probes=0",
        "invariance.terms=0",
        "density.angle_index>family",
        "density.angle_index>diagonal-family",
        "density.coefficient=Infinity",
        "construct.trials=many",
        "construct.target-index>family",
        "construct.no-targets",
        "construct.steps>targets",
        "construct.cert_samples=0",
        "construct.steps=0",
        "ergodicity.N=10",
        "syndetic.angle_count=0",
        "syndetic.eta=5",
        "diophantine.angle_count=two",
        "diophantine.targets_per_angle=0",
        "diophantine.p_max=0",
        "diophantine.eta=2",
        "construct.p_max=0",
        "khinchine.coefficients=equal-0",
        "khinchine.coefficients=empty",
        "ergodicity.c=[[1]]",
        "ergodicity.d=empty",
        "ergodicity.angles=x",
        "ergodicity.angles-longer-than-c",
        "invariance.trials=many",
        "invariance.trials=1",
        "diophantine.cells=2**30",
        "diophantine.angle_count=10**9",
        "syndetic.angle_count=10**9",
        "syndetic.horizon>10**6",
        "syndetic.phases>2**24",
        "syndetic.horizon=10**12",
        "density.horizon>10**7",
        "density.horizon=10**12",
        "diophantine.p_max=10**12",
        "construct.p_max=10**12",
        "syndetic.d-prime-315000",
    ],
)
def test_validate_rejects_configs_that_crash_run(tmp_path, pipelines, kind, capsys):
    config = tmp_path / "hole.json"
    config.write_text(json.dumps(_holes_config(pipelines, kind)))
    result = invoke(capsys, ["validate", "--config", str(config)])
    assert result.exit_code == 1
    assert "error: pipelines." in result.output


def test_validate_names_the_diophantine_cell_count():
    def errors(angle_count, targets_per_angle):
        # a p_max that keeps the scan's phase tests below their own ceiling
        params = {"angle_count": angle_count, "targets_per_angle": targets_per_angle, "p_max": 1000}
        return validate_config(json.dumps(_holes_config({"diophantine": params})))[1]

    assert errors(6, 4) == [] and errors(12, 2) == []  # 4096 cells
    assert errors(64, 1) == []
    for angle_count, targets_per_angle in ((13, 2), (2, 65), (7, 4)):
        (error,) = errors(angle_count, targets_per_angle)
        assert "pipelines.diophantine" in error and "cell count" in error


def test_validate_names_the_horizon_ceilings():
    def errors(pipelines):
        return validate_config(json.dumps(_holes_config(pipelines)))[1]

    # the ceilings themselves pass; nothing here is run
    assert errors({"syndetic": {"horizon": 10**6, "angle_count": 16}}) == []
    assert errors({"density": {"horizon": 10**7}}) == []
    (error,) = errors({"syndetic": {"horizon": 10**6 + 1, "angle_count": 1}})
    assert "pipelines.syndetic.horizon" in error and "1000000" in error
    (error,) = errors({"syndetic": {"horizon": 10**6, "angle_count": 17}})
    assert "pipelines.syndetic.horizon * angle_count" in error and str(2**24) in error
    (error,) = errors({"density": {"horizon": 10**7 + 1}})
    assert "pipelines.density.horizon" in error and "10000000" in error


def _syndetic_horizon_at_the_d_prime_ceiling(eta, angle_count):
    """The largest horizon whose expected |D'| is at most 2**14."""
    share = (2 * math.asin(eta / 4) / math.pi) ** angle_count
    horizon = int(2**14 / share)
    while horizon * share > 2**14:
        horizon -= 1
    while (horizon + 1) * share <= 2**14:
        horizon += 1
    return horizon


_PHASE_TESTS = "p_max * angle_count * cell count, the phase tests of the scan", 2**28
_COVERING_POWERS = "p_max * steps, the powers the covering scans may test", 2**23
_D_PRIME = "horizon * (2 asin(eta / 4) / pi) ** angle_count, the expected size of D'", 2**14
_DRAWS = "trials * min(terms, family size) * 2, the Steinhaus draws of both batches", 2**26


@pytest.mark.parametrize(
    "pipeline, params, key, largest, limit",
    [
        ("diophantine", {"angle_count": 1, "targets_per_angle": 1}, "p_max", 2**28, _PHASE_TESTS),
        # 2 angles times 4 cells
        ("diophantine", {"angle_count": 2, "targets_per_angle": 2}, "p_max", 2**25, _PHASE_TESTS),
        ("construct", {"targets": [TARGET]}, "p_max", 2**23, _COVERING_POWERS),
        ("construct", {"targets": [TARGET, TARGET]}, "p_max", 2**22, _COVERING_POWERS),
        # N * 2**504 * 2**504 <= 2**1020
        (
            "ergodicity",
            {"c": [[2.0**252, 0]], "d": [[2.0**252, 0]], "angles": [0.3]},
            "N",
            2**12,
            _CESARO_SUMS,
        ),
        # N * 2**40 <= 2**52, whatever the sign of the angle
        ("ergodicity", {"angles": [0.3, -(2.0**40)]}, "N", 2**12, _PHASES),
        (
            "syndetic",
            {"eta": 1.9, "angle_count": 1},
            "horizon",
            _syndetic_horizon_at_the_d_prime_ceiling(1.9, 1),
            _D_PRIME,
        ),
        (
            "syndetic",
            {"eta": 1.99, "angle_count": 2},
            "horizon",
            _syndetic_horizon_at_the_d_prime_ceiling(1.99, 2),
            _D_PRIME,
        ),
        # 2**26 // 6 trials of 3 terms, one probe so the moduli stay below theirs
        ("invariance", {"terms": 3, "probes": 1}, "trials", 2**26 // 6, _DRAWS),
        # the run takes the family's 16 members of the 64 terms
        ("invariance", {"terms": 64, "probes": 1}, "trials", 2**21, _DRAWS),
    ],
    ids=[
        "diophantine-one-cell",
        "diophantine-four-cells",
        "construct-one-step",
        "construct-two-steps",
        "ergodicity-cesaro-sums",
        "ergodicity-phases",
        "syndetic-one-angle",
        "syndetic-two-angles",
        "invariance-three-terms",
        "invariance-family-size",
    ],
)
def test_limits_accept_their_ceiling_and_refuse_one_more(pipeline, params, key, largest, limit):
    # validation only: nothing here is run
    def errors(value):
        raw = _holes_config({pipeline: {**params, key: value}})
        return validate_config(json.dumps(raw))[1]

    what, ceiling = limit
    assert errors(largest) == []
    assert errors(largest + 1) == [f"pipelines.{pipeline}.{what}, must be <= {ceiling}"]


@pytest.mark.parametrize("count", [1, 8, 9, 100])
def test_the_default_construct_p_max_fits_under_its_ceiling(count):
    # validation only: nothing here is run
    raw = _holes_config({"construct": {"targets": [TARGET] * count}})
    cfg, errors = validate_config(json.dumps(raw))
    assert not errors, errors
    assert cfg.params["construct"]["p_max"] == min(10**6, 2**23 // count)


@pytest.mark.parametrize(
    "construct",
    # with no targets, steps resolves to None
    [{"targets": [TARGET], "steps": 0}, {"targets": [TARGET], "steps": "abc"}, {"targets": []}],
    ids=["steps=0", "steps=abc", "no-targets"],
)
def test_the_default_construct_p_max_leaves_a_refused_steps_to_its_check(construct):
    _, errors = validate_config(json.dumps(_holes_config({"construct": construct})))
    assert errors and not [e for e in errors if "p_max" in e]


@pytest.mark.parametrize(
    "operator, error",
    [
        ({"kind": "perturbed_diagonal", "weight": "abc"}, "shift weight must be a number > 1"),
        ({"kind": "perturbed_diagonal", "weight": 1}, "shift weight must be a number > 1"),
        (
            {"kind": "scaled_backward_shift", "weight": 2, "eps": "abc"},
            "perturbation eps must be a number >= 0",
        ),
        (
            {"kind": "scaled_backward_shift", "weight": 2, "eps": -1},
            "perturbation eps must be a number >= 0",
        ),
    ],
    ids=["diagonal-weight=abc", "diagonal-weight=1", "shift-eps=abc", "shift-eps=-1"],
)
def test_validate_checks_a_given_weight_and_eps_whatever_the_kind(operator, error):
    raw = {**_holes_config({"cantor": {"depth": 1}}), "operator": operator}
    assert validate_config(json.dumps(raw)) == (None, [error])


def test_horizon_override_meets_the_ceilings():
    # run --horizon passes its value to validate_config; nothing here is run
    text = json.dumps(_holes_config({"syndetic": {}, "density": {}}))
    for horizon, key in ((10**6 + 1, "syndetic.horizon"), (10**7 + 1, "density.horizon")):
        cfg, errors = validate_config(text, horizon=horizon)
        assert cfg is None and any(e.startswith(f"pipelines.{key}") for e in errors)


@pytest.mark.parametrize(
    "overrides, error",
    [
        ({"dimension": True}, "dimension must be an integer >= 1"),
        ({"seed": -1}, "seed must be an integer >= 0"),
        ({"seed": True}, "seed must be an integer >= 0"),
    ],
    ids=["dimension=true", "seed=-1", "seed=true"],
)
def test_validate_refuses_bool_and_negative_seed_and_dimension(
    tmp_path, overrides, error, capsys
):
    raw = {**_holes_config({"invariance": {"trials": 1000}}), **overrides}
    config = tmp_path / "top.json"
    config.write_text(json.dumps(raw))
    result = invoke(capsys, ["validate", "--config", str(config)])
    assert result.exit_code == 1
    assert f"error: {error}" in result.output


def test_seed_override_is_checked_like_a_config_seed(tmp_path, capsys):
    config = tmp_path / "seeded.json"
    config.write_text(json.dumps(_holes_config({"invariance": {"trials": 1000}})))
    out = tmp_path / "negative"
    result = invoke(capsys, ["run", "--config", str(config), "--out", str(out), "--seed", "-1"])
    assert result.exit_code == 2
    assert "error: seed must be an integer >= 0" in result.output and not out.exists()
    out = tmp_path / "override"
    result = invoke(capsys, ["run", "--config", str(config), "--out", str(out), "--seed", "4"])
    assert result.exit_code in (0, 1), result.output
    assert read_summary(out)["config"]["seed"] == 4


def test_empty_syndetic_return_set_reports_failure(tmp_path, capsys):
    config = tmp_path / "tight.json"
    raw = {
        "seed": 1,
        "dimension": 8,
        "family": {"count": 8},
        "pipelines": {"syndetic": {"angle_count": 10, "eta": 0.1, "horizon": 1000}},
    }
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert invoke(capsys, ["validate", "--config", str(config)]).exit_code == 0
    result = invoke(capsys, ["run", "--config", str(config), "--out", str(out)])
    # exit 1 through sys.exit, not an escaped ValueError
    assert result.exit_code == 1
    syndetic = read_summary(out)["results"]["syndetic"]
    assert syndetic["passed"] is False and "return set empty" in syndetic["error"]


@pytest.mark.parametrize(
    "overrides, where, key, known",
    [
        (
            {"pipelines": {"syndetic": {"eta": 0.5, "horizn": 1000}}},
            "pipelines.syndetic",
            "horizn",
            "eta, angle_count, horizon",
        ),
        (
            {"pipelines": {"construct": {"targets": [{**TARGET, "radus": 0.5}]}}},
            "pipelines.construct.targets[0]",
            "radus",
            "coefficients, radius, reach_power",
        ),
        ({"dimensoin": 8}, "config", "dimensoin", "seed, dimension, operator, family, pipelines"),
        (
            {"operator": {"kind": "scaled_backward_shift", "wieght": 3.0, "weight": 2.0}},
            "operator",
            "wieght",
            "kind, weight, eps",
        ),
        ({"family": {"count": 16, "cuont": 5}}, "family", "cuont", "count"),
    ],
    ids=[
        "syndetic.horizn",
        "construct.targets.radus",
        "config.dimensoin",
        "operator.wieght",
        "family.cuont",
    ],
)
def test_validate_refuses_unknown_keys(tmp_path, overrides, where, key, known, capsys):
    config = tmp_path / "typo.json"
    config.write_text(json.dumps({**_holes_config({"invariance": {"trials": 1000}}), **overrides}))
    result = invoke(capsys, ["validate", "--config", str(config)])
    assert result.exit_code == 1
    assert result.output == f"error: {where}: unknown key {key!r}; known keys: {known}\n"


_NO_HANDLER = {
    "khinchine": {"coefficients": {"equal": 8}, "trials": 1000},
    "diophantine": {"eta": 0.5, "angle_count": 1, "targets_per_angle": 2, "p_max": 1000},
    "ergodicity": {"N": 1000},
    "cantor": {"depth": 1},
    "construct": {"targets": [TARGET], "trials": 2, "cert_samples": 1},
    "density": {"horizon": 1000},
    "invariance": {"trials": 200, "probes": 2, "terms": 4},
}


@pytest.fixture(scope="module")
def no_handler_results(tmp_path_factory):
    cfg, errors = validate_config(json.dumps(_holes_config(_NO_HANDLER)))
    assert not errors
    out = tmp_path_factory.mktemp("no-handler")
    run_experiment(cfg, out)
    return read_summary(out)["results"]


# the errors the lab's own checks raise
_DOMAIN_ERRORS = (cons.ConstructionError, cantor_mod.CantorBuildError, dio.NetCoverageError)


@pytest.mark.parametrize(
    "pipeline, module, kernel, error",
    [
        ("khinchine", st, "khinchine_report", ValueError),
        ("diophantine", dio, "first_returns", OverflowError),
        ("ergodicity", ergo, "witness_report", ZeroDivisionError),
        ("density", density, "visit_times", ValueError),
        ("invariance", st, "invariance_gap", FloatingPointError),
        ("cantor", cantor_mod, "build_cantor_field", cantor_mod.CantorBuildError),
        ("construct", cons, "build_block", cons.ConstructionError),
        ("construct", cons, "covering_scan", lambda _: dio.NetCoverageError((1 + 0j,), 1000)),
    ],
    ids=[
        "khinchine",
        "diophantine",
        "ergodicity",
        "density",
        "invariance",
        "cantor-build",
        "construction",
        "net-coverage",
    ],
)
def test_domain_errors_of_any_pipeline_are_reported_not_raised(
    tmp_path, monkeypatch, no_handler_results, pipeline, module, kernel, error, capsys
):
    exc = error(f"{kernel} refused its input")
    if isinstance(exc, _DOMAIN_ERRORS):
        # run_experiment's handler names ValueError and ArithmeticError only
        assert isinstance(exc, ValueError) and not isinstance(exc, RuntimeError)

    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(module, kernel, fail)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_holes_config(_NO_HANDLER)))
    out = tmp_path / "out"
    result = invoke(capsys, ["run", "--config", str(config), "--out", str(out)])
    # exit 1 through sys.exit, not an escaped exception
    assert result.exit_code == 1
    assert "Traceback" not in result.output
    summary = read_summary(out)
    assert summary["passed"] is False
    assert summary["results"] == {
        **no_handler_results,
        pipeline: {"error": str(exc), "passed": False},
    }


# in a fresh interpreter, prints as JSON lines the hyperlab modules loaded
# once cli is imported and once the config argv[2] is validated, then every
# module, from any package, that its run adds; the records are plain
# classes, so dataclasses is loaded at neither point
_IMPORTS = """
import json, sys
sys.path.insert(0, sys.argv[1])
at_start = set(sys.modules)

def loaded():
    assert "dataclasses" not in sys.modules, "dataclasses is loaded"
    return sorted(m for m in sys.modules if m.partition(".")[0] == "hyperlab")

from hyperlab import cli
# the command line loads no package but numpy besides the standard library
added = {m.partition(".")[0] for m in set(sys.modules) - at_start}
assert added <= {"hyperlab", "numpy", *sys.stdlib_module_names}, added
print(json.dumps(loaded()))
cfg, errors = cli.validate_config(sys.argv[2])
assert not errors, errors
print(json.dumps(loaded()))
before = set(sys.modules)
cli.run_experiment(cfg, sys.argv[3])
print(json.dumps(sorted(set(sys.modules) - before)))
"""
_CLI_MODULES = ["_kernels", "cli", "eigenfields", "linspace", "operators"]
# the modules a pipeline loads besides cli's: its own and those it imports
_PIPELINE_MODULES = {
    "khinchine": ["steinhaus"],
    "diophantine": ["diophantine"],
    "syndetic": ["diophantine"],
    "ergodicity": ["ergodicity", "steinhaus"],
    "cantor": ["cantor"],
    "construct": ["construction", "diophantine", "steinhaus"],
    "density": ["density"],
    "invariance": ["steinhaus"],
}
# the pipelines that draw, each from a generator it makes on its stream
_DRAWING = ("khinchine", "construct", "invariance")


def _hyperlab_modules(names) -> list:
    return sorted(["hyperlab", *(f"hyperlab.{name}" for name in names)])


@pytest.mark.parametrize("pipeline", list(_PIPELINE_MODULES))
def test_a_run_loads_only_the_modules_of_its_pipelines(tmp_path, pipeline):
    assert list(_PIPELINE_MODULES) == list(_PIPELINES)
    params = {**_NO_HANDLER, "syndetic": {"angle_count": 1, "horizon": 1000, "eta": 1.9}}
    config = json.dumps(_holes_config({pipeline: params[pipeline]}))
    src = str(Path(hyperlab.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", _IMPORTS, src, config, str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    after_cli, after_validate, run_adds = map(json.loads, result.stdout.splitlines())
    assert after_cli == _hyperlab_modules(_CLI_MODULES)
    assert after_validate == _hyperlab_modules(_CLI_MODULES + _PIPELINE_MODULES[pipeline])
    assert "dataclasses" not in run_adds
    if pipeline in _DRAWING:
        # making the generator loads numpy.random and what it imports
        assert "numpy.random" in run_adds
        assert not [m for m in run_adds if m.partition(".")[0] == "hyperlab"], run_adds
    else:
        assert run_adds == []


def test_a_drawing_pipeline_gives_the_same_result_alone_and_beside_every_other(tmp_path):
    # all eight pipelines, the draw-free ones between the drawing ones included
    pipelines = {
        **_NO_HANDLER,
        "syndetic": {"angle_count": 1, "horizon": 1000, "eta": 1.9},
        "density": {"horizon": 1000, "use_construction": True},
    }
    assert sorted(pipelines) == sorted(_PIPELINES)

    def results(names, out):
        cfg, errors = validate_config(json.dumps(_holes_config({n: pipelines[n] for n in names})))
        assert not errors, errors
        run_experiment(cfg, out)
        return read_summary(out)["results"]

    together = results(pipelines, tmp_path / "all")
    for name in _DRAWING:
        assert "error" not in together[name], together[name]
        assert results([name], tmp_path / name)[name] == together[name], name
    state = "construction_state.json"
    assert (tmp_path / "construct" / state).read_bytes() == (tmp_path / "all" / state).read_bytes()


_PACKAGE = """
import sys
sys.path.insert(0, sys.argv[1])
import hyperlab
print(sorted(m for m in sys.modules if m.partition(".")[0] == "hyperlab"))
print(hyperlab.density.visit_times.__module__, "hyperlab._kernels" in sys.modules)
try:
    hyperlab.no_such_module
except AttributeError as exc:
    print(exc)
"""


def test_the_package_loads_each_module_on_first_use():
    src = str(Path(hyperlab.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", _PACKAGE, src], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "['hyperlab']",
        "hyperlab.density True",
        "module 'hyperlab' has no attribute 'no_such_module'",
    ]


def test_validate_accepts_the_bounds_and_run_completes(tmp_path):
    pipelines = {
        "invariance": {"trials": 2, "probes": 12, "terms": 1},
        "construct": {"targets": [TARGET], "steps": 1, "trials": 2, "cert_samples": 1},
        "density": {"horizon": 100, "angle_index": 11},
        "ergodicity": {"N": 1000, "c": [[1, 0]], "angles": [0.5]},
        "syndetic": {"angle_count": 1, "horizon": 1000, "eta": 1.9},
        "diophantine": {"angle_count": 1, "targets_per_angle": 1, "p_max": 1, "eta": 1.9},
        "khinchine": {"coefficients": {"equal": 1}, "trials": 1000},
    }
    for kind in ("scaled_backward_shift", "perturbed_diagonal"):
        cfg, errors = validate_config(json.dumps(_holes_config(pipelines, kind)))
        assert not errors, errors
        assert run_experiment(cfg, tmp_path / kind) in (0, 1)
        read_summary(tmp_path / kind)


def _many_targets(n):
    return [{"coefficients": [[0.5, 0.0, 3 * i + 1]], "radius": 0.5} for i in range(n)]


@pytest.mark.parametrize(
    "construct, error",
    [
        ({"targets": [TARGET], "p_max": 1}, "no power p <= 1 solves the net point"),
        # the sixth block's budget is so small that its split tolerance
        # squares to zero
        (
            {"targets": _many_targets(6), "trials": 200, "cert_samples": 20},
            "underflows double precision",
        ),
        (
            {"targets": [{**TARGET, "reach_power": 2000}]},
            "block 1: ||T||**2000 overflows double precision",
        ),
        # two terms at eta ~ 1e-3 make a net of about 10**8 cells
        (
            {
                "targets": [{"coefficients": [[0.5, 0, 3], [0.5, 0, 5]], "radius": 0.001}],
                "trials": 200,
                "cert_samples": 20,
            },
            "has more than 16777216 cells",
        ),
    ],
    ids=["net-coverage", "construction", "reach-power-overflow", "net-cells"],
)
def test_construction_errors_are_reported_not_raised(tmp_path, construct, error, capsys):
    config = tmp_path / "construct.json"
    cfg = _holes_config({"construct": construct})
    cfg["family"]["count"] = 64
    config.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    result = invoke(capsys, ["run", "--config", str(config), "--out", str(out)])
    # exit 1 through sys.exit, not an escaped NetCoverageError or ConstructionError
    assert result.exit_code == 1
    summary = read_summary(out)
    construct_result = summary["results"]["construct"]
    assert construct_result["passed"] is False and error in construct_result["error"]
    assert summary["passed"] is False


@pytest.mark.parametrize("ceiling, passed", [(20119, False), (20120, True)])
def test_visit_certificate_above_its_ceiling_is_reported(
    tmp_path, monkeypatch, ceiling, passed, capsys
):
    # a one-term net of 1006 cells at 20 samples: 20120 terms to test
    monkeypatch.setattr(cons, "_MAX_VISIT_TERMS", ceiling)
    target = {"coefficients": [[0.5, 0, 3]], "radius": 0.01}
    cfg = _holes_config({"construct": {"targets": [target], "cert_samples": 20}})
    cfg["family"]["count"] = 64
    config = tmp_path / "construct.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    result = invoke(capsys, ["run", "--config", str(config), "--out", str(out)])
    construct_result = read_summary(out)["results"]["construct"]
    assert (out / "construction_state.json").exists() == passed
    if passed:
        assert result.exit_code == 0 and construct_result["passed"]
    else:
        assert result.exit_code == 1
        assert construct_result == {
            "error": "block 1: the visit certificate would test 20120 terms "
            "(cert_samples x return times x terms), more than 20119",
            "passed": False,
        }


def _random_config(rng):
    """A small config over one to three pipelines, drawn near the floors
    of the parameter table, with a construct target's reach power at times
    far above them; some draws break a check that spans parameters, such
    as a Cantor depth above log2(seed_count)."""
    kind = ["scaled_backward_shift", "perturbed_diagonal"][rng.integers(2)]
    dim, count = int(rng.integers(1, 17)), int(rng.integers(1, 65))
    size = dim if kind == "perturbed_diagonal" else count

    def num(lo, hi):
        return float(rng.uniform(lo, hi))

    def pairs(n):
        return [[num(-1, 1), num(-1, 1)] for _ in range(n)]

    def target():
        coefficients = [
            [num(-1, 1), num(-1, 1), int(rng.integers(size))]
            for _ in range(rng.integers(1, 3))
        ]
        reach = int(10 ** rng.integers(1, 5)) if rng.random() < 0.2 else int(rng.integers(4))
        return {"coefficients": coefficients, "radius": num(0.001, 1), "reach_power": reach}

    n = int(rng.integers(1, 4))
    draws = {
        "khinchine": lambda: {
            "coefficients": {"equal": int(rng.integers(1, 20))} if rng.random() < 0.5 else pairs(n),
            "trials": int(rng.integers(1000, 3000)),
        },
        "diophantine": lambda: {
            "eta": num(0.01, 1.99),
            "angle_count": n,
            "targets_per_angle": int(rng.integers(1, 4)),
            "p_max": int(rng.integers(1, 10**4)),
        },
        "syndetic": lambda: {
            "eta": num(0.01, 1.99),
            "angle_count": n,
            "horizon": int(rng.integers(1000, 5000)),
        },
        "ergodicity": lambda: {
            "c": pairs(n),
            "d": pairs(n),
            "angles": [num(-2, 2) for _ in range(n)],
            "N": int(rng.integers(1000, 3000)),
        },
        "cantor": lambda: {"depth": int(rng.integers(0, 5))}
        | ({"seed_count": int(rng.integers(1, 300))} if rng.random() < 0.5 else {}),
        "construct": lambda: {
            "targets": [target() for _ in range(n)],
            "trials": int(rng.integers(2, 300)),
            "cert_samples": int(rng.integers(1, 50)),
            "p_max": int(rng.integers(1, 10**5)),
        },
        "density": lambda: {
            "horizon": int(rng.integers(1, 5000)),
            "coefficient": num(0.01, 2),
            "radius": num(0.01, 2),
            "angle_index": int(rng.integers(size)),
            "use_construction": bool(rng.random() < 0.5),
        },
        "invariance": lambda: {
            "trials": int(rng.integers(2, 500)),
            "terms": int(rng.integers(1, 80)),
            "probes": int(rng.integers(1, min(8, dim) + 1)),
        },
    }
    names = rng.choice(list(draws), size=rng.integers(1, 4), replace=False)
    return {
        "seed": int(rng.integers(1000)),
        "dimension": dim,
        "operator": {"kind": kind, "weight": num(1.001, 5), "eps": num(0, 3)},
        "family": {"count": count},
        "pipelines": {str(name): draws[name]() for name in names},
    }


def test_every_config_validate_accepts_runs_to_a_summary(tmp_path):
    rng = np.random.default_rng(20)
    seen = {"accepted": set(), "kinds": set(), "refused": 0}
    for i in range(200):
        raw = _random_config(rng)
        cfg, errors = validate_config(json.dumps(raw))
        if errors:
            seen["refused"] += 1
            continue
        out = tmp_path / str(i)
        assert run_experiment(cfg, out) in (0, 1), raw
        summary = read_summary(out)
        assert set(summary["results"]) == set(raw["pipelines"]), raw
        seen["accepted"] |= set(raw["pipelines"])
        seen["kinds"].add(raw["operator"]["kind"])
    # the draws reach every pipeline and both operators, and some are refused
    assert len(seen["accepted"]) == 8 and len(seen["kinds"]) == 2 and seen["refused"], seen
