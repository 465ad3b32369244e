import csv
import json

import numpy as np
import pytest

from hyperlab import _kernels
from hyperlab import ergodicity as ergo
from hyperlab.cli import run_experiment, validate_config
from hyperlab.ergodicity import (
    CorrelationSpec,
    cesaro_average,
    correlation_closed_form,
    correlation_csv,
    correlation_monte_carlo,
    nonergodicity_witness,
    witness_report,
)
from hyperlab.eigenfields import EigenExpansion, EigenFamily, EigenPair
from hyperlab.linspace import StateVector

SQRT2 = float(np.sqrt(2) % 1)


def two_pair_spec():
    c = (2**-0.5, 2**-0.5)
    return CorrelationSpec(c, c, (1.0, SQRT2))


def test_spec_validation():
    with pytest.raises(ValueError):
        CorrelationSpec((1.0,), (1.0, 2.0), (0.1, 0.2))


def test_terms_match_manual_formulas():
    spec = CorrelationSpec((1.0, 2j), (0.5, 1.0), (0.25, SQRT2))
    assert spec.product_term() == pytest.approx((1 + 4) * (0.25 + 1))
    assert spec.diagonal_term() == pytest.approx(0.25 + 4.0)
    # cross term at n by direct evaluation
    w = np.array([1.0 * 0.5, 2j * 1.0])
    lam = np.exp(2j * np.pi * np.array([0.25, SQRT2]))
    for n in (0, 3, 17):
        manual = abs(np.sum(lam**n * w)) ** 2
        assert spec.cross_terms([n])[0] == pytest.approx(manual)


def test_closed_form_and_pairing_differ_by_the_diagonal():
    spec = two_pair_spec()
    for n in (0, 1, 9):
        # two-pairing decomposition: exact for Gaussian phases (E|chi|**4 = 2)
        pairing = spec.product_term() + spec.cross_terms([n])[0]
        assert pairing - correlation_closed_form(spec, n) == pytest.approx(
            spec.diagonal_term()
        )
    with pytest.raises(ValueError):
        correlation_closed_form(spec, -1)


def test_closed_form_matches_monte_carlo(rng):
    e0 = StateVector(np.eye(4)[0])
    pairs = (EigenPair(1.0, e0, 0.0), EigenPair(SQRT2, e0, 0.0))
    series = EigenExpansion((2**-0.5, 2**-0.5), EigenFamily.from_pairs(pairs))
    f0 = e0.entries
    spec = CorrelationSpec.from_probes(series, f0, f0)
    for n in (0, 7):
        mc = correlation_monte_carlo(series, f0, f0, n, 50000, rng)
        assert abs(mc.estimate - correlation_closed_form(spec, n)) <= 4 * mc.stderr


def test_cesaro_average_callable_and_sequence():
    vals = np.arange(10, dtype=float)
    assert cesaro_average(vals, 10) == pytest.approx(4.5)
    assert cesaro_average(lambda ns: ns.astype(float), 10) == pytest.approx(4.5)
    with pytest.raises(ValueError):
        cesaro_average(vals, 0)


def test_witness_stabilizes_at_the_coefficient_mass():
    spec = two_pair_spec()
    # Cesaro average of |w1 + w2 exp(2 pi i n theta)|**2 tends to
    # |w1|**2 + |w2|**2 = 1/2 by equidistribution of n*theta
    wit = nonergodicity_witness(spec, 10**5)
    assert wit == pytest.approx(0.5, abs=0.005)
    with pytest.raises(ValueError):
        nonergodicity_witness(spec, 100)


def test_from_probes_extracts_pairings(family32):
    series = EigenExpansion(np.full(3, 0.5), family32.take([0, 1, 2]))
    f, g = np.eye(2, 32, dtype=complex)
    spec = CorrelationSpec.from_probes(series, f, g)
    pairs = [family32.pair(i) for i in range(3)]
    manual_c = [0.5 * np.vdot(f, p.vector.entries) for p in pairs]
    manual_d = [0.5 * np.vdot(g, p.vector.entries) for p in pairs]
    assert np.allclose(spec.c, manual_c) and np.allclose(spec.d, manual_d)
    assert spec.angles == tuple(p.theta for p in pairs)


def test_correlation_csv_running_average_converges(tmp_path):
    spec = two_pair_spec()
    path = tmp_path / "corr.csv"
    correlation_csv(spec.correlation(np.arange(5000)), path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5000
    final = float(rows[-1]["running_cesaro"])
    expected = spec.product_term() - spec.diagonal_term() + 0.5
    assert final == pytest.approx(expected, abs=0.01)
    # each row is the exact closed form
    n = 137
    assert float(rows[n]["correlation"]) == pytest.approx(
        correlation_closed_form(spec, n)
    )


def reference_csv(spec, N, path):
    """The correlation CSV through csv.writer, one row at a time: the
    writer that correlation_csv replaced, kept as the reference."""
    ns = np.arange(N)
    vals = spec.correlation(ns)
    running = np.cumsum(vals) / (ns + 1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "correlation", "running_cesaro"])
        for n, v, r in zip(ns, vals, running):
            writer.writerow([int(n), repr(float(v)), repr(float(r))])


@pytest.mark.parametrize("N", [1000, 9999, 10**4, 10**4 + 1, 23456])
def test_ergodicity_run_matches_the_separate_evaluations(tmp_path, N):
    rng = np.random.default_rng(N)
    k = 3
    params = {
        "N": N,
        "c": rng.normal(size=(k, 2)).tolist(),
        "d": rng.normal(size=(k, 2)).tolist(),
        "angles": rng.random(k).tolist(),
    }
    config = {"seed": 1, "dimension": 8, "family": {"count": 8}}
    cfg, errors = validate_config(json.dumps({**config, "pipelines": {"ergodicity": params}}))
    assert not errors, errors
    run_experiment(cfg, tmp_path)
    result = json.loads((tmp_path / "summary.json").read_text())["results"]["ergodicity"]
    spec = CorrelationSpec(
        [complex(*z) for z in params["c"]],
        [complex(*z) for z in params["d"]],
        params["angles"],
    )
    # JSON floats round-trip exactly, so == compares every bit
    assert result["cesaro"] == cesaro_average(spec.correlation, N)
    assert result["witness"] == nonergodicity_witness(spec, N)
    assert result["witness"] == float(np.mean(spec.cross_terms(np.arange(N))))
    reference_csv(spec, min(N, 10**4), tmp_path / "reference.csv")
    written = (tmp_path / "correlation.csv").read_bytes()
    assert written == (tmp_path / "reference.csv").read_bytes()


def one_piece_csv(correlation, path):
    """The correlation CSV formatted as one string and written at once, as
    correlation_csv wrote it before it took a block of rows at a time."""
    vals = np.asarray(correlation, dtype=float)
    running = np.cumsum(vals) / np.arange(1, vals.size + 1)
    rows = "".join(
        f"{n},{v!r},{r!r}\r\n"
        for n, (v, r) in enumerate(zip(vals.tolist(), running.tolist()))
    )
    with open(path, "w", newline="") as fh:
        fh.write("n,correlation,running_cesaro\r\n" + rows)


@pytest.mark.parametrize("budget", [None, 2**9])
def test_correlation_csv_written_by_blocks_equals_the_one_piece_text(tmp_path, budget, monkeypatch):
    if budget:
        monkeypatch.setattr(_kernels, "_BLOCK", budget)
    block = _kernels._BLOCK // ergo._ROW_CHARS
    # one block of rows, and the fewest rows that take two
    assert len(_kernels._cuts(block, ergo._ROW_CHARS)) == 1
    assert len(_kernels._cuts(block + 1, ergo._ROW_CHARS)) == 2
    vals = two_pair_spec().correlation(np.arange(3 * block + 2))
    for n in (0, 1, 2, block - 1, block, block + 1, 3 * block + 2):
        correlation_csv(vals[:n], tmp_path / "blocks.csv")
        one_piece_csv(vals[:n], tmp_path / "one-piece.csv")
        written = (tmp_path / "blocks.csv").read_bytes()
        assert written == (tmp_path / "one-piece.csv").read_bytes()
        assert written.count(b"\r\n") == n + 1


@pytest.mark.parametrize("N", [1000, 2 * _kernels._BLOCK + 1])
def test_witness_report_correlation_is_the_constant_plus_the_cross_term(N):
    rng = np.random.default_rng(N)
    c, d = (rng.normal(size=(4, 2)) @ [1, 1j] for _ in range(2))
    spec = CorrelationSpec(c, d, rng.random(4))
    report = witness_report(spec, N)
    cross = spec.cross_terms(np.arange(N))
    expected = spec.product_term() - spec.diagonal_term() + cross
    assert np.array_equal(report.correlation.view(np.int64), expected.view(np.int64))
    assert report.witness == float(np.mean(cross))
    assert report.cesaro == float(np.mean(expected))


def test_witness_report_refuses_short_averages():
    with pytest.raises(ValueError, match="N must be at least"):
        witness_report(two_pair_spec(), 999)
