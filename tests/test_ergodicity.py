import csv
import json
import tracemalloc

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
# the closed form against the mean of the scanned cross terms over n < N,
# at angles in [0, 1): the scan's phases n * theta carry up to N ulps, and
# the two differed by 7e-14 relative at most in these tests up to N = 10**5
SCAN_REL = 1e-12


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
    # JSON floats round-trip exactly, so == compares every bit; the scan
    # over n < N is the closed form's reference
    assert result["witness"] == nonergodicity_witness(spec, N)
    scan = float(np.mean(spec.cross_terms(np.arange(N))))
    assert result["witness"] == pytest.approx(scan, rel=SCAN_REL, abs=0)
    assert result["cesaro"] == pytest.approx(cesaro_average(spec.correlation, N), rel=SCAN_REL)
    assert abs(result["witness"] - result["limit"]) <= result["bound"]
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
    # the rows correlation.csv writes, bit for bit
    assert np.array_equal(spec.correlation(np.arange(N)).view(np.int64), expected.view(np.int64))
    assert report.witness == pytest.approx(float(np.mean(cross)), rel=SCAN_REL, abs=0)
    assert report.cesaro == pytest.approx(float(np.mean(expected)), rel=SCAN_REL, abs=0)
    assert report.cesaro == spec.product_term() - spec.diagonal_term() + report.witness


def random_spec(rng, k):
    """k weights over angles in a few classes equal mod 1: each angle is a
    class's residue, a multiple of 2**-40, plus an integer in [-3, 3], so
    the sum is exact."""
    c, d = (rng.normal(size=(k, 2)) @ [1, 1j] for _ in range(2))
    residues = rng.integers(0, 2**40, max(1, k - k // 3)) / 2**40
    return CorrelationSpec(c, d, rng.choice(residues, k) + rng.integers(-3, 4, k))


def class_limit(spec):
    """sum over the classes of angles equal mod 1 of |sum a_p|**2, summed
    one Python complex at a time."""
    sums = {}
    for c, d, theta in zip(spec.c, spec.d, spec.angles):
        sums[theta % 1.0] = sums.get(theta % 1.0, 0) + c * d.conjugate()
    return sum(abs(z) ** 2 for z in sums.values())


@pytest.mark.parametrize("N", [10**3, 10**4, 10**5])
@pytest.mark.parametrize("k", [1, 3, 8])
def test_witness_closed_form_matches_the_scan_within_the_wiener_bound_of_its_limit(N, k):
    rng = np.random.default_rng([N, k])
    for _ in range(3):
        spec = random_spec(rng, k)
        report = witness_report(spec, N)
        # e(n theta) = e(n (theta % 1)) at integer n, and the scan over the
        # residues rounds its phases n * theta by fewer bits
        residues = CorrelationSpec(spec.c, spec.d, np.mod(spec.angles, 1.0))
        scan = float(np.mean(residues.cross_terms(np.arange(N))))
        assert report.witness == pytest.approx(scan, rel=SCAN_REL, abs=0)
        assert report.limit == pytest.approx(class_limit(spec), rel=1e-14, abs=0)
        mass = float(np.sum(np.abs(spec.c) * np.abs(spec.d)))
        assert abs(report.witness - report.limit) <= report.bound + 1e-14 * mass**2
        assert report.passed


def test_witness_of_angles_equal_mod_1_is_their_class_limit():
    # one class: the kernel is exactly 1 at every gap, whatever N
    spec = CorrelationSpec((0.5, 0.5), (1.0, 1.0), (0.375, 2.375))
    for N in (10**3, 10**7):
        report = witness_report(spec, N)
        assert (report.witness, report.limit, report.bound) == (1.0, 1.0, 0.0)


@pytest.mark.parametrize(
    "params, passed",
    [
        ({"c": [[1, 0], [-1, 0]], "d": [[1, 0], [1, 0]], "angles": [0.25, 1.25]}, False),
        # 0.1 + 0.2 - 0.3 rounds to 5.6e-17, so the computed limit is 3.1e-33
        (
            {"c": [[0.1, 0], [0.2, 0], [-0.3, 0]], "d": [[1, 0]] * 3, "angles": [0.25, 1.25, 2.25]},
            False,
        ),
        # criterion 4's spec
        ({}, True),
    ],
    ids=["two-terms-cancel", "three-terms-cancel", "default"],
)
def test_the_gate_fails_weights_that_cancel_within_their_class(tmp_path, params, passed):
    raw = {"seed": 1, "dimension": 8, "family": {"count": 16}}
    raw["pipelines"] = {"ergodicity": {**params, "N": 10**5}}
    cfg, errors = validate_config(json.dumps(raw))
    assert not errors, errors
    assert run_experiment(cfg, tmp_path) == (0 if passed else 1)
    result = json.loads((tmp_path / "summary.json").read_text())["results"]["ergodicity"]
    assert result["passed"] is passed
    assert abs(result["witness"] - result["limit"]) <= result["bound"] + 1e-15


def test_witness_report_holds_no_array_that_grows_with_N():
    spec = two_pair_spec()
    peaks = []
    for N in (10**3, 10**7):
        tracemalloc.start()
        try:
            witness_report(spec, N)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2**20, peaks


def test_witness_report_refuses_short_averages():
    with pytest.raises(ValueError, match="N must be at least"):
        witness_report(two_pair_spec(), 999)
