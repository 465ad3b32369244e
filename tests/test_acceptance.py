"""Acceptance suite: ten end-to-end criteria with pinned tolerances.

Each test records a single PASS/FAIL line (emitted in the terminal
summary, after output capture ends) and then asserts, so a red run still
shows the full scoreboard.
"""

import time

import numpy as np
import pytest

from _acceptance_log import record as report

from hyperlab.cantor import build_cantor_field, verify_cantor_separation
from hyperlab.construction import (
    ConstructionTarget,
    run_construction,
    split_coefficient,
)
from hyperlab.density import TargetBall, fhc_harness, visit_times
from hyperlab.diophantine import TorusTarget, solve_simultaneous, syndetic_return_set
from hyperlab.eigenfields import (
    EigenExpansion,
    EigenFamily,
    EigenPair,
    eigenvector_2B,
    qindependent_angles,
    sample_2B_family,
    unimodular,
)
from hyperlab.ergodicity import (
    CorrelationSpec,
    cesaro_average,
    correlation_closed_form,
    correlation_monte_carlo,
    nonergodicity_witness,
)
from hyperlab.linspace import StateVector, norm
from hyperlab.operators import apply, make_scaled_backward_shift
from hyperlab.steinhaus import invariance_gap, khinchine_report

SQRT2 = float(np.sqrt(2) % 1)
SQRT3 = float(np.sqrt(3) % 1)


@pytest.fixture(scope="module")
def op64():
    return make_scaled_backward_shift(2.0, 64)


@pytest.fixture(scope="module")
def construction64(op64):
    """Three blocks on the shift at d=64, shared by criteria 8 and 9."""
    family = sample_2B_family(2.0, 64, 512)
    targets = [
        ConstructionTarget(((0.5, 10),), 0.5, 1),
        ConstructionTarget(((0.5, 20),), 0.5, 1),
        ConstructionTarget(((0.5, 30),), 0.5, 1),
    ]
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    state, phi, rep = run_construction(
        op64, family, targets, 3, rng, trials=2000, cert_samples=200
    )
    return state, phi, rep, time.perf_counter() - start, family


def test_criterion_01_eigen_residual(op64):
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for theta in rng.random(200):
        p = eigenvector_2B(float(theta), 2.0, 64)
        resid = norm(
            StateVector(apply(op64, p.vector.entries) - p.eigenvalue * p.vector.entries)
        )
        worst = max(worst, resid)
    elapsed = time.perf_counter() - start
    ok = worst <= 2.0 * 2.0**-63 + 1e-12 and elapsed < 1.0
    assert report(1, "eigen-residual", ok), (worst, elapsed)


def test_criterion_02_khinchine_ratio():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    rep = khinchine_report(np.ones(100), 10**5, rng)
    in_window = 0.876 <= rep.estimate <= 0.896
    bounded = True
    for _ in range(50):
        k = int(rng.integers(2, 20))
        coeffs = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        bounded = bounded and khinchine_report(coeffs, 2000, rng).estimate <= 1.0 + 1e-12
    elapsed = time.perf_counter() - start
    ok = in_window and bounded and elapsed < 10.0
    assert report(2, "khinchine ratio", ok), (rep.estimate, elapsed)


def test_criterion_03_measure_invariance(op64):
    start = time.perf_counter()
    family = sample_2B_family(2.0, 64, 32)
    coeffs = 0.5 ** np.arange(1, 33)
    series = EigenExpansion(coeffs, family)
    probes = np.eye(8, 64, dtype=complex)
    rep = invariance_gap(op64, series, 10**4, probes, np.random.default_rng(3))
    elapsed = time.perf_counter() - start
    ok = rep.within(3.0) and elapsed < 30.0
    assert report(3, "invariance", ok), (rep.max_gap, elapsed)


def test_criterion_04_nonergodicity_witness():
    start = time.perf_counter()
    e0 = StateVector(np.eye(64)[0])
    pairs = (EigenPair(1.0, e0, 0.0), EigenPair(SQRT2, e0, 0.0))
    series = EigenExpansion((2**-0.5, 2**-0.5), EigenFamily.from_pairs(pairs))
    f0 = e0.entries
    spec = CorrelationSpec.from_probes(series, f0, f0)
    N = 10**5
    # Cesaro limit of the two-pairing decomposition: product + witness
    cesaro = cesaro_average(
        lambda ns: spec.product_term() + spec.cross_terms(ns), N
    )
    witness = nonergodicity_witness(spec, N)
    mc = correlation_monte_carlo(
        series, f0, f0, 7, 10**5, np.random.default_rng(4)
    )
    closed = correlation_closed_form(spec, 7)
    elapsed = time.perf_counter() - start
    ok = (
        abs(cesaro - 1.5) < 0.005
        and abs(witness - 0.5) < 0.005
        and abs(mc.estimate - closed) <= 3 * mc.stderr
        and elapsed < 60.0
    )
    assert report(4, "non-ergodicity witness", ok), (cesaro, witness, mc.estimate, closed)


def test_criterion_05_diophantine_solver():
    start = time.perf_counter()
    angles = np.array([SQRT2, SQRT3])
    lams = np.exp(2j * np.pi * angles)
    eta = 0.05
    ok = True
    for i in range(4):
        for j in range(4):
            targets = (
                np.exp(2j * np.pi * (i + 0.5) / 4),
                np.exp(2j * np.pi * (j + 0.5) / 4),
            )
            t = TorusTarget(tuple(angles), targets, eta)
            p = solve_simultaneous(t, 10**6)
            ok = ok and p is not None and bool(
                np.all(np.abs(lams**p - np.asarray(targets)) < eta)
            )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    assert report(5, "diophantine", ok), elapsed


def test_criterion_06_syndetic_return_set():
    res = syndetic_return_set((SQRT2, SQRT3), 0.1, 10**5)
    ok = len(res.times) > 0 and res.gap_bound > 0 and res.violations == ()
    assert report(6, "syndetic set", ok), (len(res.times), res.violations[:5])


def test_criterion_07_cantor_field():
    start = time.perf_counter()
    family = sample_2B_family(2.0, 64, 2**16)
    field = build_cantor_field(family, 10)
    # breadth-first node j: parent (j - 1) // 2, left children at odd j,
    # level n = floor(log2(j + 1)), leaves the last 2**10 nodes
    thetas = family.thetas[field.nodes].tolist()
    leaves = thetas[-(2**10) :]
    distinct = len(set(leaves)) == 2**10 == len(leaves)
    invariants = True
    for j in range(1, len(field.nodes)):
        n = (j + 1).bit_length() - 1
        parent = (j - 1) // 2
        jump_l = abs(unimodular(thetas[j]) - unimodular(thetas[parent]))
        jump_u = np.linalg.norm(
            family.vectors[:, field.nodes[j]] - family.vectors[:, field.nodes[parent]]
        )
        invariants = invariants and jump_l < 2.0**-n and jump_u < 2.0**-n
        if j % 2 == 1:
            invariants = invariants and thetas[j] == thetas[parent]
    sep = verify_cantor_separation(field)
    elapsed = time.perf_counter() - start
    ok = distinct and invariants and sep.passed and sep.min_margin > 0 and elapsed < 120.0
    assert report(7, "cantor field", ok), (distinct, invariants, sep.min_margin, elapsed)


def test_criterion_08_construction_end_to_end(construction64):
    state, phi, rep, elapsed, _ = construction64
    certs = rep.certificates
    ok = len(certs) == 3 and elapsed < 600.0
    for c in certs:
        ok = ok and c.expected_norm_bound < c.budget
        ok = ok and c.visit_rate >= c.visit_floor - 3 * c.visit_stderr
    assert report(8, "construction", ok), [
        (c.expected_norm_bound, c.budget, c.visit_rate, c.visit_floor) for c in certs
    ]


def test_criterion_09_density_harness(construction64):
    state, phi, _, _, family = construction64
    phi_vec = phi.to_vector().entries
    balls = [
        TargetBall(
            StateVector(phi_vec + b.center.entries),
            b.radius + 2.0 ** (-(b.index - 1)),
        )
        for b in state.blocks
    ]
    fhc = fhc_harness(phi, balls, 2 * 10**5)
    # calibration: a single eigen-term orbits a circle; visits to a ball
    # around the term itself happen exactly on an explicit arc of angles
    pair0 = family.pair(0)
    x = EigenExpansion((0.5,), family.take([0]))
    center = StateVector(0.5 * pair0.vector.entries)
    rec = visit_times(x, TargetBall(center, 0.3), 2 * 10**5)
    arc = 2.0 * np.arcsin(0.3 / (2 * 0.5)) / np.pi
    frequency = len(rec.times) / (2 * 10**5)
    ok = all(p > 0 for p in fhc.proxies) and abs(frequency - arc) < 0.01
    assert report(9, "density harness", ok), (fhc.proxies, frequency, arc)


def test_criterion_10_coefficient_splitting():
    start = time.perf_counter()
    rng = np.random.default_rng(10)
    failures = 0
    for _ in range(1000):
        a = complex(rng.standard_normal(), rng.standard_normal()) * rng.uniform(0, 5)
        eps = float(rng.uniform(1e-5, 2.0))
        s = split_coefficient(a, eps)
        exact = abs(sum(s.parts) - a) <= 1e-12 * max(1.0, abs(a))
        small = sum(abs(x) ** 2 for x in s.parts) < eps
        failures += not (exact and small)
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 1.0
    assert report(10, "coefficient splitting", ok), (failures, elapsed)
