import types

import numpy as np
import pytest

from hyperlab._kernels import _BLOCK, _factor, _quad_form, _unit_phases
from hyperlab.cli import _MAX_DENSITY_HORIZON
from hyperlab.construction import _visit_rate
from hyperlab.density import (
    _STEP,
    FhcReport,
    TargetBall,
    VisitRecord,
    _coefficient_rows,
    default_windows,
    fhc_harness,
    lower_density_estimate,
    _scan,
    recheck_visit,
    visit_times,
)
from hyperlab.diophantine import ReturnTimeSet
from hyperlab.eigenfields import EigenExpansion, sample_2B_family
from hyperlab.linspace import StateVector
from hyperlab.operators import make_scaled_backward_shift
from hyperlab.steinhaus import sample_steinhaus


@pytest.fixture(scope="module")
def setup():
    op = make_scaled_backward_shift(2.0, 16)
    fam = sample_2B_family(2.0, 16, 8)
    x = EigenExpansion((0.5, 0.25), fam.take([0, 1]))
    center = StateVector(0.5 * fam.vectors[:, 0])
    return op, x, TargetBall(center, 0.4)


def test_target_and_record_validation():
    with pytest.raises(ValueError):
        TargetBall(StateVector(np.zeros(4)), -0.1)
    ball = TargetBall(StateVector(np.zeros(4)), 1.0)
    for bad in ((5,), (-1, 2), (4, 0, 5)):
        with pytest.raises(ValueError):
            VisitRecord(bad, 5, ball)
    rec = VisitRecord((3, 1, 3), 10, ball)
    assert rec.times.dtype == np.int64 and rec.times.tolist() == [1, 3]
    with pytest.raises(ValueError):
        rec.times[0] = 2
    # a strictly increasing array is kept as is, but never shared writable
    given = np.array([0, 4, 9])
    rec = VisitRecord(given, 10, ball)
    given[0] = 7
    assert rec.times.tolist() == [0, 4, 9] and not rec.times.flags.writeable
    assert VisitRecord((), 10, ball).times.size == 0


def _brute_force_times(x, ball, N):
    return [
        n
        for n in range(N)
        if np.linalg.norm(x.power(n).entries - ball.center.entries) < ball.radius
    ]


def test_visit_times_matches_direct_orbit_scan(setup):
    op, x, ball = setup
    N = 3000
    rec = visit_times(x, ball, N)
    manual = _brute_force_times(x, ball, N)
    assert list(rec.times) == manual
    assert len(manual) > 0


def test_recheck_visit_agrees_with_fast_path(setup):
    op, x, ball = setup
    rec = visit_times(x, ball, 500)
    inside = set(rec.times)
    for n in range(0, 500, 37):
        assert recheck_visit(x, ball, n) == (n in inside)


def _near(dist, r):
    """Rows whose direct distance is too close to the radius r for the
    norm-factor route and the direct route to be held to the same verdict."""
    return np.abs(dist - r) <= 1e-9 * (1 + r)


@pytest.mark.parametrize("d, k", [(8, 3), (8, 8), (8, 32), (16, 64), (64, 3)])
def test_gram_route_matches_direct_distances(d, k):
    """The visit scan and the visit certificate, which decide membership
    through the norm factor of the terms, against distances taken in C^d,
    with fewer terms than dimensions and more."""
    N = 3000
    rng = np.random.default_rng(100 * d + k)
    coeffs = rng.normal(size=(k, 2)) @ [1, 1j] / np.sqrt(k)
    x = EigenExpansion(coeffs, sample_2B_family(2.0, d, k))
    orbit = np.stack([x.power(n).entries for n in range(N)])
    balls = []
    for i, share in enumerate((0.9, 0.5, 0.1)):
        c = orbit[7 * i] + 0.05 * rng.normal(size=d)
        r = float(np.quantile(np.linalg.norm(orbit - c, axis=1), share))
        balls.append(TargetBall(StateVector(c), r))
    for ball, rec in zip(balls, _scan(x, balls, N)):
        inside = np.isin(np.arange(N), rec.times)
        near = _near(np.linalg.norm(orbit - ball.center.entries, axis=1), ball.radius)
        assert near.sum() <= 1 and 0 < inside.sum() < N
        for n in np.flatnonzero(~near).tolist():
            assert recheck_visit(x, ball, n) == inside[n], n

    # T**p Phi - Phi for every (sample, p), each its own product in C^d
    weights = sample_steinhaus(rng, 200 * k).reshape(200, k) * x.coeffs[None, :]
    times = ReturnTimeSet(rng.choice(np.arange(1, N), 5, replace=False))
    vectors, thetas = x.terms.vectors, x.terms.thetas

    def moved(w, p):
        return vectors @ (np.exp(2j * np.pi * p * thetas) * w) - vectors @ w

    c = orbit[3] - orbit[0]
    dist = np.array([[np.linalg.norm(moved(w, p) - c) for p in times.times] for w in weights])
    # a radius at the median closest approach: about half the samples visit
    radius = float(np.median(dist.min(axis=1)))
    block = types.SimpleNamespace(
        return_times=times, center=StateVector(c), radius=radius, index=60
    )
    tol = block.radius + 2.0 ** (-(block.index - 1))
    kept = ~_near(dist, tol).any(axis=1)
    assert kept.sum() >= 199
    expected = np.count_nonzero((dist[kept] < tol).any(axis=1)) / kept.sum()
    assert 0 < expected < 1
    assert _visit_rate(block, x, weights[kept], _factor(vectors)) == expected


@pytest.mark.parametrize("k", [1, 3, 64, 256])
def test_quad_form_matches_the_three_operand_einsum(k):
    """||X w||**2 through the norm factor against the plain einsum over the
    Gram matrix X* X, for C-contiguous rows and for rows taken as a strided
    view."""
    rng = np.random.default_rng(k)
    mat = rng.normal(size=(64, k, 2)) @ [1, 1j]
    gram = mat.conj().T @ mat
    wide = rng.normal(size=(300, 2 * k, 2)) @ [1, 1j]
    for w in (wide[:, :k].copy(), wide[:, ::2]):
        expected = np.einsum("ni,ij,nj->n", w.conj(), gram, w).real
        got = _quad_form(w, _factor(mat))
        assert got.shape == expected.shape
        assert np.all(np.abs(got - expected) <= 1e-13 * np.abs(expected))


def _random_terms(k: int) -> np.ndarray:
    return np.random.default_rng(k).normal(size=(64, k, 2)) @ [1, 1j]


@pytest.mark.parametrize("k", [1, 3, 63, 64, 65, 256])
def test_factor_has_min_k_d_columns(k):
    assert _factor(_random_terms(k)).shape == (k, min(k, 64))


@pytest.mark.parametrize(
    "mat",
    [*(_random_terms(k) for k in (1, 3, 64, 256)), sample_2B_family(2.0, 64, 1024).vectors],
    ids=["random-1", "random-3", "random-64", "random-256", "2B-1024"],
)
def test_quad_form_matches_the_norm_in_C_d(mat):
    """||w F||**2 against ||X w||**2 taken in C^d, with fewer terms than
    dimensions, as many and more, and on the ill-conditioned w = 2
    family."""
    k = mat.shape[1]
    w = np.random.default_rng(k + 1).normal(size=(500, k, 2)) @ [1, 1j]
    expected = np.linalg.norm(w @ mat.T, axis=1) ** 2
    got = _quad_form(w, _factor(mat))
    assert np.all(np.abs(got - expected) <= 1e-13 * expected)


@pytest.mark.parametrize("start", [0, 5 * _STEP, 3 * _BLOCK, _MAX_DENSITY_HORIZON // _STEP * _STEP])
def test_coefficient_rows_match_the_direct_exp(start):
    """Table-and-anchor rows against exp(2*pi*i*n*theta) * c, within a few
    rounding steps of the phase n*theta at the largest n, over a stretch
    that ends mid-step."""
    rng = np.random.default_rng(start)
    k = 5
    x = EigenExpansion(rng.normal(size=(k, 2)) @ [1, 1j], sample_2B_family(2.0, 16, k))
    thetas = x.terms.thetas
    table = _unit_phases(np.outer(np.arange(_STEP), thetas))
    stop = start + 2 * _STEP + 17
    w = _coefficient_rows(x, table, start, stop)
    ns = np.arange(start, stop)
    expected = np.exp(2j * np.pi * np.outer(ns, thetas)) * x.coeffs
    bound = 4 * 2 * np.pi * np.spacing((stop - 1) * thetas.max()) * np.abs(x.coeffs).max()
    assert w.shape == expected.shape and w.flags.c_contiguous
    assert np.abs(w - expected).max() <= bound + 1e-14


def test_empty_expansion_visits_iff_center_is_near_zero():
    x = EigenExpansion((), sample_2B_family(2.0, 4, 1).take([]))
    near = TargetBall(StateVector(np.zeros(4)), 0.5)
    far = TargetBall(StateVector([3.0, 0, 0, 0]), 0.5)
    assert len(visit_times(x, near, 100).times) == 100
    assert len(visit_times(x, far, 100).times) == 0


def test_default_windows_ladder():
    assert default_windows(5 * 10**4) == [10**3, 10**4, 5 * 10**4]
    assert default_windows(500) == [500]


def test_lower_density_estimate_manual():
    ball = TargetBall(StateVector(np.zeros(2)), 1.0)
    rec = VisitRecord(tuple(range(0, 100, 2)), 1000, ball)
    # 50 visits below 100, none later
    assert lower_density_estimate(rec, [100, 1000]) == pytest.approx(0.05)
    with pytest.raises(ValueError):
        lower_density_estimate(rec, [])
    with pytest.raises(ValueError):
        lower_density_estimate(rec, [1000, 100])
    with pytest.raises(ValueError):
        lower_density_estimate(rec, [2000])


def test_fhc_harness_passes_iff_all_proxies_positive(setup):
    op, x, ball = setup
    never = TargetBall(StateVector(np.full(16, 5.0 + 0j)), 0.1)
    report = fhc_harness(x, [ball, never], 2000)
    assert isinstance(report, FhcReport)
    assert report.proxies[0] > 0 and report.proxies[1] == 0.0
    assert not report.passed
    good = fhc_harness(x, [ball], 2000)
    assert good.passed


def test_fhc_harness_records_match_per_target_and_direct_scans(setup):
    op, x, ball = setup
    vecs = x.terms.vectors
    targets = [
        ball,
        TargetBall(StateVector(np.full(16, 5.0 + 0j)), 0.1),  # never visited
        TargetBall(StateVector(0.25 * vecs[:, 1]), 0.3),
        TargetBall(StateVector(0.5 * vecs[:, 0] - 0.25 * vecs[:, 1]), 0.2),
        TargetBall(StateVector(np.zeros(16)), 2.0),  # always visited
    ]
    N = 1500
    report = fhc_harness(x, targets, N)
    counts = []
    for target, rec in zip(targets, report.records):
        expected = _brute_force_times(x, target, N)
        assert rec.times.tolist() == expected
        assert np.array_equal(rec.times, visit_times(x, target, N).times)
        assert rec.horizon == N and rec.target is target
        counts.append(len(expected))
    assert counts[1] == 0 and counts[-1] == N
    assert any(0 < c < N for c in counts)

    empty = EigenExpansion((), sample_2B_family(2.0, 16, 1).take([]))
    report = fhc_harness(empty, targets, 50)
    for target, rec in zip(targets, report.records):
        assert rec.times.tolist() == _brute_force_times(empty, target, 50)
        assert np.array_equal(rec.times, visit_times(empty, target, 50).times)
    assert [len(r.times) for r in report.records] == [0, 0, 50, 0, 50]
    assert fhc_harness(x, [], N).records == ()
