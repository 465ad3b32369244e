import numpy as np
import pytest

from hyperlab.density import (
    FhcReport,
    TargetBall,
    VisitRecord,
    default_windows,
    fhc_harness,
    lower_density_estimate,
    recheck_visit,
    visit_times,
    worker_cap,
)
from hyperlab.eigenfields import EigenExpansion, sample_2B_family
from hyperlab.linspace import StateVector, zero_vector
from hyperlab.operators import make_scaled_backward_shift


@pytest.fixture(scope="module")
def setup():
    op = make_scaled_backward_shift(2.0, 16)
    fam = sample_2B_family(2.0, 16, 8)
    x = EigenExpansion((0.5, 0.25), fam.take([0, 1]))
    center = StateVector(0.5 * fam.vectors[:, 0])
    return op, x, TargetBall(center, 0.4)


def test_target_and_record_validation():
    with pytest.raises(ValueError):
        TargetBall(zero_vector(4), -0.1)
    with pytest.raises(ValueError):
        VisitRecord((5,), 5, TargetBall(zero_vector(4), 1.0))
    rec = VisitRecord((3, 1, 3), 10, TargetBall(zero_vector(4), 1.0))
    assert rec.times == (1, 3)


def test_visit_times_matches_direct_orbit_scan(setup):
    op, x, ball = setup
    N = 3000
    rec = visit_times(x, ball, N)
    manual = [
        n
        for n in range(N)
        if np.linalg.norm(x.power(n).entries - ball.center.entries) < ball.radius
    ]
    assert list(rec.times) == manual
    assert len(manual) > 0


def test_recheck_visit_agrees_with_fast_path(setup):
    op, x, ball = setup
    rec = visit_times(x, ball, 500)
    inside = set(rec.times)
    for n in range(0, 500, 37):
        assert recheck_visit(x, ball, n) == (n in inside)


def test_empty_expansion_visits_iff_center_is_near_zero():
    x = EigenExpansion((), sample_2B_family(2.0, 4, 1).take([]))
    near = TargetBall(zero_vector(4), 0.5)
    far = TargetBall(StateVector([3.0, 0, 0, 0]), 0.5)
    assert len(visit_times(x, near, 100).times) == 100
    assert len(visit_times(x, far, 100).times) == 0


def test_default_windows_ladder():
    assert default_windows(5 * 10**4) == [10**3, 10**4, 5 * 10**4]
    assert default_windows(500) == [500]


def test_lower_density_estimate_manual():
    rec = VisitRecord(tuple(range(0, 100, 2)), 1000, TargetBall(zero_vector(2), 1.0))
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
    report = fhc_harness(x, [ball, never], 2000, windows=[1000, 2000])
    assert isinstance(report, FhcReport)
    assert report.proxies[0] > 0 and report.proxies[1] == 0.0
    assert not report.passed
    good = fhc_harness(x, [ball], 2000, windows=[1000, 2000])
    assert good.passed


def test_worker_cap_env(monkeypatch):
    monkeypatch.setenv("HYPERLAB_THREADS", "2")
    assert worker_cap() == 2
    monkeypatch.setenv("HYPERLAB_THREADS", "0")
    assert worker_cap() == 1
    monkeypatch.delenv("HYPERLAB_THREADS")
    assert worker_cap() >= 1
