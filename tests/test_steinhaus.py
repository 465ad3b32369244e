import numpy as np
import pytest

from hyperlab.eigenfields import EigenExpansion, sample_2B_family
from hyperlab.operators import make_scaled_backward_shift
from hyperlab.steinhaus import (
    _phase_rows,
    invariance_gap,
    khinchine_report,
    sample_steinhaus,
)


def _series_batch(series, rng, trials):
    """trials x d draws sum_j chi_j a_j x_j of the random series, drawn
    block by block through the batch kernel."""
    vt = series.terms.vectors.T
    batch = np.empty((trials, vt.shape[1]), dtype=complex)

    def block(start, stop, chi, scratch):
        batch[start:stop] = (chi * series.coeffs[None, :]) @ vt

    _phase_rows(rng, trials, len(series), block)
    return batch


def test_sample_steinhaus_is_unimodular_and_centered(rng):
    chi = sample_steinhaus(rng, 20000)
    assert np.allclose(np.abs(chi), 1.0)
    assert abs(np.mean(chi)) < 0.02
    with pytest.raises(ValueError):
        sample_steinhaus(rng, -1)


def test_batched_draw_is_the_same_stream_as_a_shaped_draw():
    t, k = 300, 7
    flat = sample_steinhaus(np.random.default_rng(5), t * k).reshape(t, k)
    shaped = np.exp(2j * np.pi * np.random.default_rng(5).random((t, k)))
    assert np.array_equal(flat, shaped)


def test_khinchine_single_coefficient_is_exactly_one(rng):
    rep = khinchine_report([3.0 - 4.0j], 1000, rng)
    assert rep.estimate == pytest.approx(1.0, abs=1e-12)
    assert rep.stderr == pytest.approx(0.0, abs=1e-12)


def test_khinchine_two_equal_coefficients_closed_form(rng):
    # E|chi_1 + chi_2| = 4/pi, so the normalized ratio is 2*sqrt(2)/pi
    rep = khinchine_report([1.0, 1.0], 10**5, rng)
    exact = 2.0 * np.sqrt(2.0) / np.pi
    assert abs(rep.estimate - exact) < 5 * rep.stderr


def test_khinchine_ratio_never_exceeds_one(rng):
    for _ in range(25):
        k = int(rng.integers(1, 12))
        coeffs = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        assert khinchine_report(coeffs, 1000, rng).estimate <= 1.0 + 1e-12


def test_khinchine_second_moment_is_exactly_the_l2_mass(rng):
    # E|sum chi_j a_j|**2 = sum |a_j|**2 by phase orthogonality
    coeffs = np.array([1.0, 0.5j, -0.25])
    chi = np.exp(2j * np.pi * rng.random((200000, 3)))
    second = np.mean(np.abs(chi @ coeffs) ** 2)
    assert second == pytest.approx(float(np.sum(np.abs(coeffs) ** 2)), rel=0.01)


def test_khinchine_subnormal_coefficients_give_the_report_of_their_multiple():
    # 2**-1074 and 2**-1073 scale by a power of two to 1 and 2 exactly,
    # where 1 / scale would overflow
    tiny = khinchine_report([5e-324, 1e-323j], 1000, np.random.default_rng(3))
    plain = khinchine_report([1.0, 2j], 1000, np.random.default_rng(3))
    assert np.isfinite(tiny.estimate) and tiny == plain


def test_khinchine_input_validation(rng):
    with pytest.raises(ValueError):
        khinchine_report([], 1000, rng)
    with pytest.raises(ValueError, match="nonzero l2 norm"):
        khinchine_report([0.0, 0j], 1000, rng)
    with pytest.raises(ValueError):
        khinchine_report([1.0], 999, rng)


def test_series_requires_distinct_angles(family32):
    with pytest.raises(ValueError):
        EigenExpansion((1.0, 2.0), family32.take([0, 0]))


def test_sample_series_draw_lies_in_the_span(family32, rng):
    series = EigenExpansion(np.ones(3), family32.take([0, 1, 2]))
    (draw,) = _series_batch(series, rng, 1)
    # the draw is a combination of the three columns: residual after
    # projecting onto their span is zero
    mat = series.terms.vectors
    proj, *_ = np.linalg.lstsq(mat, draw, rcond=None)
    assert np.linalg.norm(mat @ proj - draw) < 1e-10
    assert np.allclose(np.abs(proj), 1.0, atol=1e-10)


def test_sample_series_batch_shape_and_measure(family32, rng):
    series = EigenExpansion(np.full(3, 0.5), family32.take([0, 1, 2]))
    batch = _series_batch(series, rng, 4000)
    assert batch.shape == (4000, 32)
    # second moment of every coordinate: sum_j |a_j|**2 |x_j[m]|**2
    exact = np.abs(series.terms.vectors) ** 2 @ np.abs(series.coeffs) ** 2
    assert np.allclose(np.mean(np.abs(batch) ** 2, axis=0), exact, rtol=0.1)


def test_empty_series_cannot_be_sampled(family32, rng):
    op = make_scaled_backward_shift(2.0, 32)
    with pytest.raises(ValueError, match="at least one term"):
        invariance_gap(op, EigenExpansion((), family32.take([])), 10, np.eye(1, 32), rng)


def test_invariance_gap_within_monte_carlo_error(family32, rng):
    op = make_scaled_backward_shift(2.0, 32)
    coeffs = 0.5 ** np.arange(1, 9)
    series = EigenExpansion(coeffs, family32.take(slice(8)))
    probes = np.eye(4, 32, dtype=complex)
    report = invariance_gap(op, series, 4000, probes, rng)
    assert len(report.rows) == 8  # 4 probes x 2 moment orders
    assert report.within(4.0)
    assert report.max_gap == pytest.approx(
        max(gap for _, _, gap, _ in report.rows)
    )
    # no probe rows would make the check vacuous
    with pytest.raises(ValueError):
        invariance_gap(op, series, 4000, probes[:0], rng)


def shift_invariance(w):
    """The invariance pipeline's report on the shift at weight w: d = 64,
    32 terms of 2**-j, 8 coordinate probes and 10**4 trials."""
    op = make_scaled_backward_shift(w, 64)
    series = EigenExpansion(0.5 ** np.arange(1, 33), sample_2B_family(w, 64, 32))
    probes = np.eye(8, 64, dtype=complex)
    return invariance_gap(op, series, 10**4, probes, np.random.default_rng(1))


def test_invariance_gap_of_moduli_far_below_one_has_a_nonzero_error():
    # at weight 1e20 the moduli at coordinates 4 to 7 run from about 1e-80
    # down to 1e-140, and the variance of their squares would underflow to 0
    report = shift_invariance(1e20)
    assert all(se > 0 for _, _, _, se in report.rows)
    assert report.within(3.0)


def test_invariance_gap_at_weight_1e100_is_real():
    # (lambda / w)**n underflows to 0 from n = 4, so T v differs from
    # lambda v at coordinate 3
    report = shift_invariance(1e100)
    assert [(idx, order) for idx, order, gap, se in report.rows if not gap <= 3.0 * se] == [(3, 1)]
