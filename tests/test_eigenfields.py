import os

import numpy as np
import pytest

from hyperlab import _kernels, eigenfields
from hyperlab._kernels import _unit_phases
from hyperlab.eigenfields import (
    EigenExpansion,
    EigenFamily,
    EigenPair,
    _field_2B,
    _primes,
    diagonal_family,
    eigenvector_2B,
    perturbed_diagonal_eigenvector,
    qindependent_angles,
    sample_2B_family,
    unimodular,
)
from hyperlab.linspace import StateVector, norm
from hyperlab.operators import apply, make_perturbed_diagonal
from hyperlab.steinhaus import sample_steinhaus


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in range(2, int(n**0.5) + 1):
        if n % q == 0:
            return False
    return True


def test_primes_against_trial_division():
    got = _primes(50).tolist()
    assert len(got) == 50
    assert all(_is_prime(p) for p in got)
    assert got == sorted(got)
    # completeness: nothing skipped
    assert all(not _is_prime(n) or n in got for n in range(2, got[-1] + 1))


def test_qindependent_angles_are_distinct_irrational_fracs():
    angles = qindependent_angles(40).tolist()
    assert len(set(angles)) == 40
    assert all(0 < a < 1 for a in angles)
    assert angles[0] == pytest.approx(np.sqrt(2) % 1)
    # one vectorised square root gives the scalar loop's floats exactly
    for k in (1, 2, 5, 6, 40, 2**12):
        expected = [float(np.sqrt(p) % 1.0) for p in _primes(k).tolist()]
        assert qindependent_angles(k).tolist() == expected


def test_eigenvector_2B_is_unit_eigenvector_with_recorded_residual():
    for theta in (0.1, float(np.sqrt(2) % 1), 0.93):
        p = eigenvector_2B(theta, 2.0, 64)
        assert norm(p.vector) == pytest.approx(1.0, abs=1e-12)
        from hyperlab.operators import make_scaled_backward_shift

        op = make_scaled_backward_shift(2.0, 64)
        resid = norm(
            StateVector(apply(op, p.vector.entries) - p.eigenvalue * p.vector.entries)
        )
        # the truncation drops exactly the last geometric entry
        assert resid == pytest.approx(p.residual, rel=1e-9)
        assert p.residual <= 2.0**-63


def test_eigenvector_2B_rejects_small_weight():
    with pytest.raises(ValueError):
        eigenvector_2B(0.1, 1.0, 8)


def test_sample_2B_family_matches_single_construction():
    fam = sample_2B_family(2.0, 64, 300)
    assert len(fam) == 300 and fam.vectors.shape == (64, 300)
    assert fam.vectors.flags.c_contiguous and not fam.vectors.flags.writeable
    for i in range(len(fam)):
        p = fam.pair(i)
        single = eigenvector_2B(p.theta, 2.0, 64)
        assert np.array_equal(p.vector.entries, single.vector.entries)
        assert p.residual == single.residual


def test_sample_2B_family_keeps_the_field_array(monkeypatch):
    built = []

    def field(thetas, w, d):
        built.append(_field_2B(thetas, w, d))
        return built[-1]

    monkeypatch.setattr(eigenfields, "_field_2B", field)
    fam = sample_2B_family(2.0, 16, 50)
    vectors, _ = built[0]
    assert vectors.shape == (16, 50)
    assert vectors.flags.c_contiguous and not vectors.flags.writeable
    assert fam.vectors is vectors


@pytest.mark.parametrize("w", [2.0, 1.5, 3.7])
@pytest.mark.parametrize("d", [1, 7, 8, 12, 64, 129, 300])
def test_field_2B_column_norms_match_row_norms_of_the_transpose(w, d):
    # the d x k field normalizes each column by exactly the norm numpy
    # gives the same entries laid out k x d
    thetas = qindependent_angles(40)
    vectors, residuals = _field_2B(thetas, w, d)
    raw = (np.exp(2j * np.pi * np.asarray(thetas))[:, None] / w) ** np.arange(d)
    scales = np.linalg.norm(raw, axis=1)
    assert np.array_equal(vectors, (raw / scales[:, None]).T)
    assert np.array_equal(residuals, (1.0 / w) ** (d - 1) / scales)


def test_perturbed_diagonal_eigenvector_is_actual_eigenvector():
    d = 12
    op = make_perturbed_diagonal(qindependent_angles(d), 0.4, d)
    for k in (0, 5, d - 1):
        p = perturbed_diagonal_eigenvector(op, k)
        assert norm(p.vector) == pytest.approx(1.0, abs=1e-12)
        resid = norm(
            StateVector(apply(op, p.vector.entries) - p.eigenvalue * p.vector.entries)
        )
        assert resid < 1e-10
        assert resid == pytest.approx(p.residual, abs=1e-12)


def test_perturbed_diagonal_eigenvector_rejects_close_angles():
    op = make_perturbed_diagonal([0.3, 0.3 + 1e-12, 0.7], 0.5, 3)
    with pytest.raises(ValueError):
        perturbed_diagonal_eigenvector(op, 1)


def test_diagonal_family_names_the_first_close_angle():
    op = make_perturbed_diagonal([0.3, 0.7, 0.3 + 1e-12, 0.3], 0.5, 4)
    with pytest.raises(ValueError, match="near index 2: min .* = 6.28e-12"):
        diagonal_family(op)
    # a single eigenvector checks its own index only
    assert perturbed_diagonal_eigenvector(op, 1).residual < 1e-10
    with pytest.raises(ValueError, match="near index 3: min .* = 0$"):
        perturbed_diagonal_eigenvector(op, 3)


def test_diagonal_family_covers_all_indices():
    d = 8
    op = make_perturbed_diagonal(qindependent_angles(d), 0.2, d)
    fam = diagonal_family(op)
    assert len(fam) == d
    assert np.linalg.matrix_rank(fam.vectors, rtol=1e-8) == d


def test_expansion_power_matches_repeated_operator_application():
    from hyperlab.operators import make_scaled_backward_shift

    op = make_scaled_backward_shift(2.0, 32)
    fam = sample_2B_family(2.0, 32, 4)
    x = EigenExpansion(0.3 * np.arange(1, 5), fam)
    slow = x.to_vector().entries
    for _ in range(5):
        slow = apply(op, slow)
    fast = x.power(5)
    assert np.linalg.norm(fast.entries - slow) < 1e-6


def test_expansion_power_zero_is_to_vector():
    fam = sample_2B_family(2.0, 8, 2)
    x = EigenExpansion((1.0, 2j), fam)
    assert np.allclose(x.to_vector().entries, x.power(0).entries)
    manual = fam.vectors[:, 0] + 2j * fam.vectors[:, 1]
    assert np.allclose(x.to_vector().entries, manual)


def test_empty_expansion_has_no_vector():
    fam = sample_2B_family(2.0, 8, 2)
    with pytest.raises(ValueError):
        EigenExpansion((), fam.take([])).to_vector()
    with pytest.raises(ValueError):
        EigenExpansion((1.0,), fam)  # one coefficient per member


def test_family_rejects_duplicate_angles_and_non_unit_vectors():
    p = EigenPair(0.25, StateVector(np.eye(4)[0]), 0.0)
    with pytest.raises(ValueError):
        EigenFamily.from_pairs((p, p))
    with pytest.raises(ValueError):
        EigenFamily.from_pairs((EigenPair(0.5, StateVector([2.0, 0.0]), 0.0),))
    eye = np.eye(3, dtype=complex)
    EigenFamily((0.1, 0.2, 0.3), eye, (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        EigenFamily((0.1, 0.2, 0.1), eye, (0.0, 0.0, 0.0))
    eye[2, 2] = 1.0 + 1e-9
    with pytest.raises(ValueError):
        EigenFamily((0.1, 0.2, 0.3), eye, (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        EigenFamily((0.1, 0.2), np.eye(3), (0.0, 0.0))


def test_unimodular_has_unit_modulus():
    for theta in (0.0, 0.25, 0.5, 1.0, float(np.sqrt(3) % 1)):
        assert abs(unimodular(theta)) == pytest.approx(1.0, abs=1e-15)


def _same_bits(a, b) -> bool:
    """Equal shapes and equal bit patterns (so -0.0 differs from 0.0)."""
    bits = [np.ascontiguousarray(x).view(np.uint64) for x in (a, b)]
    return a.shape == b.shape and np.array_equal(*bits)


_PHASE_SIZES = sorted({0, 1} | {k * 2**14 + e for k in (1, 2, 3, 7) for e in (-1, 0, 1)})


@pytest.mark.parametrize("n", _PHASE_SIZES)
def test_unit_phases_match_the_inline_formula_bit_for_bit(n):
    t = np.random.default_rng(n).random(n)
    # negative and large angles too: the sign of every zero must survive
    t[: n // 2] *= -1e3
    assert _same_bits(_unit_phases(t), np.exp(2j * np.pi * t))


def test_unit_phases_of_two_dimensional_and_strided_inputs():
    rng = np.random.default_rng(3)
    ns = np.arange(49157)
    outer = np.outer(ns, rng.random(3))
    assert _same_bits(_unit_phases(outer), np.exp(2j * np.pi * outer))
    strided = rng.random((515, 130))[:, ::2]
    assert not strided.flags.c_contiguous
    assert _same_bits(_unit_phases(strided), np.exp(2j * np.pi * strided))
    transposed = rng.random((130, 515)).T
    assert _same_bits(_unit_phases(transposed), np.exp(2j * np.pi * transposed))


def test_unit_phases_thread_count_follows_the_cpu_affinity(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert _kernels._cores() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    assert _kernels._cores() == (os.cpu_count() or 1)


@pytest.mark.parametrize("n", [0, 1, 1000, 32769, 49159, 2 * 10**5])
def test_sample_steinhaus_is_the_inline_draw(n):
    for seed in (0, 7):
        reference = np.exp(2j * np.pi * np.random.default_rng(seed).random(n))
        assert _same_bits(sample_steinhaus(np.random.default_rng(seed), n), reference)
