import numpy as np
import pytest

from hyperlab.eigenfields import (
    EigenExpansion,
    EigenFamily,
    eigenvector_2B,
    qindependent_angles,
)
from hyperlab.linspace import StateVector, basis_vector, norm
from hyperlab.operators import (
    apply,
    make_perturbed_diagonal,
    make_scaled_backward_shift,
    power_apply,
    power_iteration_norm,
)


def test_shift_apply_matches_manual_shift():
    op = make_scaled_backward_shift(3.0, 6)
    rng = np.random.default_rng(0)
    e = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    out = apply(op, StateVector(e))
    manual = np.concatenate([3.0 * e[1:], [0.0]])
    assert np.allclose(out.entries, manual)


def test_perturbed_diagonal_matches_dense_matrix():
    d = 8
    angles = qindependent_angles(d)
    op = make_perturbed_diagonal(angles, 0.3, d)
    dense = np.diag(np.exp(2j * np.pi * np.asarray(angles)))
    weights = 0.3 * 4.0 ** (-np.arange(d - 1, dtype=float))
    dense += np.diag(weights, k=1)
    rng = np.random.default_rng(1)
    for _ in range(10):
        e = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        assert np.allclose(apply(op, StateVector(e)).entries, dense @ e)


def test_norm_bound_dominates_power_iteration_norm():
    ops = [
        make_scaled_backward_shift(2.0, 16),
        make_perturbed_diagonal(qindependent_angles(16), 0.2, 16),
    ]
    for op in ops:
        assert op.norm_bound >= power_iteration_norm(op) - 1e-9


def test_shift_norm_is_exactly_the_weight():
    op = make_scaled_backward_shift(2.5, 16)
    assert power_iteration_norm(op) == pytest.approx(2.5, rel=1e-9)


def test_power_apply_equals_repeated_application():
    op = make_scaled_backward_shift(2.0, 8)
    v = basis_vector(5, 8)
    out = power_apply(op, v, 3)
    manual = v
    for _ in range(3):
        manual = apply(op, manual)
    assert np.allclose(out.entries, manual.entries)


def test_power_apply_uses_eigen_expansion_exactly():
    op = make_scaled_backward_shift(2.0, 32)
    p = eigenvector_2B(float(np.sqrt(2) % 1), 2.0, 32)
    x = EigenExpansion((0.7,), EigenFamily.from_pairs([p]))
    n = 6
    fast = power_apply(op, x, n)
    slow = x.to_vector()
    for _ in range(n):
        slow = apply(op, slow)
    # truncation residual grows at most like w**n per application
    assert norm(StateVector(fast.entries - slow.entries)) < 2.0**n * p.residual * 2
    assert norm(fast) == pytest.approx(0.7, rel=1e-12)


def test_power_apply_overflow_guard():
    op = make_scaled_backward_shift(2.0, 4)
    with pytest.raises(OverflowError):
        power_apply(op, basis_vector(3, 4), 10**6)
    with pytest.raises(ValueError):
        power_apply(op, basis_vector(3, 4), -1)


def test_constructor_validation():
    with pytest.raises(ValueError):
        make_scaled_backward_shift(1.0, 4)
    with pytest.raises(ValueError):
        make_scaled_backward_shift(2.0, 0)
    with pytest.raises(ValueError):
        make_perturbed_diagonal([0.1], -0.5, 1)
    with pytest.raises(ValueError):
        make_perturbed_diagonal([0.1, 0.2], 0.5, 3)


def test_apply_dimension_mismatch():
    op = make_scaled_backward_shift(2.0, 4)
    with pytest.raises(ValueError):
        apply(op, basis_vector(0, 5))
