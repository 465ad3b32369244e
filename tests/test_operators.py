import numpy as np
import pytest

from hyperlab.eigenfields import (
    EigenExpansion,
    EigenFamily,
    eigenvector_2B,
    qindependent_angles,
)
from hyperlab.operators import (
    _apply,
    _coupling,
    _diagonal,
    apply,
    make_perturbed_diagonal,
    make_scaled_backward_shift,
)


def _matrix_norm(op) -> float:
    """Largest singular value of T: the spectral norm of the matrix whose
    column k is T e_k."""
    return float(np.linalg.norm(apply(op, np.eye(op.dim, dtype=complex)).T, 2))


def test_shift_apply_matches_manual_shift():
    op = make_scaled_backward_shift(3.0, 6)
    rng = np.random.default_rng(0)
    e = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    out = apply(op, e)
    manual = np.concatenate([3.0 * e[1:], [0.0]])
    assert np.allclose(out, manual)


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
        assert np.allclose(apply(op, e), dense @ e)


def test_norm_bound_dominates_power_iteration_norm():
    ops = [
        make_scaled_backward_shift(2.0, 16),
        make_perturbed_diagonal(qindependent_angles(16), 0.2, 16),
    ]
    for op in ops:
        assert op.norm_bound >= _matrix_norm(op) - 1e-9


def test_shift_norm_is_exactly_the_weight():
    op = make_scaled_backward_shift(2.5, 16)
    assert _matrix_norm(op) == pytest.approx(2.5, rel=1e-9)


def test_power_apply_uses_eigen_expansion_exactly():
    op = make_scaled_backward_shift(2.0, 32)
    p = eigenvector_2B(float(np.sqrt(2) % 1), 2.0, 32)
    x = EigenExpansion((0.7,), EigenFamily.from_pairs([p]))
    n = 6
    fast = x.power(n).entries
    slow = x.to_vector().entries
    for _ in range(n):
        slow = apply(op, slow)
    # truncation residual grows at most like w**n per application
    assert np.linalg.norm(fast - slow) < 2.0**n * p.residual * 2
    assert np.linalg.norm(fast) == pytest.approx(0.7, rel=1e-12)


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
        apply(op, np.eye(5, dtype=complex)[0])
    with pytest.raises(ValueError):
        apply(op, np.ones((3, 5), dtype=complex))
    with pytest.raises(ValueError):
        apply(op, np.ones((4, 3), dtype=complex))
    with pytest.raises(ValueError):
        apply(op, np.complex128(1.0))


def _operators(d):
    return [
        make_scaled_backward_shift(2.5, d),
        make_perturbed_diagonal(qindependent_angles(d), 0.3, d),
    ]


@pytest.mark.parametrize("kind", ["shift", "diagonal"])
def test_batched_apply_equals_row_by_row_bit_for_bit(kind):
    d = 64
    op = _operators(d)[kind == "diagonal"]
    rng = np.random.default_rng(5)
    batch = rng.standard_normal((500, d)) + 1j * rng.standard_normal((500, d))
    batch.setflags(write=False)
    # reference: T applied to one row at a time
    rows = np.empty_like(batch)
    for i, row in enumerate(batch):
        rows[i] = apply(op, row)
    out = apply(op, batch)
    assert out.shape == batch.shape and out.dtype == complex
    assert np.array_equal(out.view(float), rows.view(float))
    # any leading shape maps over the last axis
    cube = batch.reshape(5, 100, d)
    assert np.array_equal(apply(op, cube).view(float), rows.reshape(5, 100, d).view(float))


def _reference_apply(op, x):
    """T x as a fresh array, the way _apply computed it before it took an
    output array: kept as the reference for its bits."""
    if op.kind == "scaled_backward_shift":
        out = np.zeros_like(x)
        out[..., :-1] = op.weight * x[..., 1:]
    else:
        out = _diagonal(op) * x
        out[..., :-1] += _coupling(op) * x[..., 1:]
    return out


@pytest.mark.parametrize("kind", ["shift", "diagonal"])
def test_apply_into_an_output_array_equals_a_fresh_result_bit_for_bit(kind):
    d = 64
    op = _operators(d)[kind == "diagonal"]
    rng = np.random.default_rng(6)
    x = rng.standard_normal((300, d)) + 1j * rng.standard_normal((300, d))
    x.setflags(write=False)
    # every entry of out is written, the shift's last column included
    out = np.full_like(x, np.nan)
    got = _apply(op, x, out)
    assert got is out
    fresh = _apply(op, x)
    assert np.array_equal(out.view(float), fresh.view(float))
    assert np.array_equal(out.view(float), _reference_apply(op, x).view(float))
    # a block of rows written into one half of a scratch buffer
    scratch = np.full(2 * 300 * d, np.nan, dtype=complex)
    y, ty = scratch.reshape(2, 300, d)
    y[:] = x
    _apply(op, y, ty)
    assert np.array_equal(ty.view(float), fresh.view(float))
    assert np.array_equal(y.view(float), x.view(float))


def test_power_iteration_matrix_is_the_column_stacked_basis_images():
    for op in _operators(16):
        mat = apply(op, np.eye(op.dim, dtype=complex)).T
        columns = np.column_stack(
            [apply(op, np.eye(op.dim, dtype=complex)[k]) for k in range(op.dim)]
        )
        # the matrix whose spectral norm _matrix_norm takes, bit for bit
        assert np.array_equal(np.ascontiguousarray(mat).view(float), columns.view(float))
