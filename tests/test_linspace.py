import numpy as np
import pytest

from hyperlab.linspace import StateVector, norm


def test_vector_construction_rejects_bad_entries():
    with pytest.raises(ValueError):
        StateVector(np.array([]))
    with pytest.raises(ValueError):
        StateVector(np.ones((2, 2)))
    with pytest.raises(ValueError):
        StateVector([1.0, np.inf])
    with pytest.raises(ValueError):
        StateVector([1.0, np.nan])


def test_entries_are_immutable():
    v = StateVector([1.0, 2.0])
    with pytest.raises(ValueError):
        v.entries[0] = 5.0


def test_norm_triangle_inequality_and_homogeneity():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        d = int(rng.integers(1, 12))
        a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        b = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        c = complex(rng.standard_normal(), rng.standard_normal())
        va, vb = StateVector(a), StateVector(b)
        lhs = norm(StateVector(a + b))
        assert lhs <= (norm(va) + norm(vb)) * (1 + 1e-12)
        assert norm(StateVector(c * a)) == pytest.approx(
            abs(c) * norm(va), rel=1e-12
        )


def test_norm_matches_manual_lp():
    a = np.array([3.0, -4.0, 1j])
    assert norm(StateVector(a)) == pytest.approx(np.sqrt(26.0))

