import dataclasses

import numpy as np
import pytest

from hyperlab import (
    cantor,
    construction,
    density,
    diophantine,
    eigenfields,
    ergodicity,
    linspace,
    operators,
)
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


# records whose fields hold arrays, directly or through a StateVector
_ARRAY_RECORDS = (
    linspace.StateVector,
    operators.OperatorSpec,
    eigenfields.EigenPair,
    cantor.SeparationReport,
    density.TargetBall,
    density.VisitRecord,
    density.FhcReport,
    diophantine.CoveringNet,
    ergodicity.WitnessReport,
    construction.Block,
    construction.ConstructionState,
)


@pytest.mark.parametrize("cls", _ARRAY_RECORDS, ids=lambda cls: cls.__name__)
def test_records_of_arrays_compare_and_hash_by_identity(cls):
    # a generated __eq__ would compare the arrays, whose truth value raises,
    # and a generated __hash__ would hash them, which raises too
    a, b = (object.__new__(cls) for _ in range(2))
    for record in (a, b):
        for field in dataclasses.fields(cls):
            object.__setattr__(record, field.name, np.ones(3))
    assert a == a and not a == b and a != b
    assert hash(a) == object.__hash__(a) and hash(b) == object.__hash__(b)
