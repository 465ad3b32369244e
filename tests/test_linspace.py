import numpy as np
import pytest

from hyperlab import (
    _kernels,
    cantor,
    cli,
    construction,
    density,
    diophantine,
    eigenfields,
    ergodicity,
    linspace,
    operators,
    steinhaus,
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
    eigenfields.EigenFamily,
    eigenfields.EigenExpansion,
    cantor.CantorField,
    cantor.SeparationReport,
    density.TargetBall,
    density.VisitRecord,
    density.FhcReport,
    diophantine.ReturnTimeSet,
    diophantine.CoveringNet,
    ergodicity.WitnessReport,
    construction.Block,
    construction.ConstructionState,
)


@pytest.mark.parametrize("cls", _ARRAY_RECORDS, ids=lambda cls: cls.__name__)
def test_records_of_arrays_compare_and_hash_by_identity(cls):
    # an __eq__ over the fields would compare the arrays, whose truth value
    # raises, and a __hash__ over them would hash them, which raises too
    a, b = (object.__new__(cls) for _ in range(2))
    for record in (a, b):
        for name in cls.__slots__:
            object.__setattr__(record, name, np.ones(3))
    assert a == a and not a == b and a != b
    assert hash(a) == object.__hash__(a) and hash(b) == object.__hash__(b)


_CERTIFICATE = (1, 0.1, 0.25, 1.0, 0.5, 0.01)
# records that compare by their fields: (class, arguments, arguments of a
# record that differs in one field)
_VALUE_RECORDS = (
    (steinhaus.MCReport, (0.5, 0.01, 1000), (0.5, 0.01, 1001)),
    (steinhaus.InvarianceReport, (((0, 1, 0.1, 0.2),), 0.1), (((0, 2, 0.1, 0.2),), 0.1)),
    (construction.CoefficientSplit, ((0.5j, 0.5j),), ((0.5j,),)),
    (construction.BlockCertificate, _CERTIFICATE, (2, *_CERTIFICATE[1:])),
    (
        construction.ConstructionReport,
        ((construction.BlockCertificate(*_CERTIFICATE),), 0.1, 0.25),
        ((construction.BlockCertificate(2, *_CERTIFICATE[1:]),), 0.1, 0.25),
    ),
    (construction.ConstructionTarget, (((0.5, 3),), 0.5), (((0.5, 3),), 0.5, 2)),
    (diophantine.SyndeticResult, ((1, 2, 3), 1, ()), ((1, 2, 3), 1, (4,))),
    (diophantine.TorusTarget, ((0.1, 0.2), (1, 1j), 0.5), ((0.1, 0.2), (1, -1j), 0.5)),
    (ergodicity.CorrelationSpec, ((1,), (1j,), (0.3,)), ((1,), (1j,), (0.4,))),
    (
        cli.ExperimentConfig,
        (1, 8, {}, {"count": 16}, {"cantor": {}}, {"cantor": {"depth": 1}}),
        (1, 8, {}, {"count": 16}, {"cantor": {}}, {"cantor": {"depth": 2}}),
    ),
)
# the only records whose fields may be assigned
_MUTABLE = (construction.ConstructionState, cli.ExperimentConfig)


@pytest.mark.parametrize(
    "cls, args, other", _VALUE_RECORDS, ids=[row[0].__name__ for row in _VALUE_RECORDS]
)
def test_value_records_compare_and_hash_by_their_fields(cls, args, other):
    a, b, c = cls(*args), cls(*args), cls(*other)
    assert a == b and not a != b and a is not b
    # the fields by name build the same record
    assert cls(**dict(zip(cls.__slots__, args))) == a
    assert a != c and not a == c
    # a record is not the tuple of its fields
    assert a != tuple(getattr(a, name) for name in cls.__slots__)
    if cls in _MUTABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b, c}) == 2
    assert repr(a).startswith(f"{cls.__name__}({cls.__slots__[0]}=")


_FROZEN = [cls for cls in _ARRAY_RECORDS if cls not in _MUTABLE]
_FROZEN += [row[0] for row in _VALUE_RECORDS if row[0] not in _MUTABLE]


@pytest.mark.parametrize("cls", _FROZEN, ids=lambda cls: cls.__name__)
def test_frozen_records_refuse_assignment(cls):
    record = object.__new__(cls)
    for name in cls.__slots__:
        object.__setattr__(record, name, name)
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == name
    # slots leave no room for a field the class does not name
    with pytest.raises(AttributeError):
        object.__setattr__(record, "extra", 0)


@pytest.mark.parametrize("cls", _MUTABLE, ids=lambda cls: cls.__name__)
def test_mutable_records_take_assignment(cls):
    record = object.__new__(cls)
    for name in cls.__slots__:
        setattr(record, name, name)
        assert getattr(record, name) == name


def test_each_construction_state_has_its_own_lists():
    op = operators.make_scaled_backward_shift(2.0, 4)
    a, b = (construction.ConstructionState(op, None) for _ in range(2))
    a.blocks.append(1)
    a.used.append(2)
    assert b.blocks == [] and b.used == []


@pytest.mark.parametrize(
    "values, named",
    [
        # too few, too many
        ((0.5, 0.01), {}),
        ((0.5, 0.01, 1000, 1), {}),
        # a missing name, an unknown one, one given by position as well
        ((), {"estimate": 0.5, "stderr": 0.01}),
        ((0.5, 0.01), {"trials": 1000, "samples": 1}),
        ((0.5, 0.01), {"estimate": 0.5, "trials": 1000}),
    ],
)
def test_a_record_refuses_values_that_do_not_match_its_fields(values, named):
    with pytest.raises(TypeError, match="estimate, stderr, trials"):
        steinhaus.MCReport(*values, **named)


def _post_init_builds():
    """(class, positional values) for every record class that checks or
    converts its fields, with a family to build an expansion over."""
    family = eigenfields.EigenFamily([0.25], [[1.0]], [0.0])
    ball = density.TargetBall(StateVector([1.0]), 0.5)
    return family, {
        linspace.StateVector: ([1.0, 2.0],),
        eigenfields.EigenFamily: ([0.25], [[1.0]], [0.0]),
        eigenfields.EigenExpansion: ([0.5], family),
        density.TargetBall: (StateVector([1.0]), 0.5),
        density.VisitRecord: ([3, 1], 5, ball),
        diophantine.ReturnTimeSet: ([3, 1],),
        diophantine.TorusTarget: ((0.1,), (1,), 0.5),
        construction.ConstructionTarget: (((0.5, 3),), 0.5),
        ergodicity.CorrelationSpec: ((1,), (1j,), (0.3,)),
    }


def _counted_post_init(monkeypatch, cls) -> list:
    """Wrap cls.__post_init__ on the class, as a tracer does; the list
    returned gets one entry per call."""
    calls, post_init = [], cls.__post_init__

    def wrapper(self):
        calls.append(self)
        return post_init(self)

    monkeypatch.setattr(cls, "__post_init__", wrapper)
    return calls


_MODULES = (
    cantor, cli, construction, density, diophantine, eigenfields, ergodicity, linspace, operators,
    steinhaus,
)


def _records_defining(name) -> set:
    """The record classes of the lab's modules whose class body defines name."""
    return {
        cls
        for mod in _MODULES
        for cls in vars(mod).values()
        if isinstance(cls, type)
        and cls.__module__ == mod.__name__
        and issubclass(cls, _kernels._Record)
        and name in vars(cls)
    }


def test_only_the_records_with_defaults_write_an_init():
    defaults = {construction.ConstructionTarget, construction.ConstructionState}
    assert _records_defining("__init__") == defaults | {operators.OperatorSpec}


def test_every_checked_record_runs_its_post_init_once_per_build(monkeypatch):
    checked = _records_defining("__post_init__")
    family, builds = _post_init_builds()
    assert checked == set(builds)
    for cls, values in builds.items():
        calls = _counted_post_init(monkeypatch, cls)
        built = [cls(*values), cls(**dict(zip(cls.__slots__, values)))]
        assert calls == built
    # a build through a pipeline's path: each power is one StateVector
    x = eigenfields.EigenExpansion([0.5], family)
    calls = _counted_post_init(monkeypatch, linspace.StateVector)
    vectors = [x.power(n) for n in range(3)]
    assert calls == vectors
