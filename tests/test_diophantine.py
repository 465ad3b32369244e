import itertools

import numpy as np
import pytest

from hyperlab import _kernels, diophantine
from hyperlab.diophantine import (
    CoveringNet,
    NetCoverageError,
    ReturnTimeSet,
    TorusTarget,
    _differences_outside,
    _phase_fracs,
    chord_to,
    covering_scan,
    first_returns,
    solve_simultaneous,
    syndetic_return_set,
)
from hyperlab.eigenfields import qindependent_angles

SQRT2 = float(np.sqrt(2) % 1)
SQRT3 = float(np.sqrt(3) % 1)


def test_chord_matches_complex_distance():
    rng = np.random.default_rng(0)
    x = rng.random(100)
    y = rng.random()
    manual = np.abs(np.exp(2j * np.pi * x) - np.exp(2j * np.pi * y))
    assert np.allclose(chord_to(x, y), manual)


def test_torus_target_validation():
    with pytest.raises(ValueError):
        TorusTarget((0.1,), (1.0, 1.0), 0.5)
    with pytest.raises(ValueError):
        TorusTarget((0.1,), (1.0,), 0.0)
    with pytest.raises(ValueError):
        TorusTarget((0.1,), (1.0,), 2.0)


def test_solve_simultaneous_matches_brute_force():
    target = TorusTarget((SQRT2,), (np.exp(2j * np.pi * 0.3),), 0.3)
    got = solve_simultaneous(target, 10**4)
    # independent brute force over explicit complex powers
    lam = np.exp(2j * np.pi * SQRT2)
    mu = np.exp(2j * np.pi * 0.3)
    expected = next(
        p for p in range(1, 10**4) if abs(lam**p - mu) < 0.3
    )
    assert got == expected


def test_solve_simultaneous_two_angles_verifies():
    t = TorusTarget((SQRT2, SQRT3), (1j, -1.0), 0.4)
    p = solve_simultaneous(t, 10**6)
    assert p is not None
    lams = np.exp(2j * np.pi * np.array([SQRT2, SQRT3]))
    assert np.all(np.abs(lams**p - np.array([1j, -1.0])) < 0.4)


def test_solve_simultaneous_exhausted_scan_returns_none():
    # lambda = 1 never approaches -1
    t = TorusTarget((1.0,), (-1.0,), 0.5)
    assert solve_simultaneous(t, 1000) is None


def test_solve_simultaneous_trivial_cases():
    assert solve_simultaneous(TorusTarget((), (), 0.5), 10) == 1
    with pytest.raises(ValueError):
        solve_simultaneous(TorusTarget((0.1,), (1.0,), 0.5), 0)


def per_target_scan(t: TorusTarget, p_max: int):
    """The scan of one target over full chord tests, which first_returns
    replaced; kept as the reference for its results."""
    if not t.angles:
        return 1
    angles = np.asarray(t.angles)
    mu_fracs = _phase_fracs(t.targets)
    for start in range(1, p_max + 1, diophantine._CHUNK):
        p = np.arange(start, min(start + diophantine._CHUNK, p_max + 1))
        frac = np.outer(p, angles) % 1.0
        ok = np.all(chord_to(frac, mu_fracs[None, :]) < t.eta, axis=1)
        hits = np.flatnonzero(ok)
        if hits.size:
            return int(p[hits[0]])
    return None


def _edge_case(rng, k):
    """Angles, targets and eta such that, at a power q, every coordinate
    but the first matches its target exactly and the first one's chord
    lies within 1e-12 of eta, on either side."""
    angles = rng.random(k)
    q = int(rng.integers(1, 400))
    frac = (np.outer([q], angles) % 1.0)[0]
    offset = rng.uniform(0.02, 0.2) * rng.choice([-1, 1])
    targets = np.exp(2j * np.pi * frac)
    targets[0] = np.exp(2j * np.pi * (frac[0] + offset))
    mu = _phase_fracs(targets)
    chord = float(chord_to(frac[:1], mu[:1])[0])
    eta = chord + rng.choice([-1, 1]) * rng.uniform(1e-15, 1e-12)
    return angles, [targets], eta


@pytest.mark.parametrize("chunk", [97, diophantine._CHUNK])
def test_first_returns_matches_the_per_target_scan(chunk, monkeypatch):
    monkeypatch.setattr(diophantine, "_CHUNK", chunk)
    if chunk < diophantine._FIRST_CHUNK:
        # chunks of 5, 10, 20, 40 and 80 powers, then 97 each
        monkeypatch.setattr(diophantine, "_FIRST_CHUNK", 5)
    rng = np.random.default_rng(chunk)
    cases = [(np.empty(0), np.ones((3, 0)), 0.5, 10)]
    for _ in range(40):
        k = int(rng.integers(0, 5))
        angles = rng.random(k)
        # a rational angle never comes near most targets: None results
        if k and rng.random() < 0.2:
            angles[0] = 0.5
        eta = float(rng.uniform(0.05, 1.9))
        n = int(rng.integers(1, 6))
        targets = np.exp(2j * np.pi * rng.random((n, k)))
        p_max = int(rng.choice([1, 7, 500, 20_000]))
        cases.append((angles, targets, eta, p_max))
    for k in (1, 2, 3, 4):
        for _ in range(12):
            angles, targets, eta = _edge_case(rng, k)
            cases.append((angles, targets, eta, 1000))
    # the diophantine pipeline's grid targets, whose coordinates share
    # values, in order and as duplicated rows
    grids = []
    for k, per_angle, eta in ((2, 2, 0.3), (2, 3, 0.5), (3, 2, 0.5), (3, 3, 0.9), (4, 2, 1.0)):
        targets = _grid_targets(k, per_angle)
        rows = rng.integers(0, len(targets), size=2 * len(targets))
        grids.append(len(cases))
        cases.append((qindependent_angles(k), targets, eta, 20_000))
        cases.append((qindependent_angles(k), targets[rows], eta, 20_000))
    results = []
    for i, (angles, targets, eta, p_max) in enumerate(cases):
        got = first_returns(angles, targets, eta, p_max)
        expected = [
            per_target_scan(TorusTarget(angles, mu, eta), p_max) for mu in targets
        ]
        assert got == expected, (angles, targets, eta, p_max)
        results += got
        if i in grids:
            assert None not in got
            # the chunks of powers that solve the grid targets
            starts = [int(p[0]) for p in diophantine._powers(p_max)]
            chunks = set(np.searchsorted(starts, got, side="right").tolist())
            assert len(chunks) > 1 or chunk > 1000
    assert None in results and 1 in results
    if chunk < 1000:
        # targets solved in later chunks than others
        assert any(p is not None and p > chunk for p in results)


def _grid_targets(k, per_angle):
    """The targets of the diophantine pipeline: one row per cell of a
    per_angle ** k grid."""
    grid = np.exp(2j * np.pi * (np.arange(per_angle) + 0.5) / per_angle)
    return np.array([grid[list(idx)] for idx in np.ndindex((per_angle,) * k)])


def test_first_returns_argument_checks():
    assert first_returns([], np.ones((3, 0)), 0.5, 10) == [1, 1, 1]
    with pytest.raises(ValueError, match="p_max"):
        first_returns([SQRT2], [[1.0]], 0.5, 0)
    for eta in (0.0, 2.0):
        with pytest.raises(ValueError, match="eta"):
            first_returns([SQRT2], [[1.0]], eta, 10)
    with pytest.raises(ValueError, match="targets"):
        first_returns([SQRT2, SQRT3], [[1.0]], 0.5, 10)


def test_covering_net_solves_arbitrary_targets():
    net = covering_scan((SQRT2, SQRT3), 0.4, 0.2, p_max=10**6)
    assert isinstance(net, CoveringNet)
    rng = np.random.default_rng(3)
    lams = np.exp(2j * np.pi * np.array([SQRT2, SQRT3]))
    for _ in range(100):
        fracs = rng.random(2)
        # nearest net point, then its stored power
        i, j = np.round(fracs * net.mesh).astype(int) % net.mesh
        p = int(net.cell_to_p[i * net.mesh + j])
        assert np.all(np.abs(lams**p - np.exp(2j * np.pi * fracs)) < 0.4)


def test_covering_scan_respects_fixed_angle_filter():
    net = covering_scan(
        (SQRT2,), 0.5, 0.25, fixed_angles=(SQRT3,), fixed_eta=0.8, p_max=10**6
    )
    lam_fixed = np.exp(2j * np.pi * SQRT3)
    for p in net.return_times.times:
        assert abs(lam_fixed**p - 1.0) < 0.8


def test_covering_scan_raises_when_uncoverable():
    # lambda = 1 only ever lands on the cell containing 1
    with pytest.raises(NetCoverageError) as err:
        covering_scan((1.0,), 0.1, 0.05, p_max=100)
    assert err.value.p_max == 100


def _fixed_chunk_cells(angles, eta, net_resolution, fixed_angles=(), fixed_eta=2.0, p_max=10**6):
    """Reference: covering_scan's first power per cell from chunks of
    _CHUNK powers throughout, or the NetCoverageError it raises."""
    angles, fixed = np.asarray(angles, dtype=float), np.asarray(fixed_angles, dtype=float)
    k = angles.size
    m = int(np.ceil(2 * np.pi / net_resolution))
    cell_to_p = np.full(m**k, -1, dtype=np.int64)
    strides = m ** np.arange(k - 1, -1, -1)
    for start in range(1, p_max + 1, diophantine._CHUNK):
        p = np.arange(start, min(start + diophantine._CHUNK, p_max + 1))
        if fixed.size:
            p = p[np.all(chord_to(np.outer(p, fixed) % 1.0, 0.0) < fixed_eta, axis=1)]
        flat = (np.round((np.outer(p, angles) % 1.0) * m).astype(np.int64) % m) @ strides
        uniq, first = np.unique(flat, return_index=True)
        new = cell_to_p[uniq] < 0
        cell_to_p[uniq[new]] = p[first[new]]
        if np.all(cell_to_p >= 0):
            break
    if np.any(cell_to_p < 0):
        point = np.unravel_index(int(np.flatnonzero(cell_to_p < 0)[0]), (m,) * k)
        raise NetCoverageError(tuple(complex(np.exp(2j * np.pi * i / m)) for i in point), p_max)
    return cell_to_p


def _same_outcome(args, kwargs):
    try:
        expected = _fixed_chunk_cells(*args, **kwargs)
    except NetCoverageError as err:
        with pytest.raises(NetCoverageError) as got:
            covering_scan(*args, **kwargs)
        assert got.value.net_point == err.net_point and got.value.p_max == err.p_max
        return False
    assert np.array_equal(covering_scan(*args, **kwargs).cell_to_p, expected)
    return True


@pytest.mark.parametrize("first_chunk", [3, diophantine._FIRST_CHUNK])
def test_growing_chunks_find_the_fixed_chunk_powers(first_chunk, monkeypatch):
    monkeypatch.setattr(diophantine, "_FIRST_CHUNK", first_chunk)
    rng = np.random.default_rng(first_chunk)
    covered = 0
    for n_fixed in (0, 1, 2):
        for _ in range(8):
            k = int(rng.integers(1, 3))
            eta = float(rng.uniform(0.6, 1.8))
            fixed = tuple(rng.random(n_fixed))
            fixed_eta = float(rng.uniform(0.3, 1.9))
            args = (tuple(rng.random(k)), eta, eta / 2 * float(rng.uniform(0.5, 1.0)))
            p_max = int(rng.choice([50, 10**6]))
            kwargs = dict(fixed_angles=fixed, fixed_eta=fixed_eta, p_max=p_max)
            covered += _same_outcome(args, kwargs)
    assert 0 < covered < 24


def test_growing_chunks_skip_an_early_chunk_the_fixed_angles_empty():
    # lambda_fixed**p stays far from 1 for every p of the first chunk and
    # comes back near 1 only close to multiples of 1500
    fixed = (1 / 1500 + 1e-9 * SQRT2,)
    p = np.arange(1, diophantine._FIRST_CHUNK + 1)
    assert not np.any(chord_to(np.outer(p, fixed) % 1.0, 0.0) < 0.004)
    kwargs = dict(fixed_angles=fixed, fixed_eta=0.004)
    assert _same_outcome(((SQRT2,), 1.0, 0.5), kwargs)
    assert not _same_outcome(((SQRT2,), 1.0, 0.5), dict(kwargs, p_max=4000))


def test_growing_chunks_report_the_same_uncovered_point():
    assert not _same_outcome(((SQRT2,), 0.3, 0.15), dict(p_max=20))
    assert not _same_outcome(((SQRT2, SQRT3), 0.8, 0.4), dict(p_max=diophantine._FIRST_CHUNK + 1))


@pytest.mark.parametrize("budget", [None, 2**6])
def test_net_verification_checks_every_block_of_cells(budget, monkeypatch):
    if budget:
        # 21 cells a block for two angles and one fixed angle
        monkeypatch.setattr(_kernels, "_BLOCK", budget)
    fixed = np.array([float(np.sqrt(5) % 1)])
    net = covering_scan((SQRT2, SQRT3), 0.4, 0.2, fixed, 1.0, p_max=10**6)
    assert net.mesh == 32
    diophantine._verify_net(net, fixed, 1.0)
    # the cell of the net point (-1, -1) given the power of the cell of (1, 1)
    bad = net.cell_to_p.copy()
    bad[16 * 32 + 16] = bad[0]
    bad = CoveringNet(net.angles, net.eta, net.mesh, bad)
    with pytest.raises(AssertionError, match="invalid power"):
        diophantine._verify_net(bad, fixed, 1.0)
    # no stored power meets a filter of 1e-9, and the net check comes first
    with pytest.raises(AssertionError, match="fixed-angle filter"):
        diophantine._verify_net(net, fixed, 1e-9)
    with pytest.raises(AssertionError, match="invalid power"):
        diophantine._verify_net(bad, fixed, 1e-9)


def test_covering_scan_parameter_validation():
    with pytest.raises(ValueError):
        covering_scan((SQRT2,), -0.1, 0.05)
    with pytest.raises(ValueError):
        covering_scan((SQRT2,), 0.1, 0.2)  # resolution above eta/2


def test_return_time_net_covers_the_whole_torus():
    net = covering_scan((SQRT2,), 0.5, 0.25, p_max=10**6)
    times = net.return_times
    assert len(times) >= 1 and np.all(net.cell_to_p >= 1)
    assert times.pi_max == max(times.times)


def test_return_time_set_dedup_and_validation():
    s = ReturnTimeSet([5, 3, 3, 9])
    assert s.times.tolist() == [3, 5, 9] and s.pi_max == 9 and len(s) == 3
    assert s.times.dtype == np.int64 and not s.times.flags.writeable
    rng = np.random.default_rng(3)
    for values in (rng.integers(-5, 50, 300), rng.integers(0, 2**40, 1000), np.arange(7)[::-1]):
        assert ReturnTimeSet(values).times.tolist() == sorted(set(values.tolist()))
    with pytest.raises(ValueError):
        ReturnTimeSet([])


def test_syndetic_set_matches_brute_force(monkeypatch):
    # the horizon spans chunks of 100, 200 and 300 powers, then 300 each
    monkeypatch.setattr(diophantine, "_FIRST_CHUNK", 100)
    monkeypatch.setattr(diophantine, "_CHUNK", 300)
    for angles, eta in (((SQRT2,), 0.4), ((SQRT2, SQRT3), 0.8), ((), 0.4)):
        res = syndetic_return_set(angles, eta, 2000)
        lams = np.exp(2j * np.pi * np.array(angles))
        manual = [p for p in range(1, 2001) if np.all(np.abs(lams**p - 1.0) < eta)]
        half = [p for p in manual if np.all(np.abs(lams**p - 1.0) < eta / 2)]
        assert list(res.times) == manual
        gaps = np.diff([0] + manual)
        assert res.gap_bound == int(gaps.max())
        outside = {b - a for a, b in itertools.combinations(half, 2)} - set(manual)
        assert res.violations == tuple(sorted(outside))


def test_syndetic_difference_set_inclusion_holds():
    res = syndetic_return_set((SQRT2, SQRT3), 0.5, 10**4)
    assert len(res.times) > 0
    assert res.violations == ()
    # the half-tolerance set is contained in the full set
    lams = np.exp(2j * np.pi * np.array([SQRT2, SQRT3]))
    d_prime = [p for p in range(1, 10**4 + 1) if np.all(np.abs(lams**p - 1.0) < 0.25)]
    assert d_prime and set(d_prime) <= set(res.times)


def test_syndetic_validation_errors():
    with pytest.raises(ValueError):
        syndetic_return_set((SQRT2,), 0.4, 999)
    with pytest.raises(ValueError):
        syndetic_return_set((SQRT2,), 1e-9, 1000)
    for eta in (0.0, 2.0, 5.0):
        with pytest.raises(ValueError, match="eta"):
            syndetic_return_set((SQRT2,), eta, 1000)


@pytest.mark.parametrize("horizon, density", [(50, 0.3), (400, 0.1), (3000, 0.15)])
def test_difference_check_matches_brute_force(horizon, density):
    # random sets, unlike return-time sets, have differences outside D;
    # at (3000, 0.15) the difference matrix spans several row blocks
    rng = np.random.default_rng(horizon)
    d_mask = rng.random(horizon) < 0.5
    d_prime = np.flatnonzero(rng.random(horizon) < density) + 1
    pairs = itertools.combinations(d_prime.tolist(), 2)
    expected = sorted({b - a for a, b in pairs if not d_mask[b - a - 1]})
    assert expected
    assert _differences_outside(d_prime, d_mask) == tuple(expected)
