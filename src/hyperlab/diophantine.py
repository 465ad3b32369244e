"""Simultaneous approximation on the torus and return-time sets.

Everything here scans the powers p = 1, 2, ... in order: for
Q-independent irrational angles the joint powers equidistribute, so a
solving power always exists and a finite scan finds the smallest one.
Every scan takes its powers from one schedule (:func:`_powers`) and
keeps the powers whose every phase lies within eta of its target by one
test (:func:`_within`, whose steps :func:`first_returns` shares among
its targets), which computes and checks one coordinate at a time on the
powers still left.  Covering nets re-verify every stored power.
"""

from __future__ import annotations

import numpy as np

from ._kernels import _Frozen, _Value, _cuts, _distinct, chord_to

_CHUNK = 65536
# every scan's first chunk; each next one is twice as long, up to _CHUNK,
# since a scan often ends within its first few powers
_FIRST_CHUNK = 1024


def _powers(p_max: int):
    """The powers 1, ..., p_max in order, as chunks of _FIRST_CHUNK
    powers, then twice as many each time up to _CHUNK."""
    start, size = 1, _FIRST_CHUNK
    while start <= p_max:
        yield np.arange(start, min(start + size, p_max + 1))
        start, size = start + size, min(2 * size, _CHUNK)


def _fracs(angle, p: np.ndarray, kept) -> np.ndarray:
    """The phase fractions (angle * p) % 1.0 of the powers p[kept] (all of
    p when ``kept`` is None)."""
    return (angle * (p if kept is None else p[kept])) % 1.0


def _passing(frac: np.ndarray, mu_frac, eta: float, kept) -> np.ndarray:
    """The entries of ``kept`` (indices into the powers; all of them when
    None) whose phase fraction in ``frac`` lies within eta of mu_frac."""
    hit = chord_to(frac, mu_frac) < eta
    return np.flatnonzero(hit) if kept is None else kept[hit]


def _within(angles, p: np.ndarray, mu_fracs, eta: float, kept=None) -> np.ndarray:
    """The indices i among ``kept`` (default: all) of the powers p with
    chord_to((angles[j] * p[i]) % 1.0, mu_fracs[j]) < eta for every j.
    Coordinate j's fractions are computed only on the powers that the
    coordinates before it kept; with no angles all stay."""
    for angle, mu_frac in zip(angles, mu_fracs):
        kept = _passing(_fracs(angle, p, kept), mu_frac, eta, kept)
    return np.arange(p.size) if kept is None else kept


class TorusTarget(_Value):
    """System of inequalities |lambda_j**p - mu_j| < eta, for the
    unimodular complex numbers mu_j of ``targets``."""

    __slots__ = ("angles", "targets", "eta")

    def __init__(self, angles: tuple, targets: tuple, eta: float):
        self._fill(angles, targets, eta)
        self.__post_init__()

    def __post_init__(self):
        self._fill(
            tuple(float(a) for a in self.angles),
            tuple(complex(t) for t in self.targets),
            self.eta,
        )
        if len(self.angles) != len(self.targets):
            raise ValueError("angles and targets must have equal length")
        if not 0 < self.eta < 2:
            raise ValueError("eta must lie in (0, 2)")


def _phase_fracs(z) -> np.ndarray:
    """Phase of each unimodular z as a fraction of a turn, in [0, 1)."""
    return (np.angle(np.asarray(z, dtype=complex)) / (2 * np.pi)) % 1.0


class ReturnTimeSet(_Frozen):
    """A nonempty set of powers: a read-only ascending int64 array."""

    __slots__ = ("times",)

    def __init__(self, times: np.ndarray):
        self._fill(times)
        self.__post_init__()

    def __post_init__(self):
        times = _distinct(self.times)
        if not times.size:
            raise ValueError("return-time set must be nonempty")
        self._fill(times)

    @property
    def pi_max(self) -> int:
        return int(self.times[-1])

    def __len__(self) -> int:
        return len(self.times)


class NetCoverageError(ValueError):
    """Raised when some net point has no solving power within p_max."""

    def __init__(self, net_point, p_max):
        self.net_point = net_point
        self.p_max = p_max
        super().__init__(
            f"no power p <= {p_max} solves the net point {net_point}"
        )


def first_returns(angles, targets, eta: float, p_max: int) -> list[int | None]:
    """For each row mu of ``targets``, the smallest p in [1, p_max] with
    |lambda_j**p - mu_j| < eta for all j, or None if the finite scan is
    exhausted; lambda_j = exp(2*pi*i*angles[j]).

    One scan serves every target, as :func:`_within` would for each: in
    each chunk of powers, the unsolved targets that agree on every
    coordinate before j share coordinate j's phase fractions, and share
    the chord test of each value that coordinate takes among them.  Every
    target takes the first power of the chunk that its tests keep.
    """
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    if not 0 < eta < 2:
        raise ValueError("eta must lie in (0, 2)")
    angles = np.asarray(angles, dtype=float)
    mu_fracs = _phase_fracs(targets)
    if mu_fracs.ndim != 2 or mu_fracs.shape[1] != angles.size:
        raise ValueError("targets must be an (n, k) array for k angles")
    powers = [None] * len(mu_fracs)
    for p in _powers(p_max):
        unsolved = [i for i, q in enumerate(powers) if q is None]
        if not unsolved:
            break
        # (targets that agree on the coordinates before j, j, the powers
        # those coordinates kept, None for all)
        groups = [(np.array(unsolved), 0, None)]
        while groups:
            rows, j, kept = groups.pop()
            if j == angles.size:
                for i in rows.tolist():
                    powers[i] = int(p[0 if kept is None else kept[0]])
                continue
            frac, column = _fracs(angles[j], p, kept), mu_fracs[rows, j]
            for value in set(column.tolist()):
                passed = _passing(frac, value, eta, kept)
                if passed.size:
                    groups.append((rows[column == value], j + 1, passed))
    return powers


def solve_simultaneous(t: TorusTarget, p_max: int) -> int | None:
    """Smallest p in [1, p_max] with |lambda_j**p - mu_j| < eta for all j,
    or None if the finite scan is exhausted (:func:`first_returns` for
    the one target)."""
    return first_returns(t.angles, [t.targets], t.eta, p_max)[0]


class CoveringNet(_Frozen):
    """Product net over the torus with one verified solving power per net
    point.

    Net points are the grid exp(2*pi*i * i/m), i < m, in each coordinate,
    with m chosen so adjacent chord spacing is at most the requested
    resolution.  Any target tuple is within resolution/2 of some net point,
    and that point's power solves the target at tolerance eta.
    ``cell_to_p`` is a flat array of length mesh**k.
    """

    __slots__ = ("angles", "eta", "mesh", "cell_to_p")

    def __init__(self, angles: tuple, eta: float, mesh: int, cell_to_p: np.ndarray):
        self._fill(angles, eta, mesh, cell_to_p)

    @property
    def return_times(self) -> ReturnTimeSet:
        return ReturnTimeSet(self.cell_to_p)


def covering_scan(
    angles,
    eta: float,
    net_resolution: float,
    fixed_angles=(),
    fixed_eta: float = 2.0,
    p_max: int = 10**6,
) -> CoveringNet:
    """Scan p = 1, 2, ... marking, for each net cell, the first p whose
    phase tuple lands on it, optionally restricted to p with
    |lambda_old**p - 1| < fixed_eta for every fixed angle.

    The powers are scanned in the order :func:`_powers` yields them, so
    every cell keeps its first power.  The scan stops once every cell is
    marked; otherwise it raises :class:`NetCoverageError` carrying an
    uncovered net point.
    """
    angles = np.asarray([float(a) for a in angles])
    fixed = np.asarray([float(a) for a in fixed_angles])
    if eta <= 0:
        raise ValueError("eta must be positive")
    if eta < 2 and net_resolution > eta / 2:
        raise ValueError("net resolution must be at most eta/2")
    k, m = angles.size, 1 if eta >= 2 else int(np.ceil(2 * np.pi / net_resolution))
    # with no angles, or m = 1, the net is the one cell 0
    cell_to_p = np.full(m**k, -1, dtype=np.int64)
    remaining = cell_to_p.size
    strides = m ** np.arange(k - 1, -1, -1)
    for p in _powers(p_max):
        p = p[_within(fixed, p, np.zeros(fixed.size), fixed_eta)]
        frac = np.outer(angles, p) % 1.0
        flat = strides @ (np.round(frac * m).astype(np.int64) % m)
        uniq, first = np.unique(flat, return_index=True)
        new = cell_to_p[uniq] < 0
        cell_to_p[uniq[new]] = p[first[new]]
        remaining -= int(np.sum(new))
        if remaining == 0:
            break
    if remaining > 0:
        missing = int(np.flatnonzero(cell_to_p < 0)[0])
        point = np.unravel_index(missing, (m,) * k)
        nu = tuple(complex(np.exp(2j * np.pi * i / m)) for i in point)
        raise NetCoverageError(nu, p_max)
    net = CoveringNet(tuple(angles.tolist()), float(eta), m, cell_to_p)
    _verify_net(net, fixed, fixed_eta)
    return net


def _verify_net(net: CoveringNet, fixed: np.ndarray, fixed_eta: float) -> None:
    """Re-evaluate every stored power against its net point independently,
    a block of cells of :func:`_kernels._cuts` at a time."""
    k, m = len(net.angles), net.mesh
    angles, p = np.asarray(net.angles), net.cell_to_p
    on_net = on_filter = True
    for start, stop in _cuts(p.size, k + fixed.size):
        cells = p[start:stop]
        if k and m > 1:
            grid = np.array(np.unravel_index(np.arange(start, stop), (m,) * k)).T / m
            on_net &= bool(np.all(chord_to(np.outer(cells, angles) % 1.0, grid) < net.eta))
        on_filter &= bool(np.all(chord_to(np.outer(cells, fixed) % 1.0, 0.0) < fixed_eta))
    if not on_net:
        raise AssertionError("covering scan produced an invalid power")
    if not on_filter:
        raise AssertionError("covering scan violated the fixed-angle filter")


class SyndeticResult(_Value):
    """The set D (``times``), its largest gap r within the horizon
    (``gap_bound``) and the elements of (D'-D') in [1, horizon] missing
    from D (``violations``)."""

    __slots__ = ("times", "gap_bound", "violations")

    def __init__(self, times: tuple, gap_bound: int, violations: tuple):
        self._fill(times, gap_bound, violations)


def syndetic_return_set(angles, eta: float, horizon: int) -> SyndeticResult:
    """D = {p <= horizon : |lambda_j**p - 1| < eta for all j}, together with
    the half-tolerance set D' and the difference-set inclusion check
    (D' - D') n N n [1, horizon] subset of D."""
    if horizon < 10**3:
        raise ValueError("horizon must be at least 10**3")
    if not 0 < eta < 2:
        raise ValueError("eta must lie in (0, 2)")
    angles = np.asarray([float(a) for a in angles])
    one = np.zeros(angles.size)  # the phase fractions of the target 1
    d_mask, d_prime = np.zeros(horizon, dtype=bool), []
    # D' lies in D, since its chords are all below eta / 2
    for p in _powers(horizon):
        kept = _within(angles, p, one, eta)
        d_mask[p[kept] - 1] = True
        d_prime.append(p[_within(angles, p, one, eta / 2, kept)])
    d = np.flatnonzero(d_mask) + 1
    if d.size == 0:
        raise ValueError(f"return set empty within horizon {horizon}: eta={eta} too tight")
    gap_bound = int(np.diff(d, prepend=0).max())
    d_prime = np.concatenate(d_prime)
    return SyndeticResult(tuple(d.tolist()), gap_bound, _differences_outside(d_prime, d_mask))


def _differences_outside(d_prime: np.ndarray, d_mask: np.ndarray) -> tuple:
    """Sorted positive differences of the ascending powers ``d_prime``
    that are not in D, where ``d_mask[p - 1]`` says whether p is in D and
    ``d_prime`` lies in [1, d_mask.size].

    The difference matrix is formed a block of rows of :func:`_kernels._cuts`
    at a time, so its size does not grow with D' beyond a few rows.  D' is
    ascending, so a block's rows take only the columns right of its first
    row: the columns up to that row give no positive difference.
    """
    n = d_mask.size
    # outside[v] says whether v is a power in [1, n] outside D, and every
    # other entry is False: a difference v in [-n, 0] reads outside[0] or,
    # by negative indexing, outside[2n + 1 + v], past the first n + 1
    outside = np.zeros(2 * n + 1, dtype=bool)
    np.logical_not(d_mask, out=outside[1 : n + 1])
    missing = np.zeros(n + 1, dtype=bool)
    for start, stop in _cuts(d_prime.size, d_prime.size):
        diffs = d_prime[None, start + 1 :] - d_prime[start:stop, None]
        missing[diffs[outside[diffs]]] = True
    return tuple(np.flatnonzero(missing).tolist())
