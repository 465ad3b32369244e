"""Simultaneous approximation on the torus and return-time sets.

Everything here scans the powers p = 1, 2, ... in order: for
Q-independent irrational angles the joint powers equidistribute, so a
solving power always exists and a finite scan finds the smallest one.
Every scan takes its powers from one schedule (:func:`_powers`) and
keeps the powers whose every phase lies within eta of its target by one
test (:func:`_within`), which checks one coordinate at a time on the
powers still left.  Covering nets re-verify every stored power.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import _cuts, _distinct, chord_to

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


def _within(frac: np.ndarray, mu_fracs, eta: float, kept=None) -> np.ndarray:
    """The columns i among ``kept`` (default: all) of the k x n phase
    fractions ``frac``, one row per angle and one column per power, with
    chord_to(frac[j, i], mu_fracs[j]) < eta for every j.  Each coordinate
    is tested on the columns the ones before it kept; with k = 0 all stay.
    """
    for j in range(len(frac)):
        if kept is None:
            kept = np.flatnonzero(chord_to(frac[j], mu_fracs[j]) < eta)
        else:
            kept = kept[chord_to(frac[j, kept], mu_fracs[j]) < eta]
    return np.arange(frac.shape[1]) if kept is None else kept


@dataclass(frozen=True)
class TorusTarget:
    """System of inequalities |lambda_j**p - mu_j| < eta."""

    angles: tuple
    targets: tuple  # unimodular complex numbers
    eta: float

    def __post_init__(self):
        object.__setattr__(self, "angles", tuple(float(a) for a in self.angles))
        object.__setattr__(self, "targets", tuple(complex(t) for t in self.targets))
        if len(self.angles) != len(self.targets):
            raise ValueError("angles and targets must have equal length")
        if not 0 < self.eta < 2:
            raise ValueError("eta must lie in (0, 2)")


def _phase_fracs(z) -> np.ndarray:
    """Phase of each unimodular z as a fraction of a turn, in [0, 1)."""
    return (np.angle(np.asarray(z, dtype=complex)) / (2 * np.pi)) % 1.0


@dataclass(frozen=True, eq=False)
class ReturnTimeSet:
    """A nonempty set of powers: a read-only ascending int64 array."""

    times: np.ndarray

    def __post_init__(self):
        times = _distinct(self.times)
        if not times.size:
            raise ValueError("return-time set must be nonempty")
        object.__setattr__(self, "times", times)

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

    One scan serves every target: each chunk of powers computes its phase
    fractions once, and every target still unsolved takes the first power
    of the chunk that :func:`_within` keeps for it.
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
        frac = np.outer(angles, p) % 1.0
        for i in unsolved:
            kept = _within(frac, mu_fracs[i], eta)
            if kept.size:
                powers[i] = int(p[kept[0]])
    return powers


def solve_simultaneous(t: TorusTarget, p_max: int) -> int | None:
    """Smallest p in [1, p_max] with |lambda_j**p - mu_j| < eta for all j,
    or None if the finite scan is exhausted (:func:`first_returns` for
    the one target)."""
    return first_returns(t.angles, [t.targets], t.eta, p_max)[0]


@dataclass(frozen=True, eq=False)
class CoveringNet:
    """Product net over the torus with one verified solving power per net
    point.

    Net points are the grid exp(2*pi*i * i/m), i < m, in each coordinate,
    with m chosen so adjacent chord spacing is at most the requested
    resolution.  Any target tuple is within resolution/2 of some net point,
    and that point's power solves the target at tolerance eta.
    """

    angles: tuple
    eta: float
    mesh: int
    cell_to_p: np.ndarray  # flat array of length mesh**k

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
        p = p[_within(np.outer(fixed, p) % 1.0, np.zeros(fixed.size), fixed_eta)]
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
    """Re-evaluate every stored power against its net point independently."""
    k = len(net.angles)
    p = net.cell_to_p
    if k and net.mesh > 1:
        grid = np.array(np.unravel_index(np.arange(p.size), (net.mesh,) * k)).T / net.mesh
        frac = np.outer(p, np.asarray(net.angles)) % 1.0
        if not np.all(chord_to(frac, grid) < net.eta):
            raise AssertionError("covering scan produced an invalid power")
    if not np.all(chord_to(np.outer(p, fixed) % 1.0, 0.0) < fixed_eta):
        raise AssertionError("covering scan violated the fixed-angle filter")


@dataclass(frozen=True)
class SyndeticResult:
    times: tuple  # the set D
    gap_bound: int  # max gap r of D within the horizon
    violations: tuple  # elements of (D'-D') in [1, horizon] missing from D


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
        frac = np.outer(angles, p) % 1.0
        kept = _within(frac, one, eta)
        d_mask[p[kept] - 1] = True
        d_prime.append(p[_within(frac, one, eta / 2, kept)])
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
