"""Visit-time recording and finite-horizon lower-density estimation.

Inputs are eigen-expansions, so every orbit power acts on unimodular
eigenvalues and stays bounded no matter how large the operator norm is.
Whether an orbit point lies in a target ball is decided in one place, the
ball test :func:`_kernels._inside`: the visit scan here, the
construction's visit certificate and its norm estimate all call it, and
:func:`recheck_visit` is the direct reference.
The scan and the certificate cut their work by :func:`_kernels._blocks`,
and the scan keeps a block's hits as one byte per power and target until
it joins them into visit times.
The lower-density proxy is the minimum visit frequency over a ladder of
window cut points; the true liminf is not finitely computable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import _ball, _blocks, _distinct, _factor, _inside, _unit_phases
from .eigenfields import EigenExpansion
from .linspace import StateVector

# powers per row of anchors in the visit scan's phase table; every scan
# block is a multiple of it
_STEP = 1 << 10


@dataclass(frozen=True, eq=False)
class TargetBall:
    center: StateVector
    radius: float

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("radius must be >= 0")


@dataclass(frozen=True, eq=False)
class VisitRecord:
    times: np.ndarray  # read-only int64, sorted, unique, in [0, horizon)
    horizon: int
    target: TargetBall

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.int64)
        if times.ndim != 1:
            raise ValueError("visit times must be one-dimensional")
        if times.flags.writeable or np.any(times[1:] <= times[:-1]):
            times = _distinct(times)
        object.__setattr__(self, "times", times)
        if times.size and not (0 <= times[0] and times[-1] < self.horizon):
            raise ValueError("visit times must lie in [0, horizon)")


def _scan(x: EigenExpansion, targets: list, N: int) -> list:
    """One VisitRecord per target: all n < N with
    ||T**n x - center|| < radius.

    Membership is decided by :func:`_kernels._inside`, so a step's
    quadratic term costs k * min(k, d) multiplies for k terms in C^d, as
    one BLAS product with the norm factor of :func:`_kernels._factor`
    (0 x 0 for no terms, whose orbit stays at the origin).  The coefficient
    rows and the quadratic term of a block of powers are shared by all
    targets; each target adds only its cross term.  :func:`_kernels._blocks`
    cuts the horizon into groups of _STEP powers, k * _STEP terms each, so
    a block's temporaries do not grow with k: 10 groups at k = 3, and one
    from k = 32 on.  The rows come from :func:`_coefficient_rows`: one
    table of the phases of the first _STEP powers, made once per scan,
    times one anchor row per _STEP powers.  Each block stores its masks,
    one byte per power and target, under its first group, and they are
    joined in order.
    """
    if N < 1:
        raise ValueError("horizon must be >= 1")
    mat = x.terms.vectors
    f = _factor(mat)
    balls = [_ball(mat, t.center.entries, t.radius**2) for t in targets]
    table = _unit_phases(np.outer(np.arange(min(_STEP, N)), x.terms.thetas))
    # the last group takes a lone last power, which would be a one-row block
    masks, groups = {}, max(1, -(-(N - 1) // _STEP))

    def scan(start, stop):
        w = _coefficient_rows(x, table, start * _STEP, N if stop == groups else stop * _STEP)
        masks[start] = _inside(w, f, balls)

    _blocks(groups, _STEP * len(x), scan, _STEP)
    records = []
    for i, t in enumerate(targets):
        times = np.flatnonzero(np.concatenate([masks[start][i] for start in sorted(masks)]))
        # read-only, so VisitRecord keeps it without a defensive copy
        times.flags.writeable = False
        records.append(VisitRecord(times, N, t))
    return records


def _coefficient_rows(x: EigenExpansion, table, start: int, stop: int) -> np.ndarray:
    """The eigen-coefficients exp(2*pi*i*n*theta) * c of T**n x for
    start <= n < stop, start a multiple of _STEP, as one C-contiguous row
    per n: the anchor row exp(2*pi*i*a*theta) * c of each multiple a of
    _STEP times the row of n - a of ``table``, the phases of the powers
    0, 1, ... below _STEP.  Each entry is one product of two ``exp``
    values, so no error accumulates along the orbit, and as the anchors
    sit at absolute multiples of _STEP the bits do not depend on how the
    horizon is cut into blocks.  A last anchor with fewer than _STEP
    powers multiplies only the rows of ``table`` it keeps, so a block
    makes no more than its own rows."""
    anchors = _unit_phases(np.outer(np.arange(start, stop, _STEP), x.terms.thetas)) * x.coeffs
    whole, k = (stop - start) // _STEP, anchors.shape[1]
    w = np.empty((stop - start, k), dtype=complex)
    whole_rows = w[: whole * _STEP].reshape(whole, len(table), k)
    np.multiply(anchors[:whole, None, :], table, out=whole_rows)
    np.multiply(anchors[whole:], table[: stop - start - whole * _STEP], out=w[whole * _STEP :])
    return w


def visit_times(x: EigenExpansion, target: TargetBall, N: int) -> VisitRecord:
    """All n < N with ||T**n x - center|| < radius."""
    return _scan(x, [target], N)[0]


def recheck_visit(x: EigenExpansion, target: TargetBall, n: int) -> bool:
    """Direct recomputation of a single membership in C^d, from x.power(n):
    the reference for the norm-factor route of :func:`_kernels._inside`."""
    moved = x.power(n).entries - target.center.entries
    return float(np.linalg.norm(moved)) < target.radius


def default_windows(N: int) -> list:
    """Geometric window ladder 10**3, 10**4, ... capped at N."""
    windows = []
    w = 10**3
    while w < N:
        windows.append(w)
        w *= 10
    windows.append(N)
    return windows


def lower_density_estimate(rec: VisitRecord, windows) -> float:
    """min over windows W of |times in [0, W)| / W."""
    windows = list(windows)
    if not windows:
        raise ValueError("need at least one window")
    if sorted(windows) != windows or windows[-1] > rec.horizon:
        raise ValueError("windows must be ascending and at most the horizon")
    counts = np.searchsorted(rec.times, windows).tolist()
    return min(float(c) / w for c, w in zip(counts, windows))


@dataclass(frozen=True, eq=False)
class FhcReport:
    records: tuple
    proxies: tuple
    passed: bool


def fhc_harness(x: EigenExpansion, targets, N: int) -> FhcReport:
    """Per-target visit records and density proxies over the windows of
    :func:`default_windows`; PASS iff every proxy is strictly positive.
    All targets share one scan of the orbit."""
    windows = default_windows(N)
    records = _scan(x, list(targets), N)
    proxies = tuple(lower_density_estimate(r, windows) for r in records)
    return FhcReport(tuple(records), proxies, all(p > 0 for p in proxies))
