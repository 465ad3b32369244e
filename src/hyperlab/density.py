"""Visit-time recording and finite-horizon lower-density estimation.

Inputs are eigen-expansions, so every orbit power acts on unimodular
eigenvalues and stays bounded no matter how large the operator norm is.
The lower-density proxy is the minimum visit frequency over a ladder of
window cut points; the true liminf is not finitely computable.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .eigenfields import EigenExpansion
from .linspace import StateVector

_CHUNK = 1 << 15


def worker_cap() -> int:
    """Worker count, capped by the HYPERLAB_THREADS environment variable."""
    cap = os.environ.get("HYPERLAB_THREADS")
    if cap is None:
        return os.cpu_count() or 1
    return max(1, int(cap))


@dataclass(frozen=True)
class TargetBall:
    center: StateVector
    radius: float

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("radius must be >= 0")


@dataclass(frozen=True)
class VisitRecord:
    times: tuple  # sorted, unique, in [0, horizon)
    horizon: int
    target: TargetBall

    def __post_init__(self):
        times = tuple(sorted(set(int(t) for t in self.times)))
        object.__setattr__(self, "times", times)
        if times and not (0 <= times[0] and times[-1] < self.horizon):
            raise ValueError("visit times must lie in [0, horizon)")


def _ball_dist_sq(w, gram, h, c_sq: float) -> np.ndarray:
    """||X w - c||**2 for every row w of the coefficient array, from the
    Gram matrix gram = X* X, h = X* c and c_sq = ||c||**2 of the term
    matrix X and the center c."""
    quad = np.einsum("ni,ij,nj->n", w.conj(), gram, w).real
    cross = 2.0 * (w @ h.conj()).real
    return quad - cross + c_sq


def visit_times(x: EigenExpansion, target: TargetBall, N: int) -> VisitRecord:
    """All n < N with ||T**n x - center|| < radius.

    Distances are evaluated through the Gram matrix of the expansion, so
    the cost per step is quadratic in the number of terms, not in the
    ambient dimension.
    """
    if N < 1:
        raise ValueError("horizon must be >= 1")
    if not len(x):
        dist = float(np.linalg.norm(target.center.entries))
        times = tuple(range(N)) if dist < target.radius else ()
        return VisitRecord(times, N, target)
    mat = x.terms.vectors
    gram = mat.conj().T @ mat
    h = mat.conj().T @ target.center.entries
    c_sq = float(np.real(np.vdot(target.center.entries, target.center.entries)))
    r_sq = target.radius**2
    hits = []
    for start in range(0, N, _CHUNK):
        ns = np.arange(start, min(start + _CHUNK, N))
        w = np.exp(2j * np.pi * np.outer(ns, x.terms.thetas)) * x.coeffs[None, :]
        hits.append(ns[_ball_dist_sq(w, gram, h, c_sq) < r_sq])
    return VisitRecord(tuple(np.concatenate(hits).tolist()), N, target)


def recheck_visit(x: EigenExpansion, target: TargetBall, n: int) -> bool:
    """Direct recomputation of a single membership, independent of the
    Gram-matrix fast path."""
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
    times = np.asarray(rec.times)
    return min(float(np.sum(times < w)) / w for w in windows)


@dataclass(frozen=True)
class FhcReport:
    records: tuple
    proxies: tuple
    passed: bool


def fhc_harness(x: EigenExpansion, targets, N: int, windows=None) -> FhcReport:
    """Per-target visit records and density proxies; PASS iff every proxy
    is strictly positive. Targets are scanned in parallel, capped by
    HYPERLAB_THREADS."""
    targets = list(targets)
    if windows is None:
        windows = default_windows(N)
    with ThreadPoolExecutor(max_workers=min(worker_cap(), max(len(targets), 1))) as pool:
        records = list(pool.map(lambda t: visit_times(x, t, N), targets))
    proxies = tuple(lower_density_estimate(r, windows) for r in records)
    return FhcReport(tuple(records), proxies, all(p > 0 for p in proxies))
