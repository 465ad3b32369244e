"""Steinhaus variables, random eigenvector series and invariance checks.

A Steinhaus variable is uniform on the unit circle; multiplying it by any
unimodular constant leaves its law unchanged, which is what makes the
induced measure of a random eigenvector series invariant under the
operator.  Seeding uses numpy SeedSequence spawning, so disjoint stream
ids give independent blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigenfields import EigenExpansion, _unit_phases
from .operators import OperatorSpec, apply


@dataclass(frozen=True)
class MCReport:
    estimate: float
    stderr: float
    trials: int


def sample_steinhaus(rng: np.random.Generator, n: int) -> np.ndarray:
    """n i.i.d. points uniform on the unit circle."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _unit_phases(rng.random(n))


def sample_series_batch(
    series: EigenExpansion, rng: np.random.Generator, trials: int
) -> np.ndarray:
    """trials x d array of independent draws sum_j chi_j a_j x_j of the
    random series over the expansion's terms."""
    k = len(series)
    if k == 0:
        raise ValueError("series must have at least one term")
    chi = sample_steinhaus(rng, trials * k).reshape(trials, k)
    return (chi * series.coeffs[None, :]) @ series.terms.vectors.T


def khinchine_report(coeffs, trials: int, rng: np.random.Generator) -> MCReport:
    """Monte Carlo estimate of E|sum chi_j a_j| / sqrt(sum |a_j|^2).

    The exact one-sided comparison E|sum chi a| <= (sum |a|^2)^(1/2) holds
    with constant 1 (Cauchy-Schwarz plus orthogonality of the phases), so
    the ratio always lies in (0, 1].
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.size == 0:
        raise ValueError("need at least one coefficient")
    if trials < 1000:
        raise ValueError("need at least 1000 trials")
    l2 = float(np.linalg.norm(coeffs))
    chi = sample_steinhaus(rng, trials * coeffs.size).reshape(trials, coeffs.size)
    sums = np.abs(chi @ coeffs) / l2
    return MCReport(
        estimate=float(np.mean(sums)),
        stderr=float(np.std(sums, ddof=1) / np.sqrt(trials)),
        trials=trials,
    )


@dataclass(frozen=True)
class InvarianceReport:
    """Per-probe moment gaps between Phi and T Phi, with combined Monte
    Carlo standard errors."""

    rows: tuple  # of (probe index, moment order, gap, stderr)
    max_gap: float

    def within(self, k_sigma: float) -> bool:
        return all(gap <= k_sigma * se for _, _, gap, se in self.rows)


def invariance_gap(
    op: OperatorSpec,
    series: EigenExpansion,
    trials: int,
    probes,
    rng: np.random.Generator,
) -> InvarianceReport:
    """Compare first and second absolute moments of <f, Phi> and <f, T Phi>
    over independent sample batches, for each probe row f of ``probes``.

    Because the eigenvalues are unimodular and the Steinhaus law is
    rotation invariant, both moments agree exactly in distribution; the
    report quantifies the empirical gap against its Monte Carlo error.
    """
    probes = np.asarray(probes, dtype=complex)
    if probes.ndim != 2 or probes.shape[0] < 1:
        raise ValueError("probes must be a non-empty (m, d) array of rows")
    batch_a = sample_series_batch(series, rng, trials)
    tb = apply(op, sample_series_batch(series, rng, trials))
    rows = []
    max_gap = 0.0
    # one matrix-vector product per probe: a single (trials, d) @ (d, m)
    # product may round differently, and the gaps reach summary.json
    for idx, f in enumerate(probes):
        fa = np.abs(batch_a @ np.conj(f))
        fb = np.abs(tb @ np.conj(f))
        for order in (1, 2):
            xa, xb = fa**order, fb**order
            gap = abs(float(np.mean(xa) - np.mean(xb)))
            se = float(
                np.sqrt(
                    np.var(xa, ddof=1) / trials + np.var(xb, ddof=1) / trials
                )
            )
            rows.append((idx, order, gap, se))
            max_gap = max(max_gap, gap)
    return InvarianceReport(tuple(rows), max_gap)
