"""Non-ergodicity diagnostic: closed-form correlations and Cesaro averages.

For a random series over unimodular eigenvectors, the time correlation of
squared probe moduli splits into a constant (product term minus a diagonal
overlap term) plus the squared modulus of a cross term
sum_p lambda_p**n c_p conj(d_p).  Ergodicity would force the Cesaro
average of the cross term to vanish; its strictly positive stabilized
value is the witness.
"""

from __future__ import annotations

import numpy as np

from ._kernels import _Frozen, _Value, _blocks, _cuts, _unit_phases
from .eigenfields import EigenExpansion
from .steinhaus import MCReport, _phase_rows


class CorrelationSpec(_Value):
    """c_p = <x*, x_p> and d_p = <y*, x_p> for the eigenvector x_p of
    angle theta_p = angles[p]."""

    __slots__ = ("c", "d", "angles")

    def __post_init__(self):
        self._fill(
            tuple(complex(z) for z in self.c),
            tuple(complex(z) for z in self.d),
            tuple(float(a) for a in self.angles),
        )
        if not len(self.c) == len(self.d) == len(self.angles):
            raise ValueError("c, d and angles must have equal lengths")

    def product_term(self) -> float:
        return float(
            np.sum(np.abs(self.c) ** 2) * np.sum(np.abs(self.d) ** 2)
        )

    def diagonal_term(self) -> float:
        """sum_p |c_p|**2 |d_p|**2, the all-equal-index fourth moment."""
        return float(np.sum((np.abs(self.c) * np.abs(self.d)) ** 2))

    def correlation(self, ns) -> np.ndarray:
        """product - diagonal + cross term: the exact correlation at each n
        (see correlation_closed_form)."""
        return self.product_term() - self.diagonal_term() + self.cross_terms(ns)

    def cross_terms(self, ns) -> np.ndarray:
        """|sum_p lambda_p**n c_p conj(d_p)|**2 for each n, a block of rows
        (one phase per angle) of :func:`_kernels._blocks` at a time."""
        ns = np.ravel(ns)
        weights = np.asarray(self.c) * np.conj(self.d)
        cross = np.empty(ns.size)

        def fill(start, stop):
            phases = _unit_phases(np.outer(ns[start:stop], self.angles))
            cross[start:stop] = np.abs(phases @ weights) ** 2

        _blocks(ns.size, len(self.angles), fill)
        return cross

    @classmethod
    def from_probes(cls, series: EigenExpansion, xstar, ystar):
        """Spec of the probe rows x* and y*, paired conjugate-linearly."""
        vectors = series.terms.vectors
        c = series.coeffs * (np.conj(xstar) @ vectors)
        d = series.coeffs * (np.conj(ystar) @ vectors)
        return cls(c, d, series.terms.thetas)


def correlation_closed_form(spec: CorrelationSpec, n: int) -> float:
    """Exact fourth-moment value of E(|<x*, T**n Phi>|**2 |<y*, Phi>|**2).

    For independent uniform unimodular phases the only nonzero index
    quadruples are the two pairings, which overlap exactly on the
    all-equal case (where E|chi|**4 = 1, not 2); hence the value is
    product + cross - diagonal.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return float(spec.correlation([n])[0])


def cesaro_average(values, N: int) -> float:
    """(1/N) * sum_{n=0}^{N-1} value(n); ``values`` is a callable on numpy
    index arrays or an indexable sequence."""
    if N < 1:
        raise ValueError("N must be >= 1")
    ns = np.arange(N)
    if callable(values):
        vals = np.asarray(values(ns), dtype=float)
    else:
        vals = np.asarray([values[n] for n in ns], dtype=float)
    return float(np.mean(vals))


class WitnessReport(_Frozen):
    """Cesaro averages over n < N of the correlation (``cesaro``) and of
    the squared cross term (``witness``), with the correlation at each
    n < N."""

    __slots__ = ("cesaro", "witness", "correlation")


def witness_report(spec: CorrelationSpec, N: int) -> WitnessReport:
    """The non-ergodicity witness and the correlation's Cesaro average
    from one evaluation of the cross term over n < N."""
    if N < 10**3:
        raise ValueError("N must be at least 10**3")
    cross = spec.cross_terms(np.arange(N))
    witness = float(np.mean(cross))
    # the correlation overwrites the cross term: x + (p - d) is (p - d) + x
    correlation = np.add(cross, spec.product_term() - spec.diagonal_term(), out=cross)
    return WitnessReport(float(np.mean(correlation)), witness, correlation)


def nonergodicity_witness(spec: CorrelationSpec, N: int) -> float:
    """Cesaro average of the squared cross term over n < N."""
    return witness_report(spec, N).witness


def correlation_monte_carlo(
    series: EigenExpansion,
    xstar,
    ystar,
    n: int,
    trials: int,
    rng: np.random.Generator,
) -> MCReport:
    """MC estimate of E(|<x*, T**n Phi>|**2 |<y*, Phi>|**2) for the series;
    agrees with the closed form within Monte Carlo error."""
    coeffs = series.coeffs
    k = len(series)
    c = np.conj(xstar) @ series.terms.vectors
    d = np.conj(ystar) @ series.terms.vectors
    lam_n = np.exp(2j * np.pi * n * series.terms.thetas)
    u, v = lam_n * coeffs * c, coeffs * d
    vals = np.empty(trials)

    def block(start, stop, chi, scratch):
        vals[start:stop] = np.abs(chi @ u) ** 2 * np.abs(chi @ v) ** 2

    _phase_rows(rng, trials, k, block)
    return MCReport(
        estimate=float(np.mean(vals)),
        stderr=float(np.std(vals, ddof=1) / np.sqrt(trials)),
        trials=trials,
    )


# the characters of a correlation.csv row at most: an index, two float
# reprs of up to 24 characters each and the separators
_ROW_CHARS = 64


def correlation_csv(correlation, path) -> None:
    """(n, correlation, running Cesaro average) rows for plotting, one per
    entry of ``correlation``, in the csv module's excel dialect, written a
    block of rows of :func:`_kernels._cuts` at a time, each row counted as
    _ROW_CHARS elements."""
    vals = np.asarray(correlation, dtype=float)
    running = np.cumsum(vals) / np.arange(1, vals.size + 1)
    with open(path, "w", newline="") as fh:
        fh.write("n,correlation,running_cesaro\r\n")
        for start, stop in _cuts(vals.size, _ROW_CHARS):
            rows = zip(range(start, stop), vals[start:stop].tolist(), running[start:stop].tolist())
            fh.write("".join(f"{n},{v!r},{r!r}\r\n" for n, v, r in rows))
