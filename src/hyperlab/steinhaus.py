"""Steinhaus variables, random eigenvector series and invariance checks.

A Steinhaus variable is uniform on the unit circle; multiplying it by any
unimodular constant leaves its law unchanged, which is what makes the
induced measure of a random eigenvector series invariant under the
operator.  Seeding uses numpy SeedSequence spawning, so disjoint stream
ids give independent blocks.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .eigenfields import EigenExpansion, _blocks, _unit_phases
from .operators import OperatorSpec, _apply

# _phase_rows draws and hands on a batch about this many elements, rows x
# (k + width), at a time
_BATCH_ELEMENTS = 1 << 16


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


def _phase_rows(rng: np.random.Generator, trials: int, k: int, fn, width: int = 0) -> None:
    """Call fn(start, stop, chi, scratch) over row blocks of a trials x k
    Steinhaus batch, where chi is exactly rows [start, stop) of
    ``sample_steinhaus(rng, trials * k).reshape(trials, k)``, and leave
    ``rng`` where that draw leaves it.  The batch is never held whole.

    ``scratch`` is a complex buffer of (stop - start) * width elements for
    what ``fn`` makes per row.  Each thread reuses one chi and one scratch
    buffer for all its blocks, since fresh ones per block cost more in page
    faults than the work done in them; ``fn`` may overwrite both but must
    not keep them.  A block holds about _BATCH_ELEMENTS elements, rows x
    (k + width), and at least two rows unless trials is 1, because numpy
    hands a one-row operand to a matrix-vector routine that rounds
    differently from the matrix product of a longer block.

    The blocks go through :func:`eigenfields._blocks`, so ``fn`` may call
    only numpy and private functions.  Each thread loads the caller's PCG64
    state into a generator of its own and advances it to the block's first
    draw (``random`` takes one 64-bit output per double); the phases come
    from the same two ufunc calls as in ``_unit_phases``.
    """
    bitgen = rng.bit_generator
    if type(bitgen) is not np.random.PCG64:
        raise TypeError(f"Steinhaus batches need a PCG64 generator, not {type(bitgen).__name__}")
    state = bitgen.state
    rows = max(1, _BATCH_ELEMENTS // max(1, k + width))
    count = max(1, min(-(-trials // rows), trials // 2))
    most = -(-trials // count)  # rows of the longest block
    own = threading.local()

    def block(i, _):
        start, stop = i * trials // count, (i + 1) * trials // count
        if not hasattr(own, "gen"):
            own.gen = np.random.Generator(np.random.PCG64(0))
            own.t = np.empty(most * k)
            own.chi = np.empty(most * k, dtype=complex)
            own.scratch = np.empty(most * width, dtype=complex)
        n = stop - start
        t, chi = own.t[: n * k], own.chi[: n * k]
        own.gen.bit_generator.state = state
        own.gen.bit_generator.advance(start * k)
        own.gen.random(out=t)
        np.multiply(2j * np.pi, t, out=chi)
        np.exp(chi, out=chi)
        fn(start, stop, chi.reshape(n, k), own.scratch[: n * width])

    _blocks(count, 1, block)
    # advance drops the buffered half of a 32-bit draw, which random keeps
    bitgen.advance(trials * k)
    after = bitgen.state
    after["has_uint32"], after["uinteger"] = state["has_uint32"], state["uinteger"]
    bitgen.state = after


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
    sums = np.empty(trials)

    def block(start, stop, chi, scratch):
        sums[start:stop] = np.abs(chi @ coeffs) / l2

    _phase_rows(rng, trials, coeffs.size, block)
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
    k = len(series)
    if k == 0:
        raise ValueError("series must have at least one term")
    coeffs, vt, conj = series.coeffs[None, :], series.terms.vectors.T, np.conj(probes)
    d = vt.shape[1]
    # |<f, Phi>| and |<f, T Phi>| per probe f, over independent batches
    moduli = np.empty((2, len(probes), trials))

    def sample(side):
        def block(start, stop, chi, scratch):
            y = scratch.reshape(stop - start, d)
            np.matmul(np.multiply(chi, coeffs, out=chi), vt, out=y)
            if side:
                y = _apply(op, y)
            # one matrix-vector product per probe: a single (rows, d) @ (d, m)
            # product may round differently, and the gaps reach summary.json
            for f, out in zip(conj, moduli[side]):
                out[start:stop] = np.abs(y @ f)

        _phase_rows(rng, trials, k, block, d)

    sample(0)
    sample(1)
    rows = []
    max_gap = 0.0
    for idx, (fa, fb) in enumerate(zip(*moduli)):
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
