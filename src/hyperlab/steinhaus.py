"""Steinhaus variables, random eigenvector series and invariance checks.

A Steinhaus variable is uniform on the unit circle; multiplying it by any
unimodular constant leaves its law unchanged, which is what makes the
induced measure of a random eigenvector series invariant under the
operator.  Seeding uses numpy SeedSequence spawning, so disjoint stream
ids give independent blocks.
"""

from __future__ import annotations

import numpy as np

from ._kernels import _Value, _blocks, _unit_phases
from .eigenfields import EigenExpansion
from .operators import OperatorSpec, _apply


class MCReport(_Value):
    __slots__ = ("estimate", "stderr", "trials")

    def __init__(self, estimate: float, stderr: float, trials: int):
        self._fill(estimate, stderr, trials)


def sample_steinhaus(rng: np.random.Generator, n: int) -> np.ndarray:
    """n i.i.d. points uniform on the unit circle."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _unit_phases(rng.random(n))


def _phase_rows(rng: np.random.Generator, trials: int, k: int, fn, width: int = 0) -> None:
    """Call fn(start, stop, chi, scratch) over the row blocks of
    :func:`_kernels._blocks` (k + width elements a row) of a trials x k
    Steinhaus batch, where chi is exactly rows [start, stop) of
    ``sample_steinhaus(rng, trials * k).reshape(trials, k)``, and leave
    ``rng`` where that draw leaves it; ``fn`` may call only numpy and
    private functions.

    ``scratch`` is a complex buffer of (stop - start) * width elements for
    what ``fn`` makes per row.  ``fn`` may overwrite chi and scratch but
    must not keep them: a block takes the buffers of a finished block, since
    fresh ones cost more in page faults than the work done in them.  Each
    block loads the caller's PCG64 state into the generator of its buffer
    set and advances it to its first draw (``random`` takes one 64-bit
    output per double).
    """
    bitgen = rng.bit_generator
    if type(bitgen) is not np.random.PCG64:
        raise TypeError(f"Steinhaus batches need a PCG64 generator, not {type(bitgen).__name__}")
    state = bitgen.state
    spare = []  # buffer sets of finished blocks

    def block(start, stop):
        n = stop - start
        # list.pop and list.append are atomic, so no two blocks share a set;
        # block lengths differ by at most one, so n + 1 rows fit any block
        try:
            bufs = spare.pop()
        except IndexError:
            bufs = (
                np.random.Generator(np.random.PCG64(0)),
                np.empty((n + 1) * k),
                np.empty((n + 1) * k, dtype=complex),
                np.empty((n + 1) * width, dtype=complex),
            )
        gen, t, chi, scratch = bufs
        t, chi = t[: n * k], chi[: n * k]
        gen.bit_generator.state = state
        gen.bit_generator.advance(start * k)
        gen.random(out=t)
        _unit_phases(t, chi)
        fn(start, stop, chi.reshape(n, k), scratch[: n * width])
        spare.append(bufs)

    _blocks(trials, k + width, block)
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
    # the ratio does not depend on scale; the largest |re| or |im| never
    # overflows, as abs can, so the scaled l2 norm lies in [1, sqrt(2k)]
    scale = float(np.max(np.maximum(np.abs(coeffs.real), np.abs(coeffs.imag)), initial=0.0))
    if not scale > 0:
        raise ValueError("need coefficients with a nonzero l2 norm")
    if np.isinf(1.0 / scale):
        # numpy divides by a real scale as coeffs * (1 / scale), which
        # overflows below 2**-1024; a power of two scales them exactly
        coeffs, scale = coeffs * 2.0**64, scale * 2.0**64
    coeffs = coeffs / scale
    l2 = float(np.linalg.norm(coeffs))
    if trials < 1000:
        raise ValueError("need at least 1000 trials")
    sums = np.empty(trials)

    def block(start, stop, chi, scratch):
        sums[start:stop] = np.abs(chi @ coeffs) / l2

    _phase_rows(rng, trials, coeffs.size, block)
    return MCReport(
        estimate=float(np.mean(sums)),
        stderr=float(np.std(sums, ddof=1) / np.sqrt(trials)),
        trials=trials,
    )


class InvarianceReport(_Value):
    """Per-probe moment gaps between Phi and T Phi, with combined Monte
    Carlo standard errors: ``rows`` holds (probe index, moment order, gap,
    stderr) tuples."""

    __slots__ = ("rows", "max_gap")

    def __init__(self, rows: tuple, max_gap: float):
        self._fill(rows, max_gap)

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
            # Phi in the first half of each block's scratch, T Phi in the second
            y, ty = scratch.reshape(2, stop - start, d)
            np.matmul(np.multiply(chi, coeffs, out=chi), vt, out=y)
            if side:
                y = _apply(op, y, ty)
            # one matrix-vector product per probe: a single (rows, d) @ (d, m)
            # product may round differently, and the gaps reach summary.json
            for f, out in zip(conj, moduli[side]):
                out[start:stop] = np.abs(y @ f)

        _phase_rows(rng, trials, k, block, 2 * d)

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
