"""Unimodular eigenvalue/eigenvector machinery.

Covers the continuous eigenvector field of the scaled backward shift, the
directly computable eigenvectors of the perturbed diagonal, and rationally
independent angle generation from square roots of primes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import _blocks
from .linspace import StateVector
from .operators import OperatorSpec, PERTURBED_DIAGONAL, _coupling, _diagonal, apply


def unimodular(theta: float) -> complex:
    return complex(np.exp(2j * np.pi * theta))


@dataclass(frozen=True, eq=False)
class EigenPair:
    """Angle theta in (0,1] (eigenvalue exp(2*pi*i*theta)) plus a unit
    eigenvector and the truncation residual ||T v - lambda v||."""

    theta: float
    vector: StateVector
    residual: float

    @property
    def eigenvalue(self) -> complex:
        return unimodular(self.theta)


def _frozen(values, dtype, ndim: int) -> np.ndarray:
    """Read-only C-contiguous array of ``values``: a private copy unless
    ``values`` already is such an array."""
    arr = np.asarray(values, dtype=dtype)
    if arr.flags.writeable or not arr.flags.c_contiguous:
        arr = np.array(arr, order="C")
        arr.setflags(write=False)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got shape {arr.shape}")
    return arr


def _has_duplicates(values: np.ndarray) -> bool:
    """Whether two entries of a float array are equal; NaNs equal nothing,
    as in a set of Python floats."""
    ordered = np.sort(values)
    return bool(np.any(ordered[1:] == ordered[:-1]))


@dataclass(frozen=True, eq=False)
class EigenFamily:
    """Eigenpairs stored as arrays: member j has angle thetas[j], unit
    eigenvector vectors[:, j] and truncation residual residuals[j].

    ``vectors`` is d x k and C-contiguous, so every consumer hands BLAS
    the same operands whichever way the family was built.
    """

    thetas: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray

    def __post_init__(self):
        thetas = _frozen(self.thetas, float, 1)
        vectors = _frozen(self.vectors, complex, 2)
        residuals = _frozen(self.residuals, float, 1)
        if not vectors.shape[1] == thetas.size == residuals.size:
            raise ValueError("need one angle, vector column and residual per member")
        if _has_duplicates(thetas):
            raise ValueError("family angles must be pairwise distinct")
        # squares of the real and imaginary parts, summed down each column
        parts = vectors.view(float)
        sq = np.einsum("dk,dk->k", parts, parts)
        sq = sq[0::2] + sq[1::2]
        if not np.all(np.abs(np.sqrt(sq) - 1.0) <= 1e-12):
            raise ValueError("family vectors must be unit vectors")
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "residuals", residuals)

    @classmethod
    def from_pairs(cls, pairs) -> "EigenFamily":
        pairs = list(pairs)
        return cls(
            [p.theta for p in pairs],
            np.column_stack([p.vector.entries for p in pairs]),
            [p.residual for p in pairs],
        )

    def __len__(self) -> int:
        return self.thetas.size

    def pair(self, i: int) -> EigenPair:
        return EigenPair(
            float(self.thetas[i]),
            StateVector(self.vectors[:, i]),
            float(self.residuals[i]),
        )

    def take(self, index) -> "EigenFamily":
        """Sub-family of the members selected by an index list or slice."""
        return EigenFamily(
            self.thetas[index],
            self.vectors[:, index],
            self.residuals[index],
        )


@dataclass(frozen=True, eq=False)
class EigenExpansion:
    """Finite combination sum_j coeffs[j] x_j over the members of a family.

    Powers of the operator act on the eigenvalues only, so orbits of an
    expansion stay bounded whatever the operator norm is.
    """

    coeffs: np.ndarray
    terms: EigenFamily

    def __post_init__(self):
        coeffs = _frozen(self.coeffs, complex, 1)
        if coeffs.size != len(self.terms):
            raise ValueError("need one coefficient per family member")
        object.__setattr__(self, "coeffs", coeffs)

    def __len__(self) -> int:
        return len(self.terms)

    def to_vector(self) -> StateVector:
        if not len(self):
            raise ValueError("empty expansion has no terms")
        return self.power(0)

    def power(self, n: int) -> StateVector:
        """sum_j c_j lambda_j**n x_j, exact in the expansion."""
        phases = np.exp(2j * np.pi * n * self.terms.thetas)
        return StateVector(self.terms.vectors @ (phases * self.coeffs))


def _field_2B(thetas, w: float, d: int):
    """Unit vectors (d x k) and residuals of the truncated eigenvector
    field of w*B at the given angles.

    The untruncated field is E(lambda) = sum (lambda/w)**n e_n; truncating
    at d leaves the exact residual (1/w)**(d-1) before normalization,
    which is divided by the normalizing constant.  The field is built
    d x k, the layout EigenFamily stores, and each column's norm is the
    one numpy gives the row of a k x d copy of its block, so the result
    does not depend on the layout down to the last bit.  Each block of
    columns of :func:`_kernels._blocks` is written in place.
    """
    if not w > 1:
        raise ValueError("shift weight must be > 1")
    base = np.exp(2j * np.pi * np.asarray(thetas, dtype=float))[None, :] / w
    powers = np.arange(d)[:, None]
    vectors = np.empty((d, base.shape[1]), dtype=complex)
    scales = np.empty(base.shape[1])

    def fill(start, stop):
        block = vectors[:, start:stop]
        np.power(base[:, start:stop], powers, out=block)
        scales[start:stop] = np.linalg.norm(block.T.copy(), axis=1)
        block /= scales[start:stop]

    _blocks(base.shape[1], d, fill)
    vectors.setflags(write=False)
    return vectors, (1.0 / w) ** (d - 1) / scales


def eigenvector_2B(theta: float, w: float, d: int) -> EigenPair:
    """Truncated geometric eigenvector of the scaled backward shift, with
    the truncation residual recorded on the pair."""
    vectors, residuals = _field_2B([theta], w, d)
    return EigenPair(theta, StateVector(vectors[:, 0]), float(residuals[0]))


def perturbed_diagonal_eigenvector(op: OperatorSpec, k: int) -> EigenPair:
    """Eigenvector of D + N for the k-th diagonal eigenvalue.

    Solves (T - lambda_k) v = 0 by back-substitution with v_k = 1 and zero
    entries above index k, then normalizes.  The triangular system is
    well conditioned because the coupling weights decay like 4**-j.
    """
    if op.kind != PERTURBED_DIAGONAL:
        raise ValueError("operator must be a perturbed diagonal")
    if not 0 <= k < op.dim:
        raise ValueError("index out of range")
    lam = _diagonal(op)
    gaps = np.abs(lam[:k] - lam[k])
    if gaps.size and gaps.min() < 1e-8:
        raise ValueError(
            f"angle spacing too small near index {k}: min |lambda_k-lambda_j| = {gaps.min():.3g}"
        )
    weights = _coupling(op)
    v = np.zeros(op.dim, dtype=complex)
    v[k] = 1.0
    for j in range(k - 1, -1, -1):
        v[j] = -weights[j] * v[j + 1] / (lam[j] - lam[k])
    v /= np.linalg.norm(v)
    resid = float(np.linalg.norm(apply(op, v) - lam[k] * v))
    return EigenPair(float(op.angles[k]), StateVector(v), resid)


def _primes(k: int) -> np.ndarray:
    """First k primes by a plain sieve."""
    if k < 1:
        raise ValueError("need k >= 1")
    limit = 15 if k < 6 else int(k * (np.log(k) + np.log(np.log(k))) * 1.2) + 10
    while True:
        sieve = np.ones(limit + 1, dtype=bool)
        sieve[:2] = False
        for p in range(2, int(limit**0.5) + 1):
            if sieve[p]:
                sieve[p * p :: p] = False
        found = np.flatnonzero(sieve)
        if found.size >= k:
            return found[:k]
        limit *= 2


def qindependent_angles(k: int) -> np.ndarray:
    """frac(sqrt(p)) for the first k primes, as a float array.

    Square roots of distinct primes are rationally independent, so the
    returned angles are irrational and Q-independent by construction; this
    is never re-tested numerically (it is undecidable from floats).
    """
    return np.sqrt(_primes(k).astype(float)) % 1.0


def _sqrt_prime_family(w: float, d: int, thetas) -> EigenFamily:
    """Eigenvector field of w*B at sqrt-prime angles given in any order;
    a column does not depend on where its angle sits in ``thetas``."""
    vectors, residuals = _field_2B(thetas, w, d)
    return EigenFamily(thetas, vectors, residuals)


def sample_2B_family(w: float, d: int, count: int) -> EigenFamily:
    """Eigenvector field of w*B sampled at the first ``count`` sqrt-prime
    angles."""
    return _sqrt_prime_family(w, d, qindependent_angles(count))


def diagonal_family(op: OperatorSpec) -> EigenFamily:
    pairs = (perturbed_diagonal_eigenvector(op, k) for k in range(op.dim))
    return EigenFamily.from_pairs(pairs)
