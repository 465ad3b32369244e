"""Complex vectors, dual functionals and norms for truncated sequence spaces.

Everything downstream works with finite truncations of a complex sequence
space: a vector is a length-d tuple of complex entries together with the
norm exponent of the ambient space.  Values are immutable after
construction and safe to share between workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_DIM = 64


def _frozen_complex_array(entries) -> np.ndarray:
    arr = np.array(entries, dtype=complex)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("entries must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError("entries must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StateVector:
    """Finite-truncation element of a complex sequence space."""

    entries: np.ndarray
    space_p: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "entries", _frozen_complex_array(self.entries))
        if not self.space_p >= 1:
            raise ValueError("norm exponent must be >= 1")

    @property
    def dim(self) -> int:
        return self.entries.size


@dataclass(frozen=True)
class DualFunctional:
    """Functional acting by conjugate-linear pairing against its entries."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _frozen_complex_array(self.entries))

    @property
    def dim(self) -> int:
        return self.entries.size


def zero_vector(d: int, p: float = 2.0) -> StateVector:
    return StateVector(np.zeros(d, dtype=complex), p)


def basis_vector(k: int, d: int, p: float = 2.0) -> StateVector:
    e = np.zeros(d, dtype=complex)
    e[k] = 1.0
    return StateVector(e, p)


def norm(v: StateVector) -> float:
    """l_p norm of the entries; zero exactly for the zero vector."""
    return float(np.linalg.norm(v.entries, ord=v.space_p))


def pair(f: DualFunctional, v: StateVector) -> complex:
    """Pairing sum_k conj(f_k) v_k, linear in the vector argument."""
    if f.dim != v.dim:
        raise ValueError(f"dimension mismatch: functional {f.dim}, vector {v.dim}")
    return complex(np.vdot(f.entries, v.entries))

