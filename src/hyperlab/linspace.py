"""Complex vectors and their l2 norm for truncated sequence spaces.

Everything downstream works with finite truncations of a complex sequence
space.  Kernels pass plain ``(..., d)`` arrays; a single vector at the API
edge is a :class:`StateVector`, whose entries are immutable after
construction and safe to share between workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class StateVector:
    """Finite-truncation element of a complex sequence space."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=complex)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("entries must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.size


def norm(v: StateVector) -> float:
    """l2 norm of the entries; zero exactly for the zero vector."""
    return float(np.linalg.norm(v.entries))
