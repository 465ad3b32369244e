"""Complex vectors and their l2 norm for truncated sequence spaces.

Everything downstream works with finite truncations of a complex sequence
space.  Kernels pass plain ``(..., d)`` arrays; a single vector at the API
edge is a :class:`StateVector`, whose entries are immutable after
construction and safe to share between workers.
"""

from __future__ import annotations

import numpy as np

from ._kernels import _Frozen


class StateVector(_Frozen):
    """Finite-truncation element of a complex sequence space."""

    __slots__ = ("entries",)

    def __post_init__(self):
        arr = np.array(self.entries, dtype=complex)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("entries must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("entries must be finite")
        arr.setflags(write=False)
        self._fill(arr)

    @property
    def dim(self) -> int:
        return self.entries.size


def norm(v: StateVector) -> float:
    """l2 norm of the entries; zero exactly for the zero vector."""
    return float(np.linalg.norm(v.entries))
