"""Operator abstraction and the two concrete testbeds.

Two operators with computable unimodular eigenstructure are provided: the
scaled backward shift w*B with w > 1, and a perturbed unimodular diagonal
D + N where N is a strictly upper-triangular coupling with rapidly decaying
weights eps * 4**-k.
"""

from __future__ import annotations

import numpy as np

from ._kernels import _Frozen

SCALED_BACKWARD_SHIFT = "scaled_backward_shift"
PERTURBED_DIAGONAL = "perturbed_diagonal"


class OperatorSpec(_Frozen):
    """A linear operator with an application rule and a norm bound.

    ``norm_bound`` always dominates the true operator norm on the truncated
    space (it equals w for the scaled backward shift).
    """

    __slots__ = ("kind", "dim", "norm_bound", "weight", "angles", "eps")

    def __init__(
        self,
        kind: str,
        dim: int,
        norm_bound: float,
        weight: float | None = None,
        angles: np.ndarray | None = None,
        eps: float | None = None,
    ):
        self._fill(kind, dim, norm_bound, weight, angles, eps)


def _coupling(op: OperatorSpec) -> np.ndarray:
    """Superdiagonal entries eps * 4**-k of the perturbed diagonal."""
    return op.eps * 4.0 ** (-np.arange(op.dim - 1, dtype=float))


def _diagonal(op: OperatorSpec) -> np.ndarray:
    """Diagonal entries exp(2*pi*i*theta_k) of the perturbed diagonal."""
    return np.exp(2j * np.pi * op.angles)


def make_scaled_backward_shift(w: float, d: int) -> OperatorSpec:
    if not w > 1:
        raise ValueError("shift weight must be > 1")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return OperatorSpec(SCALED_BACKWARD_SHIFT, d, float(w), weight=float(w))


def make_perturbed_diagonal(angles, eps: float, d: int) -> OperatorSpec:
    """Diagonal of unimodular entries exp(2*pi*i*theta_k) plus a weighted
    coupling of entry k+1 into entry k with weight eps * 4**-k."""
    angles = np.array(angles, dtype=float)
    if angles.size != d:
        raise ValueError("need exactly d angles")
    if eps < 0:
        raise ValueError("perturbation size must be >= 0")
    angles.setflags(write=False)
    return OperatorSpec(
        PERTURBED_DIAGONAL, d, 1.0 + float(eps), angles=angles, eps=float(eps)
    )


def apply(op: OperatorSpec, x) -> np.ndarray:
    """T applied along the last axis of a complex array of shape (..., d)."""
    x = np.asarray(x, dtype=complex)
    if x.shape[-1:] != (op.dim,):
        raise ValueError(f"dimension mismatch: operator {op.dim}, array {x.shape}")
    return _apply(op, x)


def _apply(op: OperatorSpec, x: np.ndarray) -> np.ndarray:
    """:func:`apply` on a complex array already checked against op.dim.
    It calls no public function, so a row-block helper thread may run it."""
    if op.kind == SCALED_BACKWARD_SHIFT:
        out = np.zeros_like(x)
        out[..., :-1] = op.weight * x[..., 1:]
    elif op.kind == PERTURBED_DIAGONAL:
        out = _diagonal(op) * x
        out[..., :-1] += _coupling(op) * x[..., 1:]
    else:
        raise ValueError(f"unknown operator kind {op.kind!r}")
    return out

