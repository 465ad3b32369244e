"""Binary-tree refinement producing Cantor-set eigenvalue parameters.

Starting from a dense-in-itself eigenpair family, each node of a binary
tree carries an (angle, eigenvector) pair: the left child copies its
parent, the right child is an unused family member whose angle chord and
vector distance both fall strictly below 2**-n at level n.  Each subtree
is confined to its own arc territory, so descendant drift can never erase
the separation created at a split; the geometrically halving jump bounds
make the leaf limits a Cantor-style injective parametrization with
explicit margins.

The tree is stored in breadth-first label order: node j has children
2j+1 (label + "0") and 2j+2 (label + "1"), level n is the slice
[2**n - 1, 2**(n+1) - 1), and the leaves are the last 2**depth nodes, so
the leaves of every subtree form one contiguous slice.  In binary, j + 1
is "1" followed by node j's label.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .diophantine import chord_to
from .eigenfields import EigenFamily


class CantorBuildError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class CantorField:
    """A full binary tree of the given depth over ``seed_family``:
    ``nodes[j]`` is the seed index of breadth-first node j's eigenpair."""

    depth: int
    seed_family: EigenFamily
    nodes: np.ndarray


def _label(j: int) -> str:
    return format(j + 1, "b")[1:]


def build_cantor_field(seed: EigenFamily, depth: int) -> CantorField:
    """Grow the full binary tree of the halving construction to ``depth``.

    The root is seed member 0.  Right children are searched among unused
    seed members inside the node's territory arc, aiming at a
    deterministic target jump (ties by smaller angle).  A node with no
    admissible neighbor fails the build, naming the node.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    thetas = seed.thetas
    mat = seed.vectors

    # signed angle offsets from the root; all construction arithmetic is
    # done on these unwrapped coordinates
    offsets = np.mod(thetas - thetas[0] + 0.5, 1.0) - 0.5
    # seed indices by offset: the members a jump of at most j reaches on
    # one side of a node are one contiguous run of this order
    by_offset = np.argsort(offsets, kind="stable")
    sorted_offsets = offsets[by_offset]
    available = np.ones(len(seed), dtype=bool)
    available[0] = False
    size = 2 ** (depth + 1) - 1
    nodes = np.zeros(size, dtype=np.intp)
    # per node: its offset and the territory [lo, hi], the arc its whole
    # subtree must stay inside; disjoint territories across a split are
    # what make the separation margin delta_p hold for every descendant
    # pair, not just the children
    off = np.zeros(size)
    lo = np.full(size, -0.5)
    hi = np.full(size, 0.5)

    def best_candidate(idx, chords, idx_v, lam_bound, vec_bound):
        """Seed index among the candidates ``idx`` (chord gaps ``chords``)
        that stay under the vector bound; None if none does."""
        vec_dists = np.linalg.norm(mat[:, idx] - mat[:, idx_v][:, None], axis=0)
        keep = vec_dists < vec_bound
        idx, chords, vec_dists = idx[keep], chords[keep], vec_dists[keep]
        if idx.size == 0:
            return None
        # both gaps become the children's budgets, so take the candidate
        # whose thinner budget is largest; ties by smaller angle
        score = -np.minimum(chords / lam_bound, vec_dists / vec_bound)
        return int(idx[np.lexsort((thetas[idx], score))[0]])

    def pick_on_side(idx_v, off_v, sign, room, lam_bound, vec_bound, relaxed):
        bound_theta = float(np.arcsin(min(lam_bound, 2.0) / 2.0) / np.pi)
        if relaxed:
            # ignore the room: any jump under the halving bound counts,
            # even if it leaves this node's territory
            j_hi = 0.98 * bound_theta
        else:
            # stay inside the territory with a safety factor
            j_hi = min(0.98 * bound_theta, 0.95 * room)
        if j_hi <= 0:
            return None
        # a rounded gap 0 < sign * (offset - off_v) <= j_hi puts the offset
        # strictly inside off_v + sign * (0, 2 j_hi); the exact test on
        # that window keeps the same members a scan of all seeds would
        ends = sorted((off_v, off_v + 2.0 * sign * j_hi))
        start = np.searchsorted(sorted_offsets, ends[0], side="left")
        stop = np.searchsorted(sorted_offsets, ends[1], side="right")
        window = np.sort(by_offset[start:stop])
        deltas = sign * (offsets[window] - off_v)
        keep = available[window] & (deltas > 0) & (deltas <= j_hi)
        idx, chords = window[keep], chord_to(deltas[keep], 0.0)
        keep = chords < lam_bound
        return best_candidate(idx[keep], chords[keep], idx_v, lam_bound, vec_bound)

    def find_right_child(idx_v, off_v, lo_v, hi_v, lam_bound, vec_bound):
        """Pick a right child inside the node's territory.

        The jump prefers the roomier side, aiming near the halving bound;
        the thinner side serves as a fallback.  Returns the seed index or
        None.
        """
        room_plus, room_minus = hi_v - off_v, off_v - lo_v
        sides = [(1.0, room_plus), (-1.0, room_minus)]
        sides.sort(key=lambda t: -t[1])
        for relaxed in (False, True):
            for sign, room in sides:
                best = pick_on_side(
                    idx_v, off_v, sign, room, lam_bound, vec_bound, relaxed
                )
                if best is not None:
                    return best
        # last resort: nearest unused member under the halving bounds,
        # ignoring the territory; the bound is tiny this deep, so the
        # intrusion into a neighboring arc is equally tiny
        chords = chord_to(offsets, off_v)
        idx = np.nonzero(available & (chords > 0) & (chords < lam_bound))[0]
        return best_candidate(idx, chords[idx], idx_v, lam_bound, vec_bound)

    for j in range(2**depth - 1):
        level = (j + 1).bit_length()  # level of node j's children
        idx_v, off_v = int(nodes[j]), float(off[j])
        # level-n jumps must stay under 2**-n in both the eigenvalue
        # and the vector; the schedule is absolute, so one short jump
        # never starves its whole subtree
        bound = 2.0**-level
        best = find_right_child(
            idx_v, off_v, float(lo[j]), float(hi[j]), bound, bound
        )
        if best is None:
            raise CantorBuildError(
                f"no admissible right child for node {_label(j)!r} at level {level} "
                f"(need chord < {bound:.3g}, vector distance < {bound:.3g})"
            )
        jump = float(offsets[best] - off_v)
        available[best] = False
        left, right = 2 * j + 1, 2 * j + 2
        nodes[left], nodes[right] = idx_v, best
        off[left], off[right] = off_v, off_v + jump
        lo[left] = lo[right] = lo[j]
        hi[left] = hi[right] = hi[j]
        # split the territory: buffers on the contested side sum to
        # under half the jump, keeping cross-split leaf sets disjoint
        # with a gap; the jumping child gets the larger share because
        # its left-descendants stay at its anchor and spread back inward
        buf_left = 0.20 * abs(jump)
        buf_right = 0.29 * abs(jump)
        if jump > 0:
            hi[left] = off_v + buf_left
            lo[right] = off[right] - buf_right
        else:
            lo[left] = off_v - buf_left
            hi[right] = off[right] + buf_right

    nodes.setflags(write=False)
    field = CantorField(depth, seed, nodes)
    _check_field_invariants(field)
    return field


def _check_field_invariants(field: CantorField) -> None:
    nodes = field.nodes
    bad = np.flatnonzero(nodes[1::2] != nodes[: nodes.size // 2])
    if bad.size:
        label = _label(2 * int(bad[0]) + 1)
        raise CantorBuildError(f"left child {label!r} must copy its parent")
    # node j > 0 has parent (j - 1) // 2 and sits at level floor(log2(j + 1))
    parent = np.arange(nodes.size - 1) // 2
    level = np.repeat(np.arange(1, field.depth + 1), 2 ** np.arange(1, field.depth + 1))
    thetas = field.seed_family.thetas[nodes]
    lam = np.exp(2j * np.pi * thetas)
    vectors = field.seed_family.vectors[:, nodes]
    jump_l = np.abs(lam[1:] - lam[parent])
    jump_u = np.linalg.norm(vectors[:, 1:] - vectors[:, parent], axis=0)
    bad = np.flatnonzero(~((jump_l < 2.0**-level) & (jump_u < 2.0**-level)))
    if bad.size:
        k = int(bad[0])
        raise CantorBuildError(
            f"level-{level[k]} jump bound violated at {_label(k + 1)!r}"
        )
    for n in range(field.depth + 1):
        level_thetas = thetas[2**n - 1 : 2 ** (n + 1) - 1]
        if np.unique(level_thetas).size != level_thetas.size:
            raise CantorBuildError(f"duplicate angles at level {n}")


def cantor_lookup(field: CantorField, s) -> tuple:
    """(angle, vector) at the node addressed by binary string s; full-depth
    strings approximate the limit objects within 2**-depth."""
    label = "".join(str(int(b)) for b in s)
    if len(label) > field.depth:
        raise ValueError(f"string longer than field depth {field.depth}")
    if set(label) - {"0", "1"}:
        raise ValueError(f"unknown node {label!r}")
    pair = field.seed_family.pair(int(field.nodes[int("1" + label, 2) - 1]))
    return pair.theta, pair.vector


@dataclass(frozen=True)
class SeparationReport:
    """Per-split results in breadth-first order of the splitting nodes:
    ``margins[j]`` is half the smallest distance between leaf eigenvalues
    below node j's two children, ``deltas[j]`` half the children's gap."""

    passed: bool
    min_margin: float
    margins: np.ndarray
    deltas: np.ndarray
    delta_respected_fraction: float


def verify_cantor_separation(field: CantorField) -> SeparationReport:
    """Exhaustive injectivity check across every branching node.

    At each branching node the margin is half the smallest distance
    between leaf eigenvalues descending from the 0 side and from the 1
    side; a positive margin at every node certifies that the leaf
    addressing map is injective.  The report also records how many nodes
    meet the stronger lower bound delta = half the child gap, which a
    finite seed family can only sustain near the top of the tree.
    """
    lam = np.exp(2j * np.pi * field.seed_family.thetas[field.nodes])
    leaves = lam[2**field.depth - 1 :]
    seps = []
    for n in range(field.depth):
        # row p holds the leaves below the level-n node p, split in halves
        halves = leaves.reshape(2**n, 2, -1)
        cross = np.abs(halves[:, 0, :, None] - halves[:, 1, None, :])
        seps.append(cross.min(axis=(1, 2)))
    seps = np.concatenate(seps) if seps else np.zeros(0)
    deltas = np.abs(lam[1::2] - lam[2::2]) / 2.0
    margins = seps / 2.0
    respected = np.count_nonzero((seps >= deltas) & (deltas > 0))
    return SeparationReport(
        passed=bool(np.all(margins > 0)),
        min_margin=float(margins.min()) if margins.size else float("inf"),
        margins=margins,
        deltas=deltas,
        delta_respected_fraction=respected / margins.size if margins.size else 1.0,
    )


def field_to_csv(field: CantorField, path) -> None:
    family = field.seed_family
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "theta", "residual"])
        for j, i in enumerate(field.nodes.tolist()):
            theta, residual = float(family.thetas[i]), float(family.residuals[i])
            writer.writerow([_label(j), repr(theta), repr(residual)])
