"""Binary-tree refinement producing Cantor-set eigenvalue parameters.

Starting from a dense-in-itself eigenpair family, each node of a binary
tree carries an (angle, eigenvector) pair: the left child copies its
parent, the right child is an unused family member whose angle chord and
vector distance both fall strictly below 2**-n at level n.  Each subtree
is confined to its own arc territory, so descendant drift can never erase
the separation created at a split; the geometrically halving jump bounds
make the leaf limits a Cantor-style injective parametrization with
explicit margins.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .diophantine import chord_to
from .eigenfields import EigenFamily, EigenPair, unimodular


class CantorBuildError(RuntimeError):
    pass


@dataclass(frozen=True)
class CantorNode:
    label: str  # binary string, root is ""
    pair: EigenPair
    # gap between this node's two children (set when the node is split)
    child_gap_lambda: float | None = None
    child_gap_vector: float | None = None


@dataclass
class CantorField:
    depth: int
    nodes: dict  # label -> CantorNode
    seed_family: EigenFamily

    def lambda_of(self, label: str) -> complex:
        return unimodular(self.nodes[label].pair.theta)


def build_cantor_field(
    seed: EigenFamily, depth: int, root_index: int = 0
) -> CantorField:
    """Grow the full binary tree of the halving construction to ``depth``.

    Right children are searched among unused seed members inside the
    node's territory arc, aiming at a deterministic target jump (ties by
    smaller angle).  A node with no admissible neighbor fails the build,
    naming the node.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    thetas = seed.thetas
    mat = seed.vectors

    root_pair = seed.pair(root_index)
    theta0 = root_pair.theta
    # signed angle offsets from the root; all construction arithmetic is
    # done on these unwrapped coordinates
    offsets = np.mod(thetas - theta0 + 0.5, 1.0) - 0.5
    available = np.ones(len(seed), dtype=bool)
    available[root_index] = False
    nodes = {"": CantorNode("", root_pair)}
    # label -> (seed index, offset, territory lo, territory hi).  The
    # territory is the arc this node's whole subtree must stay inside;
    # disjoint territories across a split are what make the separation
    # margin delta_p hold for every descendant pair, not just the children.
    meta = {"": (root_index, 0.0, -0.5, 0.5)}
    levels = [[""]]

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
        deltas = sign * (offsets - off_v)
        idx = np.nonzero(available & (deltas > 0) & (deltas <= j_hi))[0]
        chords = chord_to(deltas[idx], 0.0)
        keep = chords < lam_bound
        best = best_candidate(idx[keep], chords[keep], idx_v, lam_bound, vec_bound)
        if best is None:
            return None
        return (
            best,
            float(deltas[best]) * sign,
            float(chord_to(deltas[best], 0.0)),
            float(np.linalg.norm(mat[:, best] - mat[:, idx_v])),
        )

    def find_right_child(idx_v, off_v, lo, hi, lam_bound, vec_bound):
        """Pick a right child inside the node's territory.

        The jump prefers the roomier side, aiming near the halving bound;
        the thinner side serves as a fallback.  Returns (seed index, jump
        offset, chord gap, vector gap) or None.
        """
        room_plus, room_minus = hi - off_v, off_v - lo
        sides = [(1.0, room_plus), (-1.0, room_minus)]
        sides.sort(key=lambda t: -t[1])
        for relaxed in (False, True):
            for sign, room in sides:
                found = pick_on_side(
                    idx_v, off_v, sign, room, lam_bound, vec_bound, relaxed
                )
                if found is not None:
                    return found
        # last resort: nearest unused member under the halving bounds,
        # ignoring the territory; the bound is tiny this deep, so the
        # intrusion into a neighboring arc is equally tiny
        chords = chord_to(offsets, off_v)
        idx = np.nonzero(available & (chords > 0) & (chords < lam_bound))[0]
        best = best_candidate(idx, chords[idx], idx_v, lam_bound, vec_bound)
        if best is None:
            return None
        return (
            best,
            float(offsets[best] - off_v),
            float(chords[best]),
            float(np.linalg.norm(mat[:, best] - mat[:, idx_v])),
        )

    for level in range(1, depth + 1):
        new_labels = []
        for label in levels[level - 1]:
            node = nodes[label]
            idx_v, off_v, lo, hi = meta[label]
            # level-n jumps must stay under 2**-n in both the eigenvalue
            # and the vector; the schedule is absolute, so one short jump
            # never starves its whole subtree
            lam_bound = 2.0**-level
            vec_bound = 2.0**-level
            found = find_right_child(idx_v, off_v, lo, hi, lam_bound, vec_bound)
            if found is None:
                raise CantorBuildError(
                    f"no admissible right child for node {label!r} at level {level} "
                    f"(need chord < {lam_bound:.3g}, vector distance < {vec_bound:.3g})"
                )
            best_idx, jump, gap_lambda, gap_vector = found
            right_pair = seed.pair(best_idx)
            available[best_idx] = False
            off_r = off_v + jump
            # split the territory: buffers on the contested side sum to
            # under half the jump, keeping cross-split leaf sets disjoint
            # with a gap; the jumping child gets the larger share because
            # its left-descendants stay at its anchor and spread back inward
            buf_left = 0.20 * abs(jump)
            buf_right = 0.29 * abs(jump)
            if jump > 0:
                meta[label + "0"] = (idx_v, off_v, lo, off_v + buf_left)
                meta[label + "1"] = (best_idx, off_r, off_r - buf_right, hi)
            else:
                meta[label + "0"] = (idx_v, off_v, off_v - buf_left, hi)
                meta[label + "1"] = (best_idx, off_r, lo, off_r + buf_right)
            nodes[label] = CantorNode(label, node.pair, gap_lambda, gap_vector)
            nodes[label + "0"] = CantorNode(label + "0", node.pair)
            nodes[label + "1"] = CantorNode(label + "1", right_pair)
            new_labels.extend([label + "0", label + "1"])
        levels.append(new_labels)

    field = CantorField(depth, nodes, seed)
    _check_field_invariants(field)
    return field


def _check_field_invariants(field: CantorField) -> None:
    for label, node in field.nodes.items():
        n = len(label)
        if n == 0:
            continue
        parent = field.nodes[label[:-1]]
        jump_l = abs(field.lambda_of(label) - field.lambda_of(label[:-1]))
        jump_u = float(
            np.linalg.norm(node.pair.vector.entries - parent.pair.vector.entries)
        )
        if label[-1] == "0":
            if node.pair.theta != parent.pair.theta:
                raise CantorBuildError(f"left child {label!r} must copy its parent")
        if not (jump_l < 2.0**-n and jump_u < 2.0**-n):
            raise CantorBuildError(f"level-{n} jump bound violated at {label!r}")
    for n in range(field.depth + 1):
        level_thetas = [
            node.pair.theta
            for label, node in field.nodes.items()
            if len(label) == n
        ]
        if len(set(level_thetas)) != len(level_thetas):
            raise CantorBuildError(f"duplicate angles at level {n}")


def cantor_lookup(field: CantorField, s) -> tuple:
    """(angle, vector) at the node addressed by binary string s; full-depth
    strings approximate the limit objects within 2**-depth."""
    label = "".join(str(int(b)) for b in s)
    if len(label) > field.depth:
        raise ValueError(f"string longer than field depth {field.depth}")
    if label not in field.nodes:
        raise ValueError(f"unknown node {label!r}")
    node = field.nodes[label]
    return node.pair.theta, node.pair.vector


@dataclass(frozen=True)
class SeparationReport:
    passed: bool
    min_margin: float
    node_margins: tuple  # (label, margin, delta, worst separation)
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
    rows = []
    min_margin = float("inf")
    passed = True
    respected = 0
    leaves = {
        label: field.lambda_of(label)
        for label in field.nodes
        if len(label) == field.depth
    }
    splits = [label for label in field.nodes if len(label) < field.depth]
    for label in splits:
        delta = abs(field.lambda_of(label + "0") - field.lambda_of(label + "1")) / 2.0
        left = np.array(
            [lam for leaf, lam in leaves.items() if leaf.startswith(label + "0")]
        )
        right = np.array(
            [lam for leaf, lam in leaves.items() if leaf.startswith(label + "1")]
        )
        sep = float(np.abs(left[:, None] - right[None, :]).min())
        margin = sep / 2.0
        passed = passed and margin > 0
        respected += sep >= delta > 0
        min_margin = min(min_margin, margin)
        rows.append((label, margin, delta, sep))
    frac = respected / len(splits) if splits else 1.0
    return SeparationReport(passed, min_margin, tuple(rows), frac)


def field_to_csv(field: CantorField, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "theta", "residual"])
        for label in sorted(field.nodes, key=lambda s: (len(s), s)):
            node = field.nodes[label]
            writer.writerow([label, repr(node.pair.theta), repr(node.pair.residual)])

