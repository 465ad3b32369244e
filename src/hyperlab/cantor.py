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
is "1" followed by node j's label.  The build grows the tree a level at
a time, one batched right-child search per level.
"""

from __future__ import annotations

import numpy as np

from ._kernels import _Frozen, _distances, _gap_distances, chord_to
from .eigenfields import EigenFamily, _has_duplicates, _sqrt_prime_family


class CantorBuildError(ValueError):
    pass


class CantorField(_Frozen):
    """A full binary tree of the given depth over ``seed_family``:
    ``nodes[j]`` is the index in ``seed_family`` of breadth-first node j's
    eigenpair.  A build from the shift's angles keeps only the tree's
    members in ``seed_family``."""

    __slots__ = ("depth", "seed_family", "nodes")


def _label(j: int) -> str:
    return format(j + 1, "b")[1:]


def _reach(depth: int) -> float:
    """How far from the root a build to ``depth`` reads the seed.

    A level-n pick, and every candidate whose vector the build reads,
    passes chord_to(delta, 0) < 2**-n against its parent, in the windowed,
    relaxed and last-resort searches alike, so 2 |sin(pi delta)| < 2**-n.
    Every member the build reads therefore lies within
    rho(depth) = sum_{n=1}^{depth} arcsin(2**-n / 2) / pi of the root's
    angle: rho(9) = 0.1598, and rho < 0.1602 at every depth.  The sum
    carries a margin for rounding.
    """
    n = np.arange(1, depth + 1)
    return float(np.sum(np.arcsin(2.0**-n / 2.0)) / np.pi) * (1 + 1e-9) + 1e-12


def build_cantor_field(seed, depth: int) -> CantorField:
    """Grow the full binary tree of the halving construction to ``depth``.

    ``seed`` is an :class:`EigenFamily`, whose columns give the vector
    distances, or the shift's (angles, weight, dimension).  From angles,
    a vector distance is taken from the angle gap alone
    (:func:`_kernels._gap_distances`), and the field is made only at the
    tree's 2**depth distinct members, which become the field's
    ``seed_family``: each column and residual is the one a family of all
    the angles would hold, so the tree and its bytes are the same.

    The root is seed member 0, and the build holds only the members
    within _reach(depth) of it, in angle order from the root, so every
    search window is a near-contiguous run of columns; a family seed's
    ``nodes`` still index that family.  Right children are searched among
    unused members inside the node's territory arc, aiming at a
    deterministic target jump (ties by smaller angle).  A node with no
    admissible neighbor fails the build, naming the node and the nearest
    chord and vector distance of the unused members.

    The tree grows a level at a time: one search finds the right child of
    every node of a level against the members unused when the level
    starts, and the picks are then committed in breadth-first order.  A
    node whose pick an earlier node of its level took is searched again,
    alone, against the members still unused.  That gives the tree a
    search per node would give: taking members only shrinks candidate
    sets, so a search step that found nothing still finds nothing, and a
    best member that is still unused is still the best.  Nothing depends
    on the order of the seed members or on those beyond the reach.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    family = isinstance(seed, EigenFamily)
    thetas, weight, d = (seed.thetas, None, None) if family else seed
    thetas = np.asarray(thetas, dtype=float)
    # signed angle offsets from the root; all construction arithmetic is
    # done on these unwrapped coordinates
    offsets = np.mod(thetas - thetas[0] + 0.5, 1.0) - 0.5
    members = np.flatnonzero(np.abs(offsets) <= _reach(depth))
    members = members[np.argsort((thetas[members] - thetas[0]) % 1.0, kind="stable")]
    thetas, offsets = thetas[members], offsets[members]

    def distances(cand, parents):
        if family:
            return _distances(seed.vectors, members[cand], members[parents])
        return _gap_distances(thetas[cand] - thetas[parents], weight, d)

    # member indices by offset: the members a jump of at most j reaches on
    # one side of a node are one contiguous run of this order
    by_offset = np.argsort(offsets, kind="stable")
    sorted_offsets = offsets[by_offset]
    available = np.ones(thetas.size, dtype=bool)
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

    def best(picks, parents, owner, cand, chords, bound):
        """Set picks[i] to the best candidate of node i (``owner``, right
        child of member ``parents[i]``) among the ``cand`` (chord gaps
        ``chords``) that stay under the vector bound; nodes with no such
        candidate keep their -1."""
        dists = distances(cand, parents[owner])
        keep = dists < bound
        owner, cand, chords, dists = owner[keep], cand[keep], chords[keep], dists[keep]
        # both gaps become the children's budgets, so take the candidate
        # whose thinner budget is largest; ties by smaller angle
        score = -np.minimum(chords / bound, dists / bound)
        order = np.lexsort((thetas[cand], score, owner))
        first = order[np.diff(owner[order], prepend=-1) != 0]
        picks[owner[first]] = cand[first]

    def search(js, bound):
        """Member index of each node's right child in ``js`` against the
        members now unused, -1 where there is none.

        The jump prefers the roomier side of the territory, aiming near
        the halving bound; the thinner side serves as a fallback, then
        both sides ignoring the room, then the last resort.
        """
        picks = np.full(js.size, -1, dtype=np.intp)
        parents = nodes[js]
        off_v = off[js]
        room_plus, room_minus = hi[js] - off_v, off_v - lo[js]
        roomier = np.where(room_plus >= room_minus, 1.0, -1.0)
        bound_theta = float(np.arcsin(min(bound, 2.0) / 2.0) / np.pi)
        for relaxed in (False, True):
            for sign in (roomier, -roomier):
                if relaxed:
                    # ignore the room: any jump under the halving bound
                    # counts, even if it leaves this node's territory
                    j_hi = np.full(js.size, 0.98 * bound_theta)
                else:
                    # stay inside the territory with a safety factor
                    room = np.where(sign > 0, room_plus, room_minus)
                    j_hi = np.minimum(0.98 * bound_theta, 0.95 * room)
                todo = np.flatnonzero((picks < 0) & (j_hi > 0))
                if todo.size == 0:
                    continue
                # a rounded gap 0 < sign * (offset - off_v) <= j_hi puts
                # the offset strictly inside off_v + sign * (0, 2 j_hi);
                # the exact test on that window keeps the same members a
                # scan of all seeds would
                far = off_v[todo] + 2.0 * sign[todo] * j_hi[todo]
                start = np.searchsorted(sorted_offsets, np.minimum(off_v[todo], far), "left")
                stop = np.searchsorted(sorted_offsets, np.maximum(off_v[todo], far), "right")
                counts = stop - start
                ends = np.cumsum(counts)
                owner = np.repeat(todo, counts)
                cand = by_offset[np.arange(ends[-1]) + np.repeat(start - ends + counts, counts)]
                deltas = sign[owner] * (offsets[cand] - off_v[owner])
                keep = available[cand] & (deltas > 0) & (deltas <= j_hi[owner])
                owner, cand = owner[keep], cand[keep]
                chords = chord_to(deltas[keep], 0.0)
                keep = chords < bound
                best(picks, parents, owner[keep], cand[keep], chords[keep], bound)
        # last resort: nearest unused member under the halving bounds,
        # ignoring the territory; the bound is tiny this deep, so the
        # intrusion into a neighboring arc is equally tiny
        for i in np.flatnonzero(picks < 0):
            chords = chord_to(offsets, off_v[i])
            cand = np.flatnonzero(available & (chords > 0) & (chords < bound))
            best(picks, parents, np.full(cand.size, i), cand, chords[cand], bound)
        return picks

    for level in range(1, depth + 1):
        # level-n jumps must stay under 2**-n in both the eigenvalue and
        # the vector; the schedule is absolute, so one short jump never
        # starves its whole subtree
        bound = 2.0**-level
        js = np.arange(2 ** (level - 1) - 1, 2**level - 1)
        picks = search(js, bound)
        for i, j in enumerate(js.tolist()):
            if picks[i] >= 0 and not available[picks[i]]:
                picks[i] = search(js[i : i + 1], bound)[0]
            if picks[i] < 0:
                # how near the unused members in reach come
                unused = np.flatnonzero(available)
                chord = chord_to(offsets[unused], off[j]).min(initial=np.inf)
                parents = np.full_like(unused, nodes[j])
                dist = distances(unused, parents).min(initial=np.inf)
                raise CantorBuildError(
                    f"no admissible right child for node {_label(j)!r} at level {level} "
                    f"(need chord < {bound:.3g}, vector distance < {bound:.3g}; nearest unused "
                    f"members in reach: chord {chord:.3g}, vector distance {dist:.3g})"
                )
            available[picks[i]] = False
        off_v = off[js]
        jump = offsets[picks] - off_v
        left, right = 2 * js + 1, 2 * js + 2
        nodes[left], nodes[right] = nodes[js], picks
        off[left], off[right] = off_v, off_v + jump
        lo[left] = lo[right] = lo[js]
        hi[left] = hi[right] = hi[js]
        # split the territory: buffers on the contested side sum to
        # under half the jump, keeping cross-split leaf sets disjoint
        # with a gap; the jumping child gets the larger share because
        # its left-descendants stay at its anchor and spread back inward
        buf_left = 0.20 * np.abs(jump)
        buf_right = 0.29 * np.abs(jump)
        up = jump > 0
        hi[left[up]] = off_v[up] + buf_left[up]
        lo[right[up]] = off[right[up]] - buf_right[up]
        lo[left[~up]] = off_v[~up] - buf_left[~up]
        hi[right[~up]] = off[right[~up]] + buf_right[~up]

    if family:
        nodes = members[nodes]
    else:
        # the root and the right children, in angle order from the root
        held, nodes = np.unique(nodes, return_inverse=True)
        seed = _sqrt_prime_family(weight, d, thetas[held])
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
    jump_l = np.abs(lam[1:] - lam[parent])
    jump_u = _distances(field.seed_family.vectors, nodes[1:], nodes[parent])
    bad = np.flatnonzero(~((jump_l < 2.0**-level) & (jump_u < 2.0**-level)))
    if bad.size:
        k = int(bad[0])
        raise CantorBuildError(
            f"level-{level[k]} jump bound violated at {_label(k + 1)!r}"
        )
    for n in range(field.depth + 1):
        if _has_duplicates(thetas[2**n - 1 : 2 ** (n + 1) - 1]):
            raise CantorBuildError(f"duplicate angles at level {n}")


class SeparationReport(_Frozen):
    """Per-split results in breadth-first order of the splitting nodes:
    ``margins[j]`` is half the smallest distance between leaf eigenvalues
    below node j's two children, ``deltas[j]`` half the children's gap."""

    __slots__ = ("passed", "min_margin", "margins", "deltas", "delta_respected_fraction")


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
    """(label, theta, residual) rows, one per node in breadth-first order,
    in the csv module's excel dialect."""
    family = field.seed_family
    thetas = family.thetas[field.nodes].tolist()
    residuals = family.residuals[field.nodes].tolist()
    rows = "".join(
        f"{_label(j)},{t!r},{r!r}\r\n" for j, (t, r) in enumerate(zip(thetas, residuals))
    )
    with open(path, "w", newline="") as fh:
        fh.write("label,theta,residual\r\n" + rows)
