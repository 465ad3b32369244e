import csv
import itertools

import numpy as np
import pytest

from hyperlab import _kernels, cantor, eigenfields
from hyperlab.cantor import (
    CantorBuildError,
    _check_field_invariants,
    build_cantor_field,
    field_to_csv,
    verify_cantor_separation,
)
from hyperlab.diophantine import chord_to
from hyperlab.eigenfields import (
    EigenFamily,
    _field_2B,
    _sqrt_prime_family,
    qindependent_angles,
    sample_2B_family,
    unimodular,
)


@pytest.fixture(scope="module")
def field3():
    return build_cantor_field(sample_2B_family(2.0, 32, 256), 3)


def labels(depth):
    """Every node label up to ``depth``, by level, each level in
    lexicographic order."""
    return [
        "".join(bits) for n in range(depth + 1) for bits in itertools.product("01", repeat=n)
    ]


def node(field, label):
    """(angle, vector) of the node with the given label: breadth-first node
    j has label bin(j + 1) without its leading 1."""
    i = field.nodes[int("1" + label, 2) - 1]
    return float(field.seed_family.thetas[i]), field.seed_family.vectors[:, i]


def lam(field, label):
    return unimodular(node(field, label)[0])


def test_depth_zero_is_just_the_root():
    fam = sample_2B_family(2.0, 16, 8)
    field = build_cantor_field(fam, 0)
    assert field.nodes.tolist() == [0]
    assert node(field, "")[0] == fam.thetas[0]


def test_tree_is_full_binary(field3):
    assert len(field3.nodes) == 2 ** (3 + 1) - 1
    thetas = field3.seed_family.thetas
    # breadth-first label order: node j has children 2j+1 and 2j+2, and
    # the leaves are the last 2**depth nodes
    for j, label in enumerate(labels(3)):
        assert node(field3, label)[0] == thetas[field3.nodes[j]]
        if len(label) < 3:
            assert node(field3, label + "0")[0] == thetas[field3.nodes[2 * j + 1]]
            assert node(field3, label + "1")[0] == thetas[field3.nodes[2 * j + 2]]
    leaves = [node(field3, s)[0] for s in labels(3) if len(s) == 3]
    assert leaves == thetas[field3.nodes[-(2**3) :]].tolist()
    # the all-zeros label is the root seed member
    assert field3.nodes[7] == field3.nodes[0] == 0


def test_invariants_verified_independently(field3):
    # left child copies parent exactly; jumps below 2**-n in both the
    # eigenvalue chord and the vector norm; per-level angles distinct
    for label in labels(3):
        n = len(label)
        if n == 0:
            continue
        theta, vector = node(field3, label)
        parent_theta, parent_vector = node(field3, label[:-1])
        if label.endswith("0"):
            assert theta == parent_theta
            assert np.array_equal(vector, parent_vector)
        jump_l = abs(lam(field3, label) - lam(field3, label[:-1]))
        jump_u = np.linalg.norm(vector - parent_vector)
        assert jump_l < 2.0**-n and jump_u < 2.0**-n
    for n in range(4):
        thetas = [node(field3, s)[0] for s in labels(3) if len(s) == n]
        assert len(set(thetas)) == len(thetas)


def test_right_children_come_from_the_seed_family(field3):
    seed_thetas = set(field3.seed_family.thetas.tolist())
    for label in labels(3):
        assert node(field3, label)[0] in seed_thetas
    # each seed angle is used at most once across right children and root
    introduced = [
        node(field3, label)[0]
        for label in labels(3)
        if label == "" or label.endswith("1")
    ]
    assert len(set(introduced)) == len(introduced)


def test_continuity_modulus_from_shared_prefix(field3):
    leaves = [lbl for lbl in labels(3) if len(lbl) == 3]
    for a in leaves:
        for b in leaves:
            p = 0
            while p < 3 and a[p] == b[p]:
                p += 1
            gap = np.linalg.norm(node(field3, a)[1] - node(field3, b)[1])
            assert gap <= 2.0 * 2.0**-p + 1e-12


def test_depth_one_margin_is_half_the_child_gap():
    fam = sample_2B_family(2.0, 16, 64)
    field = build_cantor_field(fam, 1)
    rep = verify_cantor_separation(field)
    child_gap = abs(lam(field, "0") - lam(field, "1"))
    assert rep.min_margin == pytest.approx(child_gap / 2.0)
    assert rep.passed and rep.delta_respected_fraction == 1.0


def test_separation_positive_at_every_branching_node(field3):
    rep = verify_cantor_separation(field3)
    assert rep.passed and rep.min_margin > 0
    assert len(rep.margins) == len(rep.deltas) == 2**3 - 1
    assert np.all(rep.margins > 0) and rep.min_margin == rep.margins.min()


def brute_force_separation(field):
    """Per-split (margin, delta) in breadth-first order, from pairwise
    leaf distances grouped by label prefix."""
    leaves = [s for s in labels(field.depth) if len(s) == field.depth]
    rows = []
    for label in labels(field.depth - 1):
        left = np.array([lam(field, s) for s in leaves if s.startswith(label + "0")])
        right = np.array([lam(field, s) for s in leaves if s.startswith(label + "1")])
        sep = float(np.abs(left[:, None] - right[None, :]).min())
        delta = abs(lam(field, label + "0") - lam(field, label + "1")) / 2.0
        rows.append((sep / 2.0, delta, sep >= delta > 0))
    return rows


@pytest.mark.parametrize("depth", range(1, 7))
def test_separation_matches_brute_force_reference(depth):
    field = build_cantor_field(sample_2B_family(2.0, 64, 4096), depth)
    rep = verify_cantor_separation(field)
    rows = brute_force_separation(field)
    margins = [m for m, _, _ in rows]
    assert rep.margins.tolist() == margins
    assert rep.min_margin == min(margins)
    assert rep.delta_respected_fraction == sum(r for _, _, r in rows) / len(rows)
    # numpy's and Python's complex abs may round the child gap apart by an ulp
    assert rep.deltas.tolist() == pytest.approx([d for _, d, _ in rows], rel=1e-15)


def test_build_fails_on_exhausted_seed_family():
    fam = sample_2B_family(2.0, 16, 4)
    with pytest.raises(CantorBuildError):
        build_cantor_field(fam, 3)
    with pytest.raises(ValueError):
        build_cantor_field(fam, -1)


def csv_reference(field, path):
    """field_to_csv's rows as the csv module writes them."""
    family = field.seed_family
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "theta", "residual"])
        for j, i in enumerate(field.nodes.tolist()):
            theta, residual = float(family.thetas[i]), float(family.residuals[i])
            writer.writerow([format(j + 1, "b")[1:], repr(theta), repr(residual)])


@pytest.fixture(scope="module")
def seed15():
    return sample_2B_family(2.0, 64, 2**15)


@pytest.mark.parametrize("depth", [0, 1, 9])
def test_field_csv_matches_the_csv_module(seed15, depth, tmp_path):
    field = build_cantor_field(seed15, depth)
    field_to_csv(field, tmp_path / "field.csv")
    csv_reference(field, tmp_path / "reference.csv")
    assert (tmp_path / "field.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_serializers(field3, tmp_path):
    path = tmp_path / "field.csv"
    field_to_csv(field3, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["label", "theta", "residual"]
    assert len(rows) == len(field3.nodes) + 1
    for label, (row_label, theta, residual) in zip(labels(3), rows[1:]):
        assert row_label == label
        assert float(theta) == node(field3, label)[0]
        assert 0.0 <= float(residual) <= 2.0**-31


def full_scan_build(seed, depth):
    """Node array of the halving construction with every right-child
    search scanning all seed members, one node at a time; how often each
    search branch chose the child: {"territory": ..., "relaxed": ...,
    "last_resort": ...}; and how many nodes a level-at-a-time build must
    search again: those whose pick against the members unused at the
    start of their level was taken by an earlier node of that level."""
    thetas, mat = seed.thetas, seed.vectors
    offsets = np.mod(thetas - thetas[0] + 0.5, 1.0) - 0.5
    available = np.ones(len(seed), dtype=bool)
    available[0] = False
    size = 2 ** (depth + 1) - 1
    nodes, off = np.zeros(size, dtype=np.intp), np.zeros(size)
    lo, hi = np.full(size, -0.5), np.full(size, 0.5)
    branches = {"territory": 0, "relaxed": 0, "last_resort": 0}
    researches = 0

    def best(idx, chords, idx_v, bound):
        dists = np.linalg.norm(mat[:, idx] - mat[:, idx_v][:, None], axis=0)
        keep = dists < bound
        idx, chords, dists = idx[keep], chords[keep], dists[keep]
        if idx.size == 0:
            return None
        score = -np.minimum(chords / bound, dists / bound)
        return int(idx[np.lexsort((thetas[idx], score))[0]])

    def right_child(idx_v, off_v, lo_v, hi_v, bound, available):
        bound_theta = float(np.arcsin(min(bound, 2.0) / 2.0) / np.pi)
        sides = sorted([(1.0, hi_v - off_v), (-1.0, off_v - lo_v)], key=lambda t: -t[1])
        for relaxed in (False, True):
            for sign, room in sides:
                j_hi = 0.98 * bound_theta if relaxed else min(0.98 * bound_theta, 0.95 * room)
                if j_hi <= 0:
                    continue
                deltas = sign * (offsets - off_v)
                idx = np.nonzero(available & (deltas > 0) & (deltas <= j_hi))[0]
                chords = chord_to(deltas[idx], 0.0)
                keep = chords < bound
                found = best(idx[keep], chords[keep], idx_v, bound)
                if found is not None:
                    return found, "relaxed" if relaxed else "territory"
        chords = chord_to(offsets, off_v)
        idx = np.nonzero(available & (chords > 0) & (chords < bound))[0]
        return best(idx, chords[idx], idx_v, bound), "last_resort"

    for j in range(2**depth - 1):
        level = (j + 1).bit_length()
        bound = 2.0**-level
        if j == 2 ** (level - 1) - 1:
            level_start = available.copy()
        idx_v, off_v = int(nodes[j]), float(off[j])
        args = (idx_v, off_v, float(lo[j]), float(hi[j]), bound)
        first, _ = right_child(*args, level_start)
        researches += first is not None and not available[first]
        found, branch = right_child(*args, available)
        if found is None:
            raise CantorBuildError(f"no admissible right child for node {j}")
        branches[branch] += 1
        available[found] = False
        jump = float(offsets[found] - off_v)
        left, right = 2 * j + 1, 2 * j + 2
        nodes[left], nodes[right] = idx_v, found
        off[left], off[right] = off_v, off_v + jump
        lo[left] = lo[right] = lo[j]
        hi[left] = hi[right] = hi[j]
        if jump > 0:
            hi[left], lo[right] = off_v + 0.20 * jump, off[right] - 0.29 * jump
        else:
            lo[left], hi[right] = off_v - 0.20 * abs(jump), off[right] + 0.29 * abs(jump)
    return nodes, branches, researches


def last_resort_family():
    """Root at 0.1 whose only members within the level-1 chord bound sit
    between 0.98 and 1 times its angle bound, beyond both side windows."""
    bound_theta = float(np.arcsin(0.25) / np.pi)
    thetas = [0.1, 0.1 + 0.99 * bound_theta, 0.1 - 0.995 * bound_theta, 0.6]
    return EigenFamily(thetas, *_field_2B(thetas, 2.0, 16))


def test_windowed_search_matches_full_scan():
    cases = [
        (sample_2B_family(2.0, 16, 8), 0),
        (sample_2B_family(2.0, 16, 64), 1),
        (sample_2B_family(2.0, 32, 256), 3),
        (sample_2B_family(1.5, 24, 128), 3),
        (sample_2B_family(2.0, 64, 4096), 7),
        (sample_2B_family(2.0, 16, 2**13), 8),
        (last_resort_family(), 1),
    ]
    used = {"territory": 0, "relaxed": 0, "last_resort": 0}
    researched = []
    for seed, depth in cases:
        nodes, branches, researches = full_scan_build(seed, depth)
        assert np.array_equal(build_cantor_field(seed, depth).nodes, nodes)
        for name, count in branches.items():
            used[name] += count
        researched.append(researches)
    assert all(count > 0 for count in used.values()), used
    # the build searched some nodes again because an earlier node of their
    # level took their first pick, and still matched the full scan
    assert sum(researched) > 0, researched


def test_windowed_search_fails_where_full_scan_fails():
    seed = sample_2B_family(1.5, 8, 512)
    # breadth-first node 15 has the label "0000"
    with pytest.raises(CantorBuildError, match="node 15$"):
        full_scan_build(seed, 5)
    with pytest.raises(CantorBuildError, match="node '0000'"):
        build_cantor_field(seed, 5)


def build_outcome(seed, depth):
    """What a build shows of its seed: node angles and residuals, and the
    separation margins, or the error text of a failed build.  ``seed`` is
    a family or the shift's (angles, weight, dimension)."""
    try:
        field = build_cantor_field(seed, depth)
    except CantorBuildError as exc:
        return str(exc)
    sep = verify_cantor_separation(field)
    family, i = field.seed_family, field.nodes
    return (
        family.thetas[i].tolist(),
        family.residuals[i].tolist(),
        sep.margins.tolist(),
        sep.deltas.tolist(),
        sep.delta_respected_fraction,
    )


@pytest.mark.parametrize(
    "w, d, count, depth",
    [
        (2.0, 32, 256, 3),
        (1.5, 24, 128, 3),
        (2.0, 64, 4096, 7),
        (2.0, 16, 2**13, 8),
        # fails at node '0000' in every order
        (1.5, 8, 512, 5),
    ],
)
def test_seed_order_does_not_change_the_field(w, d, count, depth):
    thetas = qindependent_angles(count)
    # angle order from the root, as the cantor pipeline samples its seed,
    # and reversed prime order after the root
    by_angle = np.argsort((thetas - thetas[0]) % 1.0, kind="stable")
    reverse = np.r_[0, np.arange(count - 1, 0, -1)]
    prime = _sqrt_prime_family(w, d, thetas)
    outcome = build_outcome(prime, depth)
    for order in (by_angle, reverse):
        seed = _sqrt_prime_family(w, d, thetas[order])
        # each column equals the prime-order column of its angle bit for bit
        assert np.array_equal(seed.vectors, prime.vectors[:, order])
        assert np.array_equal(seed.residuals, prime.residuals[order])
        assert build_outcome(seed, depth) == outcome
        # the angle seed's gap distances give the tree of the columns
        assert build_outcome((thetas[order], w, d), depth) == outcome
    if depth == 5:
        assert "node '0000'" in outcome


@pytest.mark.parametrize("w, d, count, depth", [(2.0, 32, 256, 3), (1.5, 8, 512, 5)])
def test_build_is_the_same_under_a_small_block_budget(monkeypatch, w, d, count, depth):
    seed = sample_2B_family(w, d, count)
    outcome = build_outcome(seed, depth)
    # gathers of two or three columns a block
    monkeypatch.setattr(_kernels, "_BLOCK", 16)
    assert build_outcome(seed, depth) == outcome


@pytest.mark.parametrize("budget", [_kernels._BLOCK, 2**9])
@pytest.mark.parametrize("d, k", [(64, 512), (16, 64), (64, 4096), (3, 5)])
def test_column_distances_equal_the_norm_of_the_difference(monkeypatch, budget, d, k):
    rng = np.random.default_rng(d * k)
    mat = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
    monkeypatch.setattr(_kernels, "_BLOCK", budget)
    members = np.arange(k)
    for anchor in rng.choice(k, 5):
        got = _kernels._distances(mat, members, np.full(k, anchor))
        assert np.array_equal(got, np.linalg.norm(mat - mat[:, [anchor]], axis=0))
    # row-major gathers: mat[:, cand] is column-major, and numpy sums a
    # contiguous axis pairwise, in another order
    cand, parents = rng.integers(k, size=(2, 3 * k))
    a, b = np.take(mat, cand, axis=1), np.take(mat, parents, axis=1)
    got = _kernels._distances(mat, cand, parents)
    assert np.array_equal(got, np.linalg.norm(a - b, axis=0))


def failed_node(outcome):
    """A build outcome with a failure's text cut before the nearest members."""
    return outcome.split("; nearest")[0] if isinstance(outcome, str) else outcome


@pytest.mark.parametrize("w, d", list(itertools.product([1.25, 1.5, 2.0, 3.0], [4, 8, 64])))
def test_reach_restricted_seed_gives_the_same_tree(monkeypatch, w, d):
    # a build holds only the members within _reach(depth) of the root; with
    # the reach patched to 0.5 it holds every member, and the tree is the
    # same from a family, from its angles and from the family shuffled
    rng = np.random.default_rng(d)
    failed = built = 0
    for count in (1, 3, 16, 100, 512, 4096):
        thetas = qindependent_angles(count)
        # the root stays member 0
        shuffled = thetas[np.r_[0, 1 + rng.permutation(count - 1)]]
        seeds = (
            _sqrt_prime_family(w, d, thetas),
            (thetas, w, d),
            _sqrt_prime_family(w, d, shuffled),
        )
        for depth in range(9):
            outcomes = [build_outcome(seed, depth) for seed in seeds]
            assert outcomes == outcomes[:1] * 3, (count, depth)
            with monkeypatch.context() as m:
                m.setattr(cantor, "_reach", lambda depth: 0.5)
                whole = [build_outcome(seed, depth) for seed in seeds]
            # a failure names the same node; only the nearest members it
            # reports, those in reach, differ
            assert all(failed_node(o) == failed_node(outcomes[0]) for o in whole), (count, depth)
            failed += isinstance(outcomes[0], str)
            built += not isinstance(outcomes[0], str)
    assert failed and built


@pytest.mark.parametrize(
    "count, depth",
    # the README config's seed and the full-size cantor-field workload's
    [(4096, 6), (2**15, 9)],
)
def test_angle_seed_gives_the_tree_and_columns_of_the_vector_seed(count, depth):
    # the cantor pipeline's seed: the first count sqrt-prime angles
    angles = qindependent_angles(count)
    vector = build_cantor_field(_sqrt_prime_family(2.0, 64, angles), depth)
    field = build_cantor_field((angles, 2.0, 64), depth)
    assert field.depth == depth
    # the family holds the tree's 2**depth members, and each column and
    # residual is the one the vector seed held, bit for bit
    members = vector.seed_family
    assert len(field.seed_family) == 2**depth
    assert np.array_equal(field.seed_family.thetas[field.nodes], members.thetas[vector.nodes])
    assert np.array_equal(
        field.seed_family.vectors[:, field.nodes], members.vectors[:, vector.nodes]
    )
    assert np.array_equal(
        field.seed_family.residuals[field.nodes], members.residuals[vector.nodes]
    )
    a, b = verify_cantor_separation(field), verify_cantor_separation(vector)
    assert a.margins.tolist() == b.margins.tolist() and a.deltas.tolist() == b.deltas.tolist()


@pytest.mark.parametrize("depth", [3, 7])
def test_a_family_seed_s_nodes_index_the_family_it_was_given(depth):
    # the build reads the members in reach in angle order from the root,
    # which is not the family's order
    family = sample_2B_family(2.0, 64, 4096)
    field = build_cantor_field(family, depth)
    assert field.seed_family is family
    angles = build_cantor_field((family.thetas, 2.0, 64), depth)
    members = angles.seed_family
    assert np.array_equal(family.thetas[field.nodes], members.thetas[angles.nodes])
    assert np.array_equal(family.vectors[:, field.nodes], members.vectors[:, angles.nodes])


def test_a_halved_gap_distance_fails_the_invariant_check(monkeypatch):
    # at w = 1.25 the vector distance is about 2.9 times the chord, so the
    # vector bound decides which members a search admits
    seed = (qindependent_angles(512), 1.25, 16)
    field = build_cantor_field(seed, 3)
    _check_field_invariants(field)
    gap = _kernels._gap_distances
    monkeypatch.setattr(cantor, "_gap_distances", lambda *args: 0.5 * gap(*args))
    with pytest.raises(CantorBuildError, match="jump bound violated"):
        build_cantor_field(seed, 3)


def direct_gap_distances(delta, w, d):
    """The 80-bit sum sqrt(4 sum q**n sin(pi n delta)**2 / sum q**n), with
    n delta reduced mod 1 before the sine."""
    ld = np.longdouble
    q = ld(1) / (ld(w) * ld(w))
    n = np.arange(d).astype(ld)
    qn = q**n
    t = np.multiply.outer(np.asarray(delta, dtype=ld), n)
    sines = np.sin(np.arccos(ld(-1)) * (t - np.rint(t)))
    return np.sqrt(4 * (sines * sines * qn).sum(axis=1) / qn.sum())


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= 1e-18, reason="long double is no wider than float64"
)
@pytest.mark.parametrize("d", [1, 2, 16, 64, 1024])
# above 1e150 the closed form's q * sin**2 goes subnormal, and above
# 1.34e154 weight * weight overflows
@pytest.mark.parametrize("w", [1 + 1e-6, 1.001, 1.01, 1.05, 1.25, 2.0, 4.0, 1e150, 1e160, 1e250])
def test_gap_distances_match_the_direct_sum(w, d):
    rng = np.random.default_rng(d)
    delta = np.exp(rng.uniform(np.log(1e-8), np.log(0.5), 400)) * rng.choice([-1, 1], 400)
    delta = np.r_[delta, 1e-8, -1e-8, 0.5, -0.5]
    got = _kernels._gap_distances(delta, w, d)
    if d == 1:
        # a one-entry column is 1 at every angle
        assert np.array_equal(got, np.zeros(delta.size))
        return
    want = direct_gap_distances(delta, w, d)
    assert np.max(np.abs(got - want) / want) < 1e-13


@pytest.mark.parametrize("w, d", [(1.001, 64), (1.25, 16), (2.0, 64), (1.05, 1024)])
def test_gap_distances_match_the_column_distances(w, d):
    thetas = np.r_[qindependent_angles(200), 1.0 - 1e-4, 1e-4]
    vectors, _ = _field_2B(thetas, w, d)
    # each angle's gap to its neighbour in angle order (across the wrap
    # too), and to farther angles, of both signs
    cand = np.argsort(thetas)
    for shift in (1, -1, 7, thetas.size // 2):
        parents = np.roll(cand, shift)
        want = _kernels._distances(vectors, cand, parents)
        got = _kernels._gap_distances(thetas[cand] - thetas[parents], w, d)
        assert got == pytest.approx(want, rel=1e-9, abs=0)


def test_a_shift_cantor_run_makes_columns_only_for_the_tree(monkeypatch, tmp_path):
    from hyperlab.cli import run_experiment, validate_config

    sizes = []
    field_2B = eigenfields._field_2B

    def counted(thetas, w, d):
        sizes.append(np.size(thetas))
        return field_2B(thetas, w, d)

    monkeypatch.setattr(eigenfields, "_field_2B", counted)
    cfg, errors = validate_config(
        '{"seed": 1, "dimension": 64, "pipelines": {"cantor": {"depth": 6, "seed_count": 4096}}}'
    )
    assert not errors
    assert run_experiment(cfg, tmp_path) == 0
    assert sum(sizes) <= 2**6, sizes


@pytest.mark.parametrize("w, d", [(1.001, 64), (1 + 1e-6, 1024)])
def test_gap_distances_do_not_depend_on_the_block_budget(monkeypatch, w, d):
    # d (1 - w**-2) < 1: the direct sum, a block of gaps at a time
    delta = np.diff(qindependent_angles(300))
    want = _kernels._gap_distances(delta, w, d)
    monkeypatch.setattr(_kernels, "_BLOCK", 2**9)
    assert np.array_equal(_kernels._gap_distances(delta, w, d), want)
