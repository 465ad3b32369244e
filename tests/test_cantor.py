import numpy as np
import pytest

from hyperlab.cantor import (
    CantorBuildError,
    build_cantor_field,
    cantor_lookup,
    field_to_csv,
    verify_cantor_separation,
)
from hyperlab.eigenfields import sample_2B_family


@pytest.fixture(scope="module")
def field3():
    return build_cantor_field(sample_2B_family(2.0, 32, 256), 3)


def test_depth_zero_is_just_the_root():
    fam = sample_2B_family(2.0, 16, 8)
    field = build_cantor_field(fam, 0)
    assert set(field.nodes) == {""}
    assert field.nodes[""].pair.theta == fam.thetas[0]


def test_tree_is_full_binary(field3):
    assert len(field3.nodes) == 2**4 - 1
    for label in field3.nodes:
        if len(label) < 3:
            assert label + "0" in field3.nodes and label + "1" in field3.nodes


def test_invariants_verified_independently(field3):
    # left child copies parent exactly; jumps below 2**-n in both the
    # eigenvalue chord and the vector norm; per-level angles distinct
    for label, node in field3.nodes.items():
        n = len(label)
        if n == 0:
            continue
        parent = field3.nodes[label[:-1]]
        if label.endswith("0"):
            assert node.pair.theta == parent.pair.theta
            assert np.array_equal(
                node.pair.vector.entries, parent.pair.vector.entries
            )
        jump_l = abs(field3.lambda_of(label) - field3.lambda_of(label[:-1]))
        jump_u = np.linalg.norm(
            node.pair.vector.entries - parent.pair.vector.entries
        )
        assert jump_l < 2.0**-n and jump_u < 2.0**-n
    for n in range(4):
        thetas = [
            node.pair.theta for lbl, node in field3.nodes.items() if len(lbl) == n
        ]
        assert len(set(thetas)) == len(thetas)


def test_right_children_come_from_the_seed_family(field3):
    seed_thetas = set(field3.seed_family.thetas.tolist())
    for label, node in field3.nodes.items():
        assert node.pair.theta in seed_thetas
    # each seed angle is used at most once across right children and root
    introduced = [
        node.pair.theta
        for label, node in field3.nodes.items()
        if label == "" or label.endswith("1")
    ]
    assert len(set(introduced)) == len(introduced)


def test_lookup_matches_nodes_and_validates(field3):
    assert cantor_lookup(field3, "000") == (
        field3.nodes["000"].pair.theta,
        field3.nodes["000"].pair.vector,
    )
    # the all-zeros string is the root seed member
    theta, _ = cantor_lookup(field3, (0, 0, 0))
    assert theta == field3.nodes[""].pair.theta
    with pytest.raises(ValueError):
        cantor_lookup(field3, "0000")
    with pytest.raises(ValueError):
        cantor_lookup(field3, "2")


def test_continuity_modulus_from_shared_prefix(field3):
    leaves = [lbl for lbl in field3.nodes if len(lbl) == 3]
    for a in leaves:
        for b in leaves:
            p = 0
            while p < 3 and a[p] == b[p]:
                p += 1
            gap = np.linalg.norm(
                field3.nodes[a].pair.vector.entries
                - field3.nodes[b].pair.vector.entries
            )
            assert gap <= 2.0 * 2.0**-p + 1e-12


def test_depth_one_margin_is_half_the_child_gap():
    fam = sample_2B_family(2.0, 16, 64)
    field = build_cantor_field(fam, 1)
    rep = verify_cantor_separation(field)
    child_gap = abs(field.lambda_of("0") - field.lambda_of("1"))
    assert rep.min_margin == pytest.approx(child_gap / 2.0)
    assert rep.passed and rep.delta_respected_fraction == 1.0


def test_separation_positive_at_every_branching_node(field3):
    rep = verify_cantor_separation(field3)
    assert rep.passed and rep.min_margin > 0
    assert len(rep.node_margins) == 2**3 - 1
    for _, margin, _, sep in rep.node_margins:
        assert margin == pytest.approx(sep / 2.0)


def test_build_fails_on_exhausted_seed_family():
    fam = sample_2B_family(2.0, 16, 4)
    with pytest.raises(CantorBuildError):
        build_cantor_field(fam, 3)
    with pytest.raises(ValueError):
        build_cantor_field(fam, -1)


def test_serializers(field3, tmp_path):
    path = tmp_path / "field.csv"
    field_to_csv(field3, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == len(field3.nodes) + 1
