import dataclasses
import json

import numpy as np
import pytest

from hyperlab import _kernels, construction
from hyperlab._kernels import _factor, _quad_form
from hyperlab.construction import (
    ConstructionState,
    ConstructionTarget,
    build_block,
    run_construction,
    split_coefficient,
)
from hyperlab.density import TargetBall, recheck_visit
from hyperlab.eigenfields import sample_2B_family
from hyperlab.operators import make_scaled_backward_shift
from hyperlab.steinhaus import sample_steinhaus


def test_target_reach_power_keeps_return_times_in_int64():
    ConstructionTarget(((0.5, 3),), 0.5, 2**62 - 1)
    for reach in (-1, 2**62):
        with pytest.raises(ValueError, match="reach power"):
            ConstructionTarget(((0.5, 3),), 0.5, reach)


def test_split_coefficient_reassembles_exactly():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = complex(rng.standard_normal(), rng.standard_normal()) * 3
        eps = float(rng.uniform(1e-4, 1.0))
        s = split_coefficient(a, eps)
        assert abs(sum(s.parts) - a) <= 1e-12 * max(1.0, abs(a))
        assert sum(abs(x) ** 2 for x in s.parts) < eps
        # equal parts by construction
        assert len(set(s.parts)) == 1
    with pytest.raises(ValueError):
        split_coefficient(1.0, 0.0)


def test_target_validation():
    with pytest.raises(ValueError):
        ConstructionTarget(((1.0, 0),), 0.0)
    with pytest.raises(ValueError):
        ConstructionTarget(((1.0, 0),), 0.5, -1)


def test_build_block_certifies_and_visits(rng):
    op = make_scaled_backward_shift(2.0, 32)
    fam = sample_2B_family(2.0, 32, 256)
    state = ConstructionState(op=op, family=fam)
    target = ConstructionTarget(((0.5, 3),), 0.5, 1)
    block = build_block(state, target, rng)
    assert block.expected_norm_bound < block.budget
    thetas = block.terms.terms.thetas
    assert len(set(thetas)) == len(thetas)
    # deterministic visit: the un-randomized expansion itself must be
    # carried into the target ball by some certified return time
    ball = TargetBall(block.center, block.radius + 1e-9)
    assert any(recheck_visit(block.terms, ball, p) for p in block.return_times.times)


def test_blocks_use_disjoint_fresh_angles(rng):
    op = make_scaled_backward_shift(2.0, 32)
    fam = sample_2B_family(2.0, 32, 256)
    targets = [
        ConstructionTarget(((0.5, 3),), 0.5, 1),
        ConstructionTarget(((0.4, 11),), 0.5, 1),
    ]
    state, phi, report = run_construction(op, fam, targets, 2, rng)
    assert len(state.blocks) == 2
    t1, t2 = (set(b.terms.terms.thetas.tolist()) for b in state.blocks)
    assert not (t1 & t2)
    assert report.all_passed()
    assert len(phi) == len(state.all_terms())
    # sampled phases fold into the coefficients with unchanged moduli
    assert np.allclose(np.abs(phi.coeffs), np.abs(state.all_terms().coeffs))


def test_construction_report_fields(rng):
    op = make_scaled_backward_shift(2.0, 32)
    fam = sample_2B_family(2.0, 32, 256)
    targets = [ConstructionTarget(((0.5, 3),), 0.5, 1)]
    state, phi, report = run_construction(op, fam, targets, 1, rng)
    (cert,) = report.certificates
    assert cert.index == 1
    assert cert.expected_norm_bound < cert.budget
    assert cert.visit_rate >= cert.visit_floor - 3 * cert.visit_stderr
    assert report.total_norm_budget == pytest.approx(0.25)
    payload = json.loads(state.to_json())
    assert len(payload["blocks"]) == 1
    assert payload["operator"]["dim"] == 32


def test_run_construction_validates_target_count(rng):
    op = make_scaled_backward_shift(2.0, 32)
    fam = sample_2B_family(2.0, 32, 64)
    with pytest.raises(ValueError):
        run_construction(op, fam, [], 1, rng)


def test_zero_steps_yields_empty_series(rng):
    op = make_scaled_backward_shift(2.0, 32)
    fam = sample_2B_family(2.0, 32, 64)
    state, phi, report = run_construction(op, fam, [], 0, rng)
    assert state.blocks == [] and len(phi) == 0
    assert report.total_norm_estimate == 0.0


def _closest_sq_per_sample(block, terms, weights, f):
    """Reference: one distance evaluation per sampled realization, giving
    its smallest squared distance to the block's center over the return
    times."""
    p_arr = np.array(block.return_times.times)
    lam_pow = np.exp(2j * np.pi * np.outer(p_arr, terms.terms.thetas)) - 1.0
    c = block.center.entries
    h = terms.terms.vectors.conj().T @ c
    c_sq = float(np.real(np.vdot(c, c)))
    closest = []
    for w in weights:
        v = lam_pow * w[None, :]
        closest.append((_quad_form(v, f) - 2.0 * (v @ h.conj()).real + c_sq).min())
    return np.array(closest)


def test_vectorised_visit_rate_matches_per_sample_loop(rng, monkeypatch):
    op = make_scaled_backward_shift(2.0, 32)
    fam = sample_2B_family(2.0, 32, 256)
    targets = [
        ConstructionTarget(((0.5, 3),), 0.5, 1),
        ConstructionTarget(((0.4, 11),), 0.5, 1),
    ]
    state, _, _ = run_construction(op, fam, targets, 2, rng, cert_samples=50)
    terms = state.all_terms()
    f = _factor(terms.terms.vectors)
    samples = 300
    omega = sample_steinhaus(rng, samples * len(terms)).reshape(samples, len(terms))
    weights = omega * terms.coeffs[None, :]
    # every sample visits the construction's own balls; a ball whose
    # radius is the median closest approach is visited by about half
    closest = _closest_sq_per_sample(state.blocks[0], terms, weights, f)
    probe = dataclasses.replace(
        state.blocks[0], radius=float(np.sqrt(np.median(closest))), index=60
    )
    for b in (*state.blocks, probe):
        tol = b.radius + 2.0 ** (-(b.index - 1))
        closest = _closest_sq_per_sample(b, terms, weights, f)
        expected = np.count_nonzero(closest < tol * tol) / samples
        assert construction._visit_rate(b, terms, weights, f) == expected
        # blocks of at most 7 samples
        size = 7 * len(b.return_times.times) * len(terms)
        monkeypatch.setattr(_kernels, "_BLOCK", size)
        assert construction._visit_rate(b, terms, weights, f) == expected
        monkeypatch.undo()
    assert 0 < expected < 1
