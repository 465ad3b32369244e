"""Inductive block construction of a random eigenvector series whose
sampled values visit a prescribed ladder of target balls.

Each block approximates a target by a finite eigencombination, splits the
coefficients into equal parts, swaps every part onto a fresh nearby
eigenvector with an unused angle, and certifies two things by computation:
a Monte Carlo bound on the expected block norm against the geometric
budget 4**-n / ||T||**max(pi_1..pi_{n-1}), and a covering return-time set
guaranteeing that almost every sampled value is carried into the target by
some power from the set.
"""

from __future__ import annotations

import json
import math

import numpy as np

from ._kernels import (
    _Frozen,
    _Record,
    _Value,
    _ball,
    _blocks,
    _distances,
    _factor,
    _inside,
    _quad_form,
    _unit_phases,
)
from .diophantine import ReturnTimeSet, covering_scan
from .eigenfields import EigenExpansion, EigenFamily
from .operators import OperatorSpec
from .steinhaus import _phase_rows, sample_steinhaus

_UCB_Z = 2.326  # one-sided 99% normal quantile
# times build_block halves its split tolerance delta before it gives up
_MAX_TIGHTEN = 8
# the most cells of a covering net, one int64 each, that build_block scans
_MAX_NET_CELLS = 1 << 24
# the most terms (samples x return times x k) the visit certificate of one
# block tests; 200 samples of a one-term net of 2,234,022 cells made a 13.8 s run
_MAX_VISIT_TERMS = 1 << 26


class ConstructionError(ValueError):
    pass


class CoefficientSplit(_Value):
    """Equal-part split of a coefficient: the parts reassemble exactly and
    their squared moduli sum below the requested bound."""

    __slots__ = ("parts",)


def split_coefficient(a: complex, eps: float) -> CoefficientSplit:
    """N = floor(|a|**2/eps) + 1 equal parts a/N; then sum(parts) == a and
    sum |part|**2 = |a|**2/N < eps."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    a = complex(a)
    n = int(abs(a) ** 2 / eps) + 1
    return CoefficientSplit((a / n,) * n)


class ConstructionTarget(_Value):
    """Target ball: an eigencombination over the seed family (coefficient,
    family index), a radius, and the known power carrying the combination
    into the ball's center."""

    __slots__ = ("coefficients", "radius", "reach_power")

    def __init__(self, coefficients: tuple, radius: float, reach_power: int = 1):
        super().__init__(coefficients, radius, reach_power)

    def __post_init__(self):
        self._fill(
            tuple((complex(c), int(i)) for c, i in self.coefficients),
            self.radius,
            self.reach_power,
        )
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        if not 0 <= self.reach_power < 2**62:
            raise ValueError("reach power must lie in [0, 2**62), so return times fit an int64")


class Block(_Frozen):
    """One block: ``terms`` over fresh distinct angles, the target ball,
    ``expected_norm_bound``, the Monte Carlo upper 99% confidence bound on
    E||Phi_n||, and ``budget`` = 4**-n / ||T||**max(pi_<n)."""

    __slots__ = (
        "index",
        "terms",
        "center",
        "radius",
        "reach_power",
        "return_times",
        "expected_norm_bound",
        "budget",
    )


class ConstructionState(_Record):
    """The blocks built so far and ``used``, the family indices of all
    their terms, in order."""

    __slots__ = ("op", "family", "blocks", "used")

    def __init__(self, op: OperatorSpec, family: EigenFamily, blocks=None, used=None):
        super().__init__(op, family, [] if blocks is None else blocks, [] if used is None else used)

    def max_pi(self) -> int:
        return max((b.return_times.pi_max for b in self.blocks), default=0)

    def all_terms(self) -> EigenExpansion:
        coeffs = [b.terms.coeffs for b in self.blocks]
        return EigenExpansion(np.concatenate(coeffs or [[]]), self.family.take(self.used))

    def to_json(self) -> str:
        payload = {
            "operator": {
                "kind": self.op.kind,
                "dim": self.op.dim,
                "norm_bound": self.op.norm_bound,
            },
            "blocks": [
                {
                    "index": b.index,
                    "angles": b.terms.terms.thetas.tolist(),
                    "coefficients": [[c.real, c.imag] for c in b.terms.coeffs.tolist()],
                    "return_times": b.return_times.times.tolist(),
                    "radius": b.radius,
                    "reach_power": b.reach_power,
                    "expected_norm_bound": b.expected_norm_bound,
                    "budget": b.budget,
                }
                for b in self.blocks
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=2)


def _fresh_members(family, used, anchor: int, count: int, gamma: float):
    """(index, distance) of the ``count`` unused family members nearest to
    member ``anchor`` in vector distance, all within gamma; None if too few
    exist."""
    members = np.arange(len(family))
    dists = _distances(family.vectors, members, np.full_like(members, anchor))
    order = np.argsort(dists)
    order = order[~np.isin(order, list(used))][:count]
    if order.size < count or dists[order[-1]] >= gamma:
        return None
    return [(int(i), float(dists[i])) for i in order]


def build_block(
    state: ConstructionState,
    target: ConstructionTarget,
    rng: np.random.Generator,
    trials: int = 2000,
    p_max: int = 10**6,
) -> Block:
    """Build block n against the given target and append it to the state,
    with the budget of the state's operator and terms from its family.

    The target center is rescaled into the block's expectation budget when
    necessary (later blocks operate at geometrically shrinking amplitude;
    an unscaled center could never satisfy the budget at finite split
    sizes).  The block records the actual center used.
    """
    op = state.op
    n = len(state.blocks) + 1
    max_pi = state.max_pi()
    log_budget = -n * math.log(4.0) - max_pi * math.log(op.norm_bound)
    if log_budget < math.log(5e-300):
        raise ConstructionError(
            f"block {n} budget 4**-{n}/||T||**{max_pi} underflows double precision"
        )
    budget = math.exp(log_budget)

    total = sum(abs(c) for c, _ in target.coefficients)
    scale = min(1.0, 0.4 * budget / total) if total > 0 else 1.0
    alphas = [(c * scale, i) for c, i in target.coefficients]
    scaled_total = total * scale

    delta = 1.25 * scaled_total if scaled_total > 0 else 1.0
    try:
        rho = target.radius / (2.0 * op.norm_bound**target.reach_power)
    except OverflowError:
        raise ConstructionError(
            f"block {n}: ||T||**{target.reach_power} overflows double precision"
        ) from None

    last_failure = ""
    for _ in range(_MAX_TIGHTEN + 1):
        built = _assemble_terms(state, alphas, delta, rho)
        if built is None:
            delta /= 2.0
            last_failure = "no admissible fresh neighbors at this gamma"
            continue
        terms, picked = built
        report = _certify_expectation(terms, rng, trials)
        if report < budget:
            break
        delta /= 2.0
        last_failure = (
            f"E-bound {report:.3e} not below budget {budget:.3e}"
        )
    else:
        raise ConstructionError(
            f"block {n}: expectation bound failed after {_MAX_TIGHTEN} tightenings "
            f"({last_failure})"
        )

    l1 = sum(abs(c) for c in terms.coeffs.tolist())
    eta = min(1.9, rho / (2.0 * l1)) if l1 > 0 else 1.9
    kappa = target.radius / 4.0
    prior = state.all_terms()
    prior_l1 = sum(abs(c) for c in prior.coeffs.tolist())
    old_eta = min(1.9, kappa / prior_l1) if prior_l1 > 0 else 2.0
    # covering_scan's net has ceil(2 pi / (eta / 2)) points per term's coordinate
    if len(terms) * math.log(4.0 * math.pi / eta) > math.log(_MAX_NET_CELLS):
        raise ConstructionError(
            f"block {n}: a covering net at eta = {eta:.3g} over {len(terms)} terms "
            f"has more than {_MAX_NET_CELLS} cells"
        )

    net = covering_scan(
        terms.terms.thetas,
        eta,
        eta / 2.0,
        fixed_angles=prior.terms.thetas,
        fixed_eta=old_eta,
        p_max=p_max,
    )
    p_times = ReturnTimeSet(net.return_times.times + target.reach_power)

    block = Block(
        index=n,
        terms=terms,
        center=terms.power(target.reach_power),
        radius=target.radius,
        reach_power=target.reach_power,
        return_times=p_times,
        expected_norm_bound=report,
        budget=budget,
    )
    _check_block_invariants(state, block, picked)
    state.blocks.append(block)
    state.used.extend(picked)
    return block


def _assemble_terms(state, alphas, delta, rho):
    """Split every coefficient under the delta schedule and pick fresh
    nearby family members with unused angles; returns (terms, picked
    family indices) or None when some coefficient has too few admissible
    neighbors."""
    n_coeffs = max(len(alphas), 1)
    eps = (delta / n_coeffs) ** 2
    if eps == 0:
        raise ConstructionError(
            f"split tolerance ({delta:.3g}/{n_coeffs})**2 underflows double precision"
        )
    l1 = 0.0
    splits = []
    for c, anchor in alphas:
        s = split_coefficient(c, eps)
        splits.append((s, anchor))
        l1 += sum(abs(x) for x in s.parts)
    gamma = min(delta / 4.0, rho / (2.0 * l1)) if l1 > 0 else delta / 4.0
    family = state.family
    used = set(state.used)
    coeffs, picked = [], []
    drift = 0.0
    for s, anchor in splits:
        found = _fresh_members(family, used, anchor, len(s.parts), gamma)
        if found is None:
            return None
        for a_j, (idx, dist) in zip(s.parts, found):
            coeffs.append(a_j)
            picked.append(idx)
            used.add(idx)
            drift += abs(a_j) * dist
    # ||u_n - v_n|| <= gamma * sum|a_j| by the triangle inequality
    if drift > gamma * l1 + 1e-15:
        raise ConstructionError("fresh-neighbor drift exceeded the gamma bound")
    return EigenExpansion(coeffs, family.take(picked)), picked


def _certify_expectation(terms, rng, trials) -> float:
    """Upper 99% confidence bound on E||Phi_n|| by Monte Carlo."""
    k = len(terms)
    coeffs, f = terms.coeffs[None, :], _factor(terms.terms.vectors)
    norms = np.empty(trials)

    # one product per block of trials: every block has at least two rows,
    # so BLAS rounds each row as it would in one product for all trials
    def block(start, stop, chi, scratch):
        np.sqrt(_quad_form(np.multiply(chi, coeffs, out=chi), f), out=norms[start:stop])

    _phase_rows(rng, trials, k, block)
    return float(np.mean(norms) + _UCB_Z * np.std(norms, ddof=1) / np.sqrt(trials))


def _check_block_invariants(state: ConstructionState, block: Block, picked) -> None:
    # angles within the block are distinct: EigenFamily enforces it
    if set(state.used).intersection(picked):
        raise ConstructionError("block angles must avoid all earlier blocks")
    if not block.expected_norm_bound < block.budget:
        raise ConstructionError("certified expectation bound above the budget")


class BlockCertificate(_Value):
    __slots__ = (
        "index",
        "expected_norm_bound",
        "budget",
        "visit_rate",
        "visit_floor",
        "visit_stderr",
    )


class ConstructionReport(_Value):
    __slots__ = ("certificates", "total_norm_estimate", "total_norm_budget")

    def all_passed(self) -> bool:
        return all(
            c.expected_norm_bound < c.budget
            and c.visit_rate >= c.visit_floor - 3 * c.visit_stderr
            for c in self.certificates
        )


def run_construction(
    op: OperatorSpec,
    family: EigenFamily,
    targets,
    n_steps: int,
    rng: np.random.Generator,
    trials: int = 2000,
    cert_samples: int = 200,
    p_max: int = 10**6,
):
    """Build n_steps blocks, sample one realization of the full series and
    certify every block's expectation bound and visit frequency.

    Returns (state, sampled expansion, report).  The sampled expansion
    carries the Steinhaus phases folded into its coefficients, so operator
    powers act on the eigenvalues only.
    """
    targets = list(targets)
    if n_steps < 0 or len(targets) < n_steps:
        raise ValueError("need one target per construction step")
    state = ConstructionState(op=op, family=family)
    for n in range(n_steps):
        build_block(state, targets[n], rng, trials=trials, p_max=p_max)

    terms = state.all_terms()
    for b in state.blocks:
        if (work := cert_samples * len(b.return_times) * len(terms)) > _MAX_VISIT_TERMS:
            raise ConstructionError(
                f"block {b.index}: the visit certificate would test {work} terms "
                f"(cert_samples x return times x terms), more than {_MAX_VISIT_TERMS}"
            )
    chi = sample_steinhaus(rng, len(terms))
    # Python complex products: numpy's vectorised complex multiply rounds
    # differently, and these coefficients fix every later visit time
    phi = EigenExpansion(
        [x * c for x, c in zip(chi.tolist(), terms.coeffs.tolist())], terms.terms
    )

    # with no terms, the factor is 0 x 0 and every norm is 0
    k = len(terms)
    f = _factor(terms.terms.vectors)
    omega = sample_steinhaus(rng, cert_samples * k).reshape(cert_samples, k)
    weights = omega * terms.coeffs[None, :]
    total_norms = np.sqrt(_quad_form(weights, f))
    certificates = []
    for b in state.blocks:
        rate = _visit_rate(b, terms, weights, f)
        floor = 1.0 - (5.0 / 3.0) * 2.0 ** (-b.index)
        se = math.sqrt(max(rate * (1 - rate), 1e-12) / cert_samples)
        certificates.append(
            BlockCertificate(
                b.index, b.expected_norm_bound, b.budget, rate, floor, se
            )
        )
    report = ConstructionReport(
        certificates=tuple(certificates),
        total_norm_estimate=float(np.mean(total_norms)),
        total_norm_budget=sum(4.0**-n for n in range(1, n_steps + 1)),
    )
    return state, phi, report


def _visit_rate(block: Block, terms: EigenExpansion, weights, f) -> float:
    """Fraction of sampled realizations for which some p in the block's
    return-time set carries T**p Phi - Phi into the inflated target."""
    lam_pow = _unit_phases(np.outer(block.return_times.times, terms.terms.thetas)) - 1.0
    tol = block.radius + 2.0 ** (-(block.index - 1))
    ball = [_ball(terms.terms.vectors, block.center.entries, tol * tol)]
    # every (sample, return time) pair of a block of samples at once, a
    # sample being P rows of k terms, each block adding its own integer
    # count; lam_pow (P x k) stays the left factor, because numpy's complex
    # multiply rounds a*b and b*a differently on a third of inputs
    hits = []

    def count(start, stop):
        w = lam_pow[None, :, :] * weights[start:stop, None, :]
        (mask,) = _inside(w.reshape(-1, w.shape[-1]), f, ball)
        hits.append(int(np.count_nonzero(mask.reshape(w.shape[:2]).any(axis=1))))

    _blocks(weights.shape[0], lam_pow.size, count, len(lam_pow))
    return sum(hits) / weights.shape[0]

