"""The block kernel ``_kernels._blocks``, the Steinhaus batch kernel
``steinhaus._phase_rows`` built on it, and the sites that share their work
out through them.

Each site is compared, on one core and on three, with a single-threaded
reference expression kept here: the blocks must give the same bits
whatever the number of threads that computes them, and whatever the
element budget ``_kernels._BLOCK`` that cuts them.
"""

import _thread
import importlib
import json
import re
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest

from hyperlab import _kernels, construction, density
from hyperlab._kernels import _BLOCK, _blocks, _factor, _quad_form
from hyperlab.cli import run_experiment, validate_config
from hyperlab.construction import ConstructionTarget, run_construction
from hyperlab.density import _STEP, TargetBall, _scan
from hyperlab.diophantine import ReturnTimeSet
from hyperlab.eigenfields import EigenExpansion, _field_2B, sample_2B_family
from hyperlab.ergodicity import CorrelationSpec, correlation_monte_carlo
from hyperlab.linspace import StateVector
from hyperlab.operators import apply, make_perturbed_diagonal, make_scaled_backward_shift
from hyperlab.steinhaus import (
    InvarianceReport,
    MCReport,
    _phase_rows,
    invariance_gap,
    khinchine_report,
    sample_steinhaus,
)

CORES = [1, 3]
ROOT = Path(__file__).resolve().parents[1]


def _same_bits(a, b) -> bool:
    """Equal shapes and equal bit patterns (so -0.0 differs from 0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    bits = [np.ascontiguousarray(x).view(np.uint8) for x in (a, b)]
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(*bits)


@pytest.fixture()
def started(monkeypatch):
    """The id of the calling thread of each _thread.start_new_thread call
    during the test."""
    calls = []
    real_start = _thread.start_new_thread
    monkeypatch.setattr(
        _thread,
        "start_new_thread",
        lambda fn, args: calls.append(threading.get_ident()) or real_start(fn, args),
    )
    return calls


def _use_cores(monkeypatch, cores: int) -> None:
    monkeypatch.setattr(_kernels, "_cores", lambda: cores)


# ---------------------------------------------------------------- kernel


# a budget of 8 elements: two units of width 4 per block, and one of
# width 7, which the one-row rule raises to two or three
@pytest.mark.parametrize("cores", [1, 2, 3, 5])
@pytest.mark.parametrize("n, width", [(0, 4), (1, 4), (3, 4), (4, 4), (5, 4), (31, 4), (1000, 7)])
def test_blocks_visit_every_index_exactly_once(monkeypatch, started, cores, n, width):
    _use_cores(monkeypatch, cores)
    monkeypatch.setattr(_kernels, "_BLOCK", 8)
    budget = max(1, 8 // width)
    calls, seen = [], np.zeros(n, dtype=int)

    def fn(start, stop):
        calls.append((start, stop))
        seen[start:stop] += 1

    _blocks(n, width, fn)
    assert np.all(seen == 1)
    lengths = [stop - start for start, stop in sorted(calls)] or [0]
    assert max(lengths) - min(lengths) <= 1
    # at most the budget, unless that leaves a block of one row
    assert max(lengths) <= budget or (budget < 3 and max(lengths) <= 3)
    assert min(lengths) >= 2 or n < 2
    # the calling thread takes blocks too, so one core starts no thread
    assert len(started) == max(min(cores, len(calls)) - 1, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_blocks_of_units_of_many_rows_may_hold_one_unit(monkeypatch, n):
    # a unit of 4 rows and 9 elements against a budget of 16
    monkeypatch.setattr(_kernels, "_BLOCK", 16)
    calls = []
    _blocks(n, 9, lambda start, stop: calls.append((start, stop)), 4)
    assert sorted(calls) == [(i, i + 1) for i in range(n)]


@pytest.mark.parametrize("on_helper", [True, False])
def test_blocks_reraise_an_error_on_the_calling_thread(monkeypatch, on_helper):
    _use_cores(monkeypatch, 2)
    done = []

    def fn(start, stop):
        helper = threading.current_thread() is not threading.main_thread()
        if helper == on_helper:
            raise FloatingPointError(f"block {start} failed")
        # leaves the helper time to take a block, even on one core
        time.sleep(0.01)
        done.append(start)

    # four blocks of two rows
    monkeypatch.setattr(_kernels, "_BLOCK", 2)
    with pytest.raises(FloatingPointError, match="failed"):
        _blocks(8, 1, fn)
    if on_helper:
        assert done, "the calling thread worked too"


def test_blocks_wait_for_a_slow_helper(monkeypatch):
    _use_cores(monkeypatch, 2)
    out, helped = np.zeros(16), []

    def fn(start, stop):
        if threading.current_thread() is not threading.main_thread():
            helped.append(start)
            time.sleep(0.05)
        else:
            # leaves the helper time to take a block, even on one core
            time.sleep(0.01)
        out[start:stop] = 1.0

    # eight blocks of two rows
    monkeypatch.setattr(_kernels, "_BLOCK", 2)
    _blocks(out.size, 1, fn)
    # copied at once: a block still being written when the call returns
    # would be missing from the copy
    got = out.copy()
    assert helped and np.all(got == 1.0)


# ------------------------------------------------------- Monte Carlo norms


def _certify_reference(terms, rng, trials) -> float:
    chi = sample_steinhaus(rng, trials * len(terms)).reshape(trials, len(terms))
    norms = np.linalg.norm((chi * terms.coeffs[None, :]) @ terms.terms.vectors.T, axis=1)
    return float(np.mean(norms) + construction._UCB_Z * np.std(norms, ddof=1) / np.sqrt(trials))


@pytest.fixture(scope="module")
def family64():
    return sample_2B_family(2.0, 64, 64)


def _certify_terms(family, k: int, seed: int) -> EigenExpansion:
    coeffs = np.random.default_rng(seed).normal(size=(k, 2)) @ [1, 1j]
    return EigenExpansion(coeffs, family.take(slice(k, 2 * k)))


@pytest.mark.parametrize("cores", CORES)
@pytest.mark.parametrize("k", [1, 3, 30])
@pytest.mark.parametrize("trials", [2, 1023, 1024, 1025, 20001])
def test_certify_expectation_matches_the_single_product(monkeypatch, family64, cores, k, trials):
    # the norms come through the norm factor, the reference's in C^d, so
    # the two agree to rounding, not bit for bit
    _use_cores(monkeypatch, cores)
    seed = 1000 * trials + 10 * k + cores
    terms = _certify_terms(family64, k, seed)
    got = construction._certify_expectation(terms, np.random.default_rng(seed), trials)
    expected = _certify_reference(terms, np.random.default_rng(seed), trials)
    assert abs(got - expected) <= 1e-13 * abs(expected)


@pytest.mark.parametrize("k", [1, 3, 30, 100])
@pytest.mark.parametrize("trials", [2, 1023, 1024, 1025, 20001])
def test_certify_expectation_does_not_depend_on_the_cores(monkeypatch, family256, k, trials):
    terms = _certify_terms(family256, k, 1000 * trials + k)
    got = []
    for cores in CORES:
        _use_cores(monkeypatch, cores)
        got.append(construction._certify_expectation(terms, np.random.default_rng(k), trials))
    assert _same_bits(*got)


# ------------------------------------------------------------- visit scan


def _orbit_chunk(x, ns) -> np.ndarray:
    """T**n x for each n of ns, one row each, taken directly in C^d."""
    w = np.exp(2j * np.pi * np.outer(ns, x.terms.thetas)) * x.coeffs[None, :]
    return w @ x.terms.vectors.T


def _scan_reference(x, targets, N) -> list:
    hits = [[] for _ in targets]
    for start in range(0, N, _BLOCK):
        ns = np.arange(start, min(start + _BLOCK, N))
        orbit = _orbit_chunk(x, ns)
        for found, t in zip(hits, targets):
            found.append(ns[np.linalg.norm(orbit - t.center.entries, axis=1) < t.radius])
    return [np.concatenate(found) for found in hits]


def _midpoint_balls(x, N: int, count: int, rng) -> list:
    """Balls around points of the orbit of x that it visits at about 90%,
    50% and 10% of the powers below N.  Each squared radius lies midway
    between two neighbouring squared distances of the orbit, so no orbit
    point sits within rounding of a sphere."""
    balls = []
    orbit = _orbit_chunk(x, np.arange(N))
    for i, share in enumerate((0.9, 0.5, 0.1)[:count]):
        c = x.power(7 * i).entries + 0.05 * rng.normal(size=orbit.shape[1])
        dist = np.linalg.norm(orbit - c, axis=1) ** 2
        near = np.sort(dist)[int(share * (N - 1)) :][:2]
        balls.append(TargetBall(StateVector(c), float(np.sqrt(near.mean()))))
    return balls


def _orbit_and_balls(seed: int, N: int, count: int):
    """A three-term orbit in C^32 and its balls of :func:`_midpoint_balls`."""
    fam = sample_2B_family(2.0, 32, 40)
    rng = np.random.default_rng(seed)
    x = EigenExpansion(rng.normal(size=(3, 2)) @ [1, 1j], fam.take([4, 17, 31]))
    return x, _midpoint_balls(x, N, count, rng)


# a three-term scan block holds 10 * _STEP powers
@pytest.mark.parametrize("cores", CORES)
@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize(
    "N",
    [
        _BLOCK - 1,
        _BLOCK + 1,
        2 * _BLOCK + 1,
        3 * _STEP + 1,
        _BLOCK + _STEP - 1,
        10 * _STEP - 1,
        10 * _STEP + 1,
    ],
)
def test_scan_matches_the_chunk_loop(monkeypatch, started, cores, count, N):
    x, balls = _orbit_and_balls(N + count, N, count)
    _use_cores(monkeypatch, cores)
    records = _scan(x, balls, N)
    expected = _scan_reference(x, balls, N)
    assert len(records) == count
    for rec, times in zip(records, expected):
        assert np.array_equal(rec.times, times)
    assert 0 < expected[0].size < N
    # one helper per extra core and block of 10 groups of _STEP powers (a
    # lone last power joins the last group), and none for a block's phases
    groups = max(1, -(-(N - 1) // _STEP))
    assert len(started) == min(cores, -(-groups // 10)) - 1


@pytest.mark.parametrize("cores", CORES)
def test_scan_matches_the_chunk_loop_at_1024_terms(monkeypatch, cores):
    # three blocks of _STEP powers, the last with one more
    N, k = 3 * _STEP + 1, 1024
    rng = np.random.default_rng(k)
    x = EigenExpansion(rng.normal(size=(k, 2)) @ [1, 1j] / np.sqrt(k), sample_2B_family(2.0, 64, k))
    balls = _midpoint_balls(x, N, 3, rng)
    _use_cores(monkeypatch, cores)
    for rec, times in zip(_scan(x, balls, N), _scan_reference(x, balls, N)):
        assert np.array_equal(rec.times, times)
        assert 0 < times.size < N


def _record_blocks(monkeypatch, module) -> list:
    """The (start, stop, width, rows) of every block that ``module`` hands
    to _blocks."""
    seen = []

    def recorded(n, width, fn, rows=1):
        def block(start, stop):
            seen.append((start, stop, width, rows))
            fn(start, stop)

        _blocks(n, width, block, rows)

    monkeypatch.setattr(module, "_blocks", recorded)
    return seen


@pytest.mark.parametrize(
    "k, N", [(1, 2 * _BLOCK + 1), (3, 2 * _BLOCK + 1), (64, 5 * _STEP), (1024, 3 * _STEP + 1)]
)
def test_scan_blocks_hold_at_most_a_chunk_of_terms(monkeypatch, family256, k, N):
    fam = family256 if k <= 256 else sample_2B_family(2.0, 64, k)
    x = EigenExpansion(np.full(k, 1 / k), fam.take(slice(k)))
    seen, made, rows_of = _record_blocks(monkeypatch, density), [], density._coefficient_rows

    def recorded_rows(x, table, start, stop):
        w = rows_of(x, table, start, stop)
        made.append((w.shape, w.base is None))
        return w

    monkeypatch.setattr(density, "_coefficient_rows", recorded_rows)
    # ||T**n x|| <= 1, so every power visits
    (rec,) = _scan(x, [TargetBall(StateVector(np.zeros(64)), 2.0)], N)
    assert np.array_equal(rec.times, np.arange(N))
    seen.sort()
    # the units are whole _STEP rows of the phase table, k * _STEP terms
    # each, so the anchors stay at absolute multiples of _STEP; the last
    # takes the powers left, never one power alone
    groups = seen[-1][1]
    assert len(seen) > 1 and seen[0][0] == 0 and 2 <= N - (groups - 1) * _STEP <= _STEP + 1
    assert all(a[1] == b[0] for a, b in zip(seen, seen[1:]))
    for start, stop, width, rows in seen:
        assert (width, rows) == (_STEP * k, _STEP)
        assert (stop - start) * width <= max(_BLOCK, width)
        # from k = 32 on a block is one unit, so its memory does not double
        assert k < 32 or stop - start == 1
    # each block's rows are an array of their own, not a view of a larger
    # product, so a last group of _STEP + 1 powers makes no 2 * _STEP rows
    assert sum(shape[0] for shape, _ in made) == N
    assert all(shape[1] == k and own for shape, own in made)


# ------------------------------------------------------------ cross term


@pytest.mark.parametrize("cores", CORES)
@pytest.mark.parametrize("N", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * 10**5])
def test_cross_terms_match_the_one_array_formula(monkeypatch, cores, N):
    _use_cores(monkeypatch, cores)
    ns = np.arange(N)
    for k in (1, 2, 5, 8):
        rng = np.random.default_rng(k)
        c, d = rng.normal(size=(2, k, 2)) @ [1, 1j]
        spec = CorrelationSpec(c, d, rng.random(k))
        weights = np.asarray(spec.c) * np.conj(spec.d)
        expected = np.abs(np.exp(2j * np.pi * np.outer(ns, spec.angles)) @ weights) ** 2
        assert _same_bits(spec.cross_terms(ns), expected)


# ---------------------------------------------------- visit certificate


def _with(block, **changes):
    """A copy of ``block`` with ``changes``, made by the Block constructor
    from its slots."""
    fields = {name: getattr(block, name) for name in construction.Block.__slots__}
    return construction.Block(**{**fields, **changes})


def _closest_sq_per_sample(block, terms, weights, f):
    """Reference: one distance evaluation per sampled realization, giving
    its smallest squared distance to the block's center over the return
    times."""
    p = np.array(block.return_times.times)
    lam_pow = np.exp(2j * np.pi * np.outer(p, terms.terms.thetas)) - 1.0
    c = block.center.entries
    h = terms.terms.vectors.conj().T @ c
    c_sq = float(np.real(np.vdot(c, c)))
    closest = []
    for w in weights:
        v = lam_pow * w[None, :]
        closest.append((_quad_form(v, f) - 2.0 * (v @ h.conj()).real + c_sq).min())
    return np.array(closest)


@pytest.fixture(scope="module")
def built_construction():
    op = make_scaled_backward_shift(2.0, 32)
    fam = sample_2B_family(2.0, 32, 256)
    targets = [ConstructionTarget(((0.5, 3),), 0.5, 1), ConstructionTarget(((0.4, 11),), 0.5, 1)]
    state, _, _ = run_construction(op, fam, targets, 2, np.random.default_rng(5), cert_samples=50)
    terms = state.all_terms()
    mat = terms.terms.vectors
    k = len(terms)
    omega = sample_steinhaus(np.random.default_rng(6), 301 * k).reshape(301, k)
    return state, terms, omega * terms.coeffs[None, :], _factor(mat)


@pytest.mark.parametrize("cores", CORES)
@pytest.mark.parametrize("samples_per_block", [1, 7, None])
def test_visit_rate_matches_the_sample_loop(
    monkeypatch, built_construction, cores, samples_per_block
):
    state, terms, weights, f = built_construction
    _use_cores(monkeypatch, cores)
    for b in state.blocks:
        if samples_per_block is not None:
            size = samples_per_block * len(b.return_times.times) * len(terms)
            monkeypatch.setattr(_kernels, "_BLOCK", size)
        # every sample visits the construction's own balls; a ball whose
        # radius is the median closest approach is visited by about half,
        # so a sample moved between blocks changes the rate
        closest = _closest_sq_per_sample(b, terms, weights, f)
        probe = _with(b, radius=float(np.sqrt(np.median(closest))), index=60)
        for block in (b, probe):
            tol = block.radius + 2.0 ** (-(block.index - 1))
            expected = np.count_nonzero(closest < tol * tol) / weights.shape[0]
            assert construction._visit_rate(block, terms, weights, f) == expected
        assert 0 < expected < 1


def _visit_block(family, k: int, P: int, samples: int):
    """A block of k terms over ``family`` with the return times 1..P, the
    weights of ``samples`` sampled realizations and the norm factor; the
    block's radius is the median closest approach, so about half the
    samples visit."""
    rng = np.random.default_rng(1000 * k + P)
    terms = EigenExpansion(rng.normal(size=(k, 2)) @ [1, 1j] / np.sqrt(k), family.take(slice(k)))
    weights = sample_steinhaus(rng, samples * k).reshape(samples, k) * terms.coeffs[None, :]
    f = _factor(terms.terms.vectors)
    block = construction.Block(
        index=60,
        terms=terms,
        center=terms.power(1),
        radius=1.0,
        reach_power=1,
        return_times=ReturnTimeSet(range(1, P + 1)),
        expected_norm_bound=0.0,
        budget=1.0,
    )
    closest = _closest_sq_per_sample(block, terms, weights, f)
    block = _with(block, radius=float(np.sqrt(np.median(closest))))
    return block, terms, weights, f


# (k, return times, samples): two blocks of 2048 and 2049 samples; blocks
# of 250 and of 15 or 16 samples; one sample per block
_VISIT_CASES = [(1, 8, 4097), (1, 100, 1000), (100, 20, 301), (100, 400, 7)]


@pytest.mark.parametrize("k, P, samples", _VISIT_CASES)
def test_visit_rate_blocks_hold_at_most_a_chunk_of_terms(monkeypatch, family256, k, P, samples):
    block, terms, weights, f = _visit_block(family256, k, P, samples)
    seen = _record_blocks(monkeypatch, construction)
    construction._visit_rate(block, terms, weights, f)
    assert sorted(seen)[-1][1] == samples and len(seen) > 1
    for start, stop, width, rows in seen:
        assert (width, rows) == (P * k, P)
        assert (stop - start) * width <= max(_BLOCK, width)


@pytest.mark.parametrize("k, P, samples", _VISIT_CASES)
def test_visit_rate_does_not_depend_on_the_cores(monkeypatch, family256, k, P, samples):
    block, terms, weights, f = _visit_block(family256, k, P, samples)
    rates = []
    for cores in CORES:
        _use_cores(monkeypatch, cores)
        rates.append(construction._visit_rate(block, terms, weights, f))
    assert _same_bits(*rates)
    assert 0 < rates[0] < 1


# ------------------------------------------------------------ 2B field


def _field_reference(thetas, w, d):
    """The field built whole as k x d, normalized by numpy's row norms."""
    lam = np.exp(2j * np.pi * np.asarray(thetas, dtype=float))
    rows = (lam[:, None] / w) ** np.arange(d)
    scales = np.linalg.norm(rows, axis=1)
    return (rows / scales[:, None]).T, (1.0 / w) ** (d - 1) / scales


# a block holds 512 columns at d = 64 and 252 at d = 130: fields of four
# full blocks, of one column fewer and one more, and of 64 blocks
@pytest.mark.parametrize("cores", CORES)
@pytest.mark.parametrize(
    "k, d", [(2047, 64), (2048, 64), (2049, 64), (2**15, 64), (2049, 130)]
)
def test_field_2B_matches_the_whole_field(monkeypatch, cores, k, d):
    thetas = np.random.default_rng(k + d).random(k)
    _use_cores(monkeypatch, cores)
    vectors, residuals = _field_2B(thetas, 2.0, d)
    ref_vectors, ref_residuals = _field_reference(thetas, 2.0, d)
    assert _same_bits(vectors, ref_vectors)
    assert _same_bits(residuals, ref_residuals)
    assert not vectors.flags.writeable


# ------------------------------------------------------ Steinhaus batches


def _batch_rows(k: int, width: int) -> int:
    """Rows of a full block of a trials x k batch with width scratch
    elements per row."""
    return max(1, _kernels._BLOCK // (k + width))


def _rng(seed: int, buffered: bool) -> np.random.Generator:
    """A generator, with half of a 32-bit draw buffered when asked."""
    rng = np.random.default_rng(seed)
    if buffered:
        rng.integers(0, 2**32, dtype=np.uint32)
    return rng


def _assert_same_stream(got: np.random.Generator, ref: np.random.Generator) -> None:
    for _ in range(2):
        assert got.integers(0, 2**32, dtype=np.uint32) == ref.integers(0, 2**32, dtype=np.uint32)
        assert got.random() == ref.random()


@pytest.mark.parametrize("cores", CORES)
@pytest.mark.parametrize("k, width", [(1, 0), (3, 2), (30, 128), (100, 1)])
@pytest.mark.parametrize("trials", [0, 1, 2, 3, 5, 17, 40])
@pytest.mark.parametrize("buffered", [False, True])
def test_phase_rows_hand_on_every_row_of_the_one_draw(
    monkeypatch, cores, k, width, trials, buffered
):
    _use_cores(monkeypatch, cores)
    # a few dozen elements per block, so that small batches split
    monkeypatch.setattr(_kernels, "_BLOCK", 24)
    seed = 100 * trials + k
    expected = sample_steinhaus(_rng(seed, buffered), trials * k).reshape(trials, k)
    got, seen = np.empty_like(expected), np.zeros(trials, dtype=int)

    def fn(start, stop, chi, scratch):
        assert chi.shape == (stop - start, k)
        assert scratch.shape == ((stop - start) * width,) and scratch.dtype == complex
        # never one row, which BLAS would round on another path, unless
        # the batch has one row; never far above the element bound
        assert stop - start >= min(2, trials)
        assert (stop - start) * (k + width) <= max(24, 3 * (k + width))
        got[start:stop] = chi
        seen[start:stop] += 1
        # both buffers are the block function's to overwrite
        chi[:] = scratch[:] = np.nan

    rng, ref = _rng(seed, buffered), _rng(seed, buffered)
    _phase_rows(rng, trials, k, fn, width)
    assert np.all(seen == 1)
    assert _same_bits(got, expected)
    ref.random(trials * k)
    _assert_same_stream(rng, ref)


def test_phase_rows_refuse_a_generator_that_is_not_pcg64():
    rng = np.random.Generator(np.random.MT19937(1))
    with pytest.raises(TypeError, match="MT19937"):
        _phase_rows(rng, 10, 3, lambda start, stop, chi, scratch: None)


def _khinchine_reference(coeffs, trials, rng) -> MCReport:
    coeffs = np.asarray(coeffs, dtype=complex)
    coeffs = coeffs / max(np.abs(coeffs.real).max(), np.abs(coeffs.imag).max())
    l2 = float(np.linalg.norm(coeffs))
    chi = sample_steinhaus(rng, trials * coeffs.size).reshape(trials, coeffs.size)
    sums = np.abs(chi @ coeffs) / l2
    return MCReport(
        estimate=float(np.mean(sums)),
        stderr=float(np.std(sums, ddof=1) / np.sqrt(trials)),
        trials=trials,
    )


def _series_batch_reference(series, rng, trials) -> np.ndarray:
    k = len(series)
    chi = sample_steinhaus(rng, trials * k).reshape(trials, k)
    return (chi * series.coeffs[None, :]) @ series.terms.vectors.T


def _invariance_reference(op, series, trials, probes, rng) -> InvarianceReport:
    batch_a = _series_batch_reference(series, rng, trials)
    tb = apply(op, _series_batch_reference(series, rng, trials))
    rows = []
    max_gap = 0.0
    for idx, f in enumerate(probes):
        fa = np.abs(batch_a @ np.conj(f))
        fb = np.abs(tb @ np.conj(f))
        for order in (1, 2):
            xa, xb = fa**order, fb**order
            gap = abs(float(np.mean(xa) - np.mean(xb)))
            se = float(np.sqrt(np.var(xa, ddof=1) / trials + np.var(xb, ddof=1) / trials))
            rows.append((idx, order, gap, se))
            max_gap = max(max_gap, gap)
    return InvarianceReport(tuple(rows), max_gap)


def _correlation_reference(series, xstar, ystar, n, trials, rng) -> MCReport:
    coeffs = series.coeffs
    k = len(series)
    c = np.conj(xstar) @ series.terms.vectors
    d = np.conj(ystar) @ series.terms.vectors
    chi = sample_steinhaus(rng, trials * k).reshape(trials, k)
    lam_n = np.exp(2j * np.pi * n * series.terms.thetas)
    a = np.abs(chi @ (lam_n * coeffs * c)) ** 2
    b = np.abs(chi @ (coeffs * d)) ** 2
    vals = a * b
    return MCReport(
        estimate=float(np.mean(vals)),
        stderr=float(np.std(vals, ddof=1) / np.sqrt(trials)),
        trials=trials,
    )


@pytest.fixture(scope="module")
def family256():
    return sample_2B_family(2.0, 64, 256)


def _series(family, k: int, seed: int) -> EigenExpansion:
    coeffs = np.random.default_rng(seed).normal(size=(k, 2)) @ [1, 1j]
    return EigenExpansion(coeffs, family.take(slice(k, 2 * k)))


def _operators(d: int):
    angles = np.random.default_rng(d).random(d)
    return [make_scaled_backward_shift(2.0, d), make_perturbed_diagonal(angles, 0.3, d)]


# each site with the scratch width it asks for per row of a batch
_SITES = {
    "khinchine": 0,
    "certify": 0,
    "correlation": 0,
    "invariance shift": 64,
    "invariance diagonal": 64,
}


def _site(name: str, family, k: int, trials: int, seed: int):
    """The named site and its one-shot reference, each a function of a
    generator, for one trials x k batch over a 64-dimensional family."""
    series = _series(family, k, seed)
    probes = np.eye(3, 64, dtype=complex) + 0.5j * np.eye(3, 64, 5)
    f0, f1 = np.eye(64)[0], np.eye(64)[1] + 0.25j
    if name == "khinchine":
        return (
            lambda rng: khinchine_report(series.coeffs, trials, rng),
            lambda rng: _khinchine_reference(series.coeffs, trials, rng),
        )
    if name == "certify":
        return (
            lambda rng: construction._certify_expectation(series, rng, trials),
            lambda rng: _certify_reference(series, rng, trials),
        )
    if name == "correlation":
        return (
            lambda rng: correlation_monte_carlo(series, f0, f1, 7, trials, rng),
            lambda rng: _correlation_reference(series, f0, f1, 7, trials, rng),
        )
    if name == "invariance shift":
        op = make_scaled_backward_shift(2.0, 64)
    else:
        op = make_perturbed_diagonal(np.random.default_rng(64).random(64), 0.3, 64)
    return (
        lambda rng: invariance_gap(op, series, trials, probes, rng),
        lambda rng: _invariance_reference(op, series, trials, probes, rng),
    )


def _fields(value) -> np.ndarray:
    if isinstance(value, InvarianceReport):
        return np.array([*np.ravel(value.rows), value.max_gap])
    if isinstance(value, MCReport):
        return np.array([value.estimate, value.stderr, value.trials])
    return np.array([value])


@pytest.mark.parametrize("cores", CORES)
@pytest.mark.parametrize("k", [1, 3, 30, 100])
@pytest.mark.parametrize("tail", [0, 1, 2])
@pytest.mark.parametrize("name", _SITES)
def test_steinhaus_sites_match_the_one_shot_batch(monkeypatch, family256, cores, k, tail, name):
    # at least two full blocks and the 1000 trials khinchine_report needs,
    # then a tail of 0, 1 or 2 rows
    rows = _batch_rows(k, _SITES[name])
    trials = max(2, -(-1000 // rows)) * rows + tail
    _use_cores(monkeypatch, cores)
    seed = 1000 * k + 10 * tail + cores
    run, reference = _site(name, family256, k, trials, seed)
    for buffered in (False, True):
        got_rng, ref_rng = _rng(seed, buffered), _rng(seed, buffered)
        got, expected = _fields(run(got_rng)), _fields(reference(ref_rng))
        if name == "certify":
            # norms through the norm factor against norms in C^d
            assert np.all(np.abs(got - expected) <= 1e-13 * np.abs(expected))
        else:
            assert np.array_equal(got, expected)
        _assert_same_stream(got_rng, ref_rng)


@pytest.mark.parametrize("name", _SITES)
def test_steinhaus_sites_refuse_a_generator_that_is_not_pcg64(family256, name):
    run, _ = _site(name, family256, 3, 1000, 0)
    with pytest.raises(TypeError, match="MT19937"):
        run(np.random.Generator(np.random.MT19937(1)))


# --------------------------------------------------- helper-thread purity

_LAYERS = (
    "linspace",
    "operators",
    "eigenfields",
    "steinhaus",
    "diophantine",
    "ergodicity",
    "construction",
    "cantor",
    "density",
    "cli",
)


def _record_public_calls(monkeypatch) -> list:
    """Wrap every public function of the layer modules, every public method
    and property of their classes and every record's __post_init__, as a
    span tracer does, and return the list of (name, thread id) each call
    appends to.  A public call on a helper thread would start a span with
    no parent there."""
    calls = []
    modules = [importlib.import_module(f"hyperlab.{layer}") for layer in _LAYERS]

    def wrap(name, fn):
        def recorded(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return fn(*args, **kwargs)

        return recorded

    replaced = {}
    for layer, mod in zip(_LAYERS, modules):
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, types.FunctionType):
                replaced[obj] = wrap(f"{layer}.{attr}", obj)
            elif isinstance(obj, type):
                for member_name, member in list(vars(obj).items()):
                    if member_name.startswith("_") and member_name != "__post_init__":
                        continue
                    name = f"{layer}.{obj.__name__}.{member_name}"
                    if isinstance(member, types.FunctionType):
                        monkeypatch.setattr(obj, member_name, wrap(name, member))
                    elif isinstance(member, property) and member.fget is not None:
                        new = property(wrap(name, member.fget), member.fset, member.fdel)
                        monkeypatch.setattr(obj, member_name, new)
                    elif isinstance(member, (classmethod, staticmethod)):
                        new = type(member)(wrap(name, member.__func__))
                        monkeypatch.setattr(obj, member_name, new)
    for mod in modules + [importlib.import_module("hyperlab")]:
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in replaced:
                monkeypatch.setattr(mod, attr, replaced[obj])
    return calls


@pytest.mark.parametrize("name", [*_SITES, "cross term"])
def test_steinhaus_sites_call_public_functions_on_the_calling_thread_only(
    monkeypatch, started, family256, name
):
    # built before the wrapping, so that only the site's own calls count
    if name == "cross term":
        f0, f1 = np.eye(64)[0], np.eye(64)[1] + 0.25j
        spec = CorrelationSpec.from_probes(_series(family256, 30, 9), f0, f1)

        def run(rng):
            return spec.cross_terms(np.arange(2 * _BLOCK + 1))

    else:
        run, _ = _site(name, family256, 30, 20001, 9)
    calls = _record_public_calls(monkeypatch)
    _use_cores(monkeypatch, 3)
    run(np.random.default_rng(9))
    assert started, "the batch went through helper threads"
    assert not {n for n, thread in calls if thread != threading.get_ident()}


def _readme_config() -> dict:
    text = (ROOT / "README.md").read_text()
    return json.loads(re.search(r"```json\n(.*?)```", text, re.S).group(1))


@pytest.mark.parametrize("config", ["README", "cantor-field", "orbit", "monte-carlo"])
def test_runs_start_threads_from_the_calling_thread_only(
    monkeypatch, started, tmp_path, config
):
    if config == "README":
        raw = _readme_config()
    else:
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        raw = importlib.import_module("workloads").WORKLOADS[config](1, small=True)
    if config == "orbit":
        # a visit scan of more than two chunks; the small config's own
        # blocks all fit in one chunk or one Steinhaus batch
        raw["pipelines"]["density"]["horizon"] = 2 * _BLOCK + 1
    cfg, errors = validate_config(json.dumps(raw))
    assert not errors, errors
    _use_cores(monkeypatch, 3)
    assert run_experiment(cfg, tmp_path) == 0
    # a thread started inside a block would show another caller; the small
    # cantor-field seed fits in one field block and starts none
    assert set(started) <= {threading.get_ident()}
    assert started or config == "cantor-field"


@pytest.mark.parametrize("config", ["orbit", "monte-carlo"])
def test_runs_write_the_same_bytes_under_a_small_block_budget(monkeypatch, tmp_path, config):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    raw = importlib.import_module("workloads").WORKLOADS[config](1, small=True)
    cfg, errors = validate_config(json.dumps(raw))
    assert not errors, errors
    written = []
    for budget in (_BLOCK, 2**8):
        monkeypatch.setattr(_kernels, "_BLOCK", budget)
        out = tmp_path / str(budget)
        assert run_experiment(cfg, out) == 0
        written.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert len(written[0]) > 1 and written[0] == written[1]
