"""The row-block kernel ``eigenfields._blocks`` and the sites that share
their work out through it.

Each site is compared, on one core and on three, with the single-threaded
expression it replaced, kept here as the reference: the blocks must give
the same bits whatever the number of threads that computes them.
"""

import _thread
import dataclasses
import threading
import time

import numpy as np
import pytest

from hyperlab import construction, eigenfields
from hyperlab.construction import ConstructionTarget, run_construction
from hyperlab.density import TargetBall, _CHUNK, _ball_dist_sq, _quad_form, _scan
from hyperlab.eigenfields import (
    EigenExpansion,
    _FIELD_COLUMNS,
    _blocks,
    _field_2B,
    _squared_norms,
    sample_2B_family,
)
from hyperlab.linspace import StateVector
from hyperlab.operators import make_scaled_backward_shift
from hyperlab.steinhaus import sample_steinhaus

CORES = [1, 3]


def _same_bits(a, b) -> bool:
    """Equal shapes and equal bit patterns (so -0.0 differs from 0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    bits = [np.ascontiguousarray(x).view(np.uint8) for x in (a, b)]
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(*bits)


@pytest.fixture()
def started(monkeypatch):
    """Functions handed to _thread.start_new_thread during the test."""
    calls = []
    real_start = _thread.start_new_thread
    monkeypatch.setattr(
        _thread, "start_new_thread", lambda fn, args: calls.append(fn) or real_start(fn, args)
    )
    return calls


def _use_cores(monkeypatch, cores: int) -> None:
    monkeypatch.setattr(eigenfields, "_cores", lambda: cores)


# ---------------------------------------------------------------- kernel


@pytest.mark.parametrize("cores", [1, 2, 3, 5])
@pytest.mark.parametrize("n, size", [(0, 4), (1, 4), (3, 4), (4, 4), (5, 4), (31, 4), (1000, 7)])
def test_blocks_visit_every_index_exactly_once(monkeypatch, started, cores, n, size):
    _use_cores(monkeypatch, cores)
    calls, seen = [], np.zeros(n, dtype=int)

    def fn(start, stop):
        calls.append((start, stop))
        seen[start:stop] += 1

    _blocks(n, size, fn)
    assert np.all(seen == 1)
    assert sorted(calls) == [(a, min(a + size, n)) for a in range(0, n, size)]
    # the calling thread takes blocks too, so one core starts no thread
    assert len(started) == max(min(cores, len(calls)) - 1, 0)


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

    _blocks(out.size, 1, fn)
    # copied at once: a block still being written when the call returns
    # would be missing from the copy
    got = out.copy()
    assert helped and np.all(got == 1.0)


def test_blocks_inside_a_block_run_inline(monkeypatch, started):
    _use_cores(monkeypatch, 3)
    inner = []

    def fn(start, stop):
        t = np.random.default_rng(start).random(2 * eigenfields._INLINE)
        assert _same_bits(eigenfields._unit_phases(t), np.exp(2j * np.pi * t))
        _blocks(5, 1, lambda a, b: inner.append(threading.get_ident()))

    _blocks(4, 1, fn)
    # only the outer call starts helpers; each nested call stays on its thread
    assert len(started) == 2
    assert len(inner) == 20


# ------------------------------------------------------- Monte Carlo norms


def _certify_reference(terms, rng, trials) -> float:
    chi = sample_steinhaus(rng, trials * len(terms)).reshape(trials, len(terms))
    norms = np.linalg.norm((chi * terms.coeffs[None, :]) @ terms.terms.vectors.T, axis=1)
    return float(np.mean(norms) + construction._UCB_Z * np.std(norms, ddof=1) / np.sqrt(trials))


@pytest.fixture(scope="module")
def family64():
    return sample_2B_family(2.0, 64, 64)


@pytest.mark.parametrize("cores", CORES)
@pytest.mark.parametrize("k", [1, 3, 30])
@pytest.mark.parametrize("trials", [2, 1023, 1024, 1025, 20001])
def test_certify_expectation_matches_the_single_product(monkeypatch, family64, cores, k, trials):
    _use_cores(monkeypatch, cores)
    seed = 1000 * trials + 10 * k + cores
    coeffs = np.random.default_rng(seed).normal(size=(k, 2)) @ [1, 1j]
    terms = EigenExpansion(coeffs, family64.take(slice(k, 2 * k)))
    got = construction._certify_expectation(terms, np.random.default_rng(seed), trials)
    assert np.array_equal(got, _certify_reference(terms, np.random.default_rng(seed), trials))


# ------------------------------------------------------------- visit scan


def _scan_reference(x, targets, N) -> list:
    mat = x.terms.vectors
    gram = mat.conj().T @ mat
    hits = [[] for _ in targets]
    for start in range(0, N, _CHUNK):
        ns = np.arange(start, min(start + _CHUNK, N))
        w = np.exp(2j * np.pi * np.outer(ns, x.terms.thetas)) * x.coeffs[None, :]
        quad = _quad_form(w, gram)
        for found, t in zip(hits, targets):
            c = t.center.entries
            h = mat.conj().T @ c
            c_sq = float(np.real(np.vdot(c, c)))
            found.append(ns[_ball_dist_sq(w, gram, h, c_sq, quad) < t.radius**2])
    return [np.concatenate(found) for found in hits]


def _orbit_and_balls(seed: int, N: int, count: int):
    """A three-term orbit and balls around points of it that the orbit
    visits at about 90%, 50% and 10% of the powers below N."""
    fam = sample_2B_family(2.0, 32, 40)
    rng = np.random.default_rng(seed)
    x = EigenExpansion(rng.normal(size=(3, 2)) @ [1, 1j], fam.take([4, 17, 31]))
    balls = []
    for i, share in enumerate((0.9, 0.5, 0.1)[:count]):
        c = x.power(7 * i).entries + 0.05 * rng.normal(size=32)
        h = x.terms.vectors.conj().T @ c
        ns = np.arange(N)
        w = np.exp(2j * np.pi * np.outer(ns, x.terms.thetas)) * x.coeffs[None, :]
        gram = x.terms.vectors.conj().T @ x.terms.vectors
        dist = _ball_dist_sq(w, gram, h, float(np.vdot(c, c).real))
        balls.append(TargetBall(StateVector(c), float(np.sqrt(np.quantile(dist, share)))))
    return x, balls


@pytest.mark.parametrize("cores", CORES)
@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("N", [_CHUNK - 1, _CHUNK + 1, 2 * _CHUNK + 1])
def test_scan_matches_the_chunk_loop(monkeypatch, started, cores, count, N):
    x, balls = _orbit_and_balls(N + count, N, count)
    _use_cores(monkeypatch, cores)
    records = _scan(x, balls, N)
    expected = _scan_reference(x, balls, N)
    assert len(records) == count
    for rec, times in zip(records, expected):
        assert np.array_equal(rec.times, times)
    assert 0 < expected[0].size < N
    # one helper per extra core and chunk; each chunk's phases run inline
    assert len(started) == min(cores, -(-N // _CHUNK)) - 1


# ---------------------------------------------------- visit certificate


def _visit_rate_reference(block, terms, weights, gram) -> float:
    p_arr = np.array(block.return_times.times)
    lam_pow = np.exp(2j * np.pi * np.outer(p_arr, terms.terms.thetas)) - 1.0
    c = block.center.entries
    h = terms.terms.vectors.conj().T @ c
    c_sq = float(np.real(np.vdot(c, c)))
    tol = block.radius + 2.0 ** (-(block.index - 1))
    step = max(1, construction._CHUNK // len(p_arr))
    hits = 0
    for start in range(0, weights.shape[0], step):
        w = lam_pow[None, :, :] * weights[start : start + step, None, :]
        dist = _ball_dist_sq(w.reshape(-1, w.shape[-1]), gram, h, c_sq)
        hits += int(np.count_nonzero((dist < tol * tol).reshape(w.shape[:2]).any(axis=1)))
    return hits / weights.shape[0]


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
    return state, terms, omega * terms.coeffs[None, :], mat.conj().T @ mat


@pytest.mark.parametrize("cores", CORES)
@pytest.mark.parametrize("samples_per_block", [1, 7, None])
def test_visit_rate_matches_the_sample_loop(
    monkeypatch, built_construction, cores, samples_per_block
):
    state, terms, weights, gram = built_construction
    _use_cores(monkeypatch, cores)
    for b in state.blocks:
        if samples_per_block is not None:
            rows = samples_per_block * len(b.return_times.times)
            monkeypatch.setattr(construction, "_CHUNK", rows)
        # a radius near the median closest approach: about half the
        # samples visit, so a sample moved between blocks changes the rate
        p = np.array(b.return_times.times)
        lam_pow = np.exp(2j * np.pi * np.outer(p, terms.terms.thetas)) - 1.0
        c = b.center.entries
        h = terms.terms.vectors.conj().T @ c
        c_sq = float(np.vdot(c, c).real)
        closest = [_ball_dist_sq(lam_pow * w[None, :], gram, h, c_sq).min() for w in weights]
        probe = dataclasses.replace(b, radius=float(np.sqrt(np.median(closest))), index=60)
        for block in (b, probe):
            expected = _visit_rate_reference(block, terms, weights, gram)
            assert construction._visit_rate(block, terms, weights, gram) == expected
        assert 0 < expected < 1


# ------------------------------------------------------------ 2B field


def _field_reference(thetas, w, d):
    lam = np.exp(2j * np.pi * np.asarray(thetas, dtype=float))
    vectors = (lam[None, :] / w) ** np.arange(d)[:, None]
    scales = np.sqrt(_squared_norms(vectors))
    vectors /= scales
    return vectors, (1.0 / w) ** (d - 1) / scales


@pytest.mark.parametrize("cores", CORES)
@pytest.mark.parametrize(
    "k, d",
    [(_FIELD_COLUMNS + e, 64) for e in (-1, 0, 1)] + [(2**15, 64), (_FIELD_COLUMNS + 1, 130)],
)
def test_field_2B_matches_the_whole_field(monkeypatch, cores, k, d):
    thetas = np.random.default_rng(k + d).random(k)
    _use_cores(monkeypatch, cores)
    vectors, residuals = _field_2B(thetas, 2.0, d)
    ref_vectors, ref_residuals = _field_reference(thetas, 2.0, d)
    assert _same_bits(vectors, ref_vectors)
    assert _same_bits(residuals, ref_residuals)
    assert not vectors.flags.writeable
