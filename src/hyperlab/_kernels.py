"""Thread, phase, chord, time-set and column-geometry kernels, and the
records' base classes.  :func:`_blocks` is the only place a thread starts; a
kernel calls it only from its top, on the calling thread, so helpers never
nest and public calls stay there."""

from __future__ import annotations

import _thread
import os
import threading

import numpy as np

# elements (units times the width of a unit) per block of every kernel
_BLOCK = 1 << 15


def _cores() -> int:
    """Cores this process may run on: its CPU affinity where the platform
    reports one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cuts(n: int, width: int, rows: int = 1) -> list:
    """The blocks (start, stop) of [0, n), in order, for units of
    ``width`` elements and ``rows`` rows each: near-equal blocks of at most
    _BLOCK // width units, one at least, and of two rows at least unless
    [0, n) holds fewer, because numpy hands a one-row operand to a
    matrix-vector routine that rounds differently from the product of a
    longer block."""
    count = -(-n // max(1, _BLOCK // max(1, width)))
    # -(-2 // rows) units make two rows
    count = min(count, max(1, n // -(-2 // rows)))
    return [(i * n // count, (i + 1) * n // count) for i in range(count)]


def _blocks(n: int, width: int, fn, rows: int = 1) -> None:
    """Call fn(start, stop) once for each block of :func:`_cuts`, sharing
    the blocks among one thread per core the process may run on (the
    calling thread included).  The cut does not depend on the thread count.

    A block is handed to whichever thread asks next, so ``fn`` must write
    each block's result to its own place and call only numpy and private
    functions, none of which calls :func:`_blocks`; numpy releases the
    interpreter lock inside its loops.  The call returns once every block
    is done and re-raises the first error of any thread on the calling
    thread.
    """
    cuts = _cuts(n, width, rows)
    pending, lock, errors = iter(cuts), threading.Lock(), []

    def work(done=None):
        try:
            while True:
                with lock:
                    cut = next(pending, None)
                if cut is None:
                    return
                fn(*cut)
        except Exception as exc:  # re-raised on the calling thread
            errors.append(exc)
        finally:
            if done is not None:
                done.release()

    running = []
    for _ in range(min(_cores(), len(cuts)) - 1):
        done = threading.Lock()
        done.acquire()
        # threading.Thread.start would wait until the helper runs (a median
        # 0.6 ms, at times 6 ms, on a busy 2-core host); this returns at
        # once, so the calling thread computes while the helper starts
        _thread.start_new_thread(work, (done,))
        running.append(done)
    try:
        work()
    finally:
        for done in running:
            done.acquire()
    if errors:
        raise errors[0]


def _unit_phases(t, out=None) -> np.ndarray:
    """exp(2*pi*i*t) for a float array t, equal bit for bit to
    ``np.exp(2j * np.pi * t)``, written into ``out`` (a complex array of
    t's shape, made when not given): the same multiply, by the same
    scalar, then exp in place, so no second complex array is made."""
    t = np.asarray(t, dtype=float)
    if out is None:
        out = np.empty(t.shape, dtype=complex)
    np.multiply(2j * np.pi, t, out=out)
    return np.exp(out, out=out)


def chord_to(frac: np.ndarray, target_frac) -> np.ndarray:
    """|exp(2*pi*i*x) - exp(2*pi*i*y)| = 2 |sin(pi (x - y))| for the
    fraction arrays x and y, which broadcast: each step writes over the
    array of x - y, so no temporary is made."""
    chord = np.subtract(frac, target_frac)
    np.multiply(np.pi, chord, out=chord)
    np.abs(np.sin(chord, out=chord), out=chord)
    return np.multiply(2.0, chord, out=chord)


def _distinct(values) -> np.ndarray:
    """The distinct entries of ``values``, a new read-only int64 array in
    ascending order, from one sort (np.unique took 80 times as long)."""
    times = np.sort(np.asarray(values, dtype=np.int64), axis=None)
    times = times[np.diff(times, prepend=times[:1] - 1) != 0]
    times.flags.writeable = False
    return times


def _distances(mat, cand, parents) -> np.ndarray:
    """||mat[:, cand[i]] - mat[:, parents[i]]|| for each i, bit for bit
    np.linalg.norm(a - b, axis=0) of the row-major gathers a and b, a block
    of :func:`_cuts` at a time in two buffers of the largest block, so that
    no d x candidates temporary is made."""
    d, cuts = mat.shape[0], _cuts(cand.size, mat.shape[0])
    size = d * max((stop - start for start, stop in cuts), default=0)
    bufs = np.empty(size, complex), np.empty(size, complex)
    dists = np.empty(cand.size)
    for start, stop in cuts:
        a, b = (buf[: d * (stop - start)].reshape(d, stop - start) for buf in bufs)
        # the indices are valid, and mode="raise" would gather into a temporary
        np.take(mat, cand[start:stop], axis=1, out=a, mode="clip")
        np.take(mat, parents[start:stop], axis=1, out=b, mode="clip")
        np.subtract(a, b, out=a)
        np.multiply(np.conjugate(a, out=b), a, out=b)
        np.sqrt(np.add.reduce(b.real, axis=0), out=dists[start:stop])
    return dists


def _gap_distances(delta, weight: float, d: int) -> np.ndarray:
    """||E(t + D) - E(t)|| for each angle gap D of ``delta``, where E(t) is
    the unit column of the truncated field of weight * B at dimension d,
    sum_{n<d} (exp(2 pi i t) / weight)**n e_n over its norm: the distance
    depends on the gap alone, so no column is made.

    With q = weight**-2, x = pi D, s_m = sin(m x) and z = exp(2 i x), the
    square is 4 sum_{n<d} q**n s_n**2 / sum_{n<d} q**n, whose closed form is
    (2 q Re[(1 - z) (1 - (q z)**(d-1)) / (1 - q z)] - 4 q**d s_{d-1}**2)
    / (1 - q**d), each factor written without cancellation.  The two terms
    of the numerator cancel to a relative error of about 1e-16 over
    (d (1 - q))**2, so where d (1 - q) < 1 the sum of its nonnegative terms
    is taken instead, a block of :func:`_cuts` of d terms at a time.  Both
    stay within 1e-14 relative of an 80-bit direct sum for
    1 + 1e-6 <= weight <= 4 and d <= 1024, and d = 1 gives exactly 0.
    """
    # the gap mod 1, exactly: sin(pi D) loses digits near D = +-1
    x = np.asarray(delta, dtype=float)
    x = np.pi * (x - np.rint(x))
    q = weight**-2.0
    # 1 - q, with weight - 1 exact
    p = (weight - 1.0) * (weight + 1.0) / (weight * weight)
    if d * p < 1.0:
        n, out = np.arange(d), np.empty(x.size)
        qn = q**n
        for start, stop in _cuts(x.size, d):
            terms = np.sin(np.multiply.outer(x[start:stop], n))
            np.multiply(np.square(terms, out=terms), qn, out=terms)
            np.add.reduce(terms, axis=1, out=out[start:stop])
        return np.sqrt(4.0 * out / qn.sum())
    # log q, so that q**m and 1 - q**m keep their digits as q nears 1
    log_q = -2.0 * np.log1p(weight - 1.0)
    q_last = np.exp((d - 1) * log_q)
    x_last = (d - 1) * x
    s, s_last = np.sin(x), np.sin(x_last)
    # 1 - z = u + iv, 1 - (qz)**(d-1) = a + ib and 1 - qz = g + ih
    u, v = 2.0 * s * s, -np.sin(2.0 * x)
    a = 2.0 * q_last * s_last * s_last - np.expm1((d - 1) * log_q)
    b = -q_last * np.sin(2.0 * x_last)
    g, h = p + q * u, q * v
    re = ((u * a - v * b) * g + (u * b + v * a) * h) / (g * g + h * h)
    sq = (2.0 * q * re - 4.0 * np.exp(d * log_q) * s_last * s_last) / -np.expm1(d * log_q)
    return np.sqrt(sq)


def _factor(vectors) -> np.ndarray:
    """The k x min(k, d) norm factor F of the d x k term matrix X whose
    columns are ``vectors``, with ||X w|| = ||w F|| for every coefficient
    row w: X^T itself when k >= d, else R^T from X = QR.  A row's norm then
    costs min(k, d) * k multiplies, never k**2 or d * k."""
    d, k = vectors.shape
    return vectors.T if k >= d else np.linalg.qr(vectors, mode="r").T


def _quad_form(w, f) -> np.ndarray:
    """||X w||**2 for every row w of the coefficient array, from the norm
    factor f of :func:`_factor`: the BLAS product y = w f and a real dot
    product of y's interleaved real and imaginary parts with themselves,
    so no conjugate copy or complex result is made."""
    y = np.ascontiguousarray(w, dtype=complex) @ f
    return np.einsum("ni,ni->n", y.view(float), y.view(float))


def _ball(vectors, center, r_sq: float) -> tuple:
    """(X* c, ||c||**2, r**2) of the ball with center c and squared radius
    r_sq, for the term matrix X whose columns are ``vectors``: what
    :func:`_inside` needs of a ball."""
    return vectors.conj().T @ center, float(np.real(np.vdot(center, center))), r_sq


def _inside(w, f, balls) -> list:
    """For each ball of :func:`_ball`, the mask of the rows w of the
    coefficient array with ||X w - c|| < r, from the norm factor f of
    :func:`_factor`: ||w f||**2 - 2 Re(w . conj(X* c)) + ||c||**2 < r**2.
    The quadratic term is computed once for all the balls."""
    quad = _quad_form(w, f)
    return [quad - 2.0 * (w @ h.conj()).real + c_sq < r_sq for h, c_sq, r_sq in balls]


class _Record:
    """Base of the lab's records.  A record's fields are its class's
    ``__slots__``, and the one ``__init__`` takes them in that order, by
    position or by name, so defining a record generates no code.  It sets
    them through :meth:`_fill` and then calls the class's
    ``__post_init__``, where a record that checks or converts its fields
    does so; a tracer that wraps ``__post_init__`` on the class
    (``perfbench/tracer.py``) sees every checked record that is built.  A
    record compares and hashes by identity unless its class says
    otherwise."""

    __slots__ = ()

    def __init__(self, *values, **named):
        slots = self.__slots__
        if named:
            values += tuple(named.pop(name) for name in slots[len(values) :] if name in named)
        if named or len(values) != len(slots):
            unknown = f" and the unknown or repeated names {', '.join(named)}" if named else ""
            raise TypeError(
                f"{type(self).__name__} takes the fields {', '.join(slots)}, by position"
                f" or by name, not {len(values)} values{unknown}"
            )
        self._fill(*values)
        post = getattr(type(self), "__post_init__", None)
        if post is not None:
            post(self)

    def _fill(self, *values) -> None:
        """Set the fields, in ``__slots__`` order, to ``values``."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"


class _Frozen(_Record):
    """A record whose fields are set once, by its ``__init__``; assigning
    or deleting a field afterwards raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a read-only {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a read-only {type(self).__name__}")


class _Value(_Frozen):
    """A frozen record that compares and hashes by its fields."""

    __slots__ = ()

    def __eq__(self, other):
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._fields())
