"""Thread, phase and chord kernels.  :func:`_blocks` is the only place a thread
starts; a kernel calls it only from its top, on the calling thread, so
helpers never nest and every public call stays on the calling thread."""

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
    """|exp(2*pi*i*x) - exp(2*pi*i*y)| = 2 |sin(pi (x - y))|."""
    return 2.0 * np.abs(np.sin(np.pi * (frac - target_frac)))
