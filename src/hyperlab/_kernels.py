"""Thread and phase kernels.  :func:`_blocks` is the only place a thread
starts; a kernel calls it only from its top, on the calling thread, so
helpers never nest and every public call stays on the calling thread."""

from __future__ import annotations

import _thread
import os
import threading

import numpy as np

# terms (rows times the number of terms) per block of the visit scan and
# the visit certificate, and rows per block of the cross term
_CHUNK = 1 << 15


def _cores() -> int:
    """Cores this process may run on: its CPU affinity where the platform
    reports one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _blocks(n: int, size: int, fn) -> None:
    """Call fn(start, stop) once for each block [start, start + size) of
    [0, n), the last block cut at n, sharing the blocks among one thread
    per core the process may run on (the calling thread included).

    A block is handed to whichever thread asks next, so ``fn`` must write
    each block's result to its own place and call only numpy and private
    functions, none of which calls :func:`_blocks`; numpy releases the
    interpreter lock inside its loops.  The call returns once every block is done and
    re-raises the first error of any thread on the calling thread.
    """
    starts = range(0, n, size)
    pending, lock, errors = iter(starts), threading.Lock(), []

    def work(done=None):
        try:
            while True:
                with lock:
                    start = next(pending, None)
                if start is None:
                    return
                fn(start, min(start + size, n))
        except Exception as exc:  # re-raised on the calling thread
            errors.append(exc)
        finally:
            if done is not None:
                done.release()

    running = []
    for _ in range(min(_cores(), len(starts)) - 1):
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


def _row_blocks(n: int, rows: int, fn) -> None:
    """Call fn(start, stop) through :func:`_blocks` over blocks of [0, n)
    whose lengths differ by at most one, each at most ``rows`` long where
    that leaves two or more to a block.  No block has one row unless n is
    1, because numpy hands a one-row operand to a matrix-vector routine
    that rounds differently from the product of a longer block."""
    count = max(1, min(-(-n // rows), n // 2))
    _blocks(count, 1, lambda i, _: fn(i * n // count, (i + 1) * n // count))


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
