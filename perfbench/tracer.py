"""Span tracing of hyperlab, installed from outside the package.

Every public function of the ten layer modules, every public method and
property of their classes, and every dataclass ``__post_init__`` (the
validation a value pays when it is built) is replaced by a wrapper that
records one span: name, start, end, parent span and thread.  Names a module
imported from another (``construction.covering_scan``) are rebound too, so
a call is traced whichever module it goes through.  One private function
is traced as well: ``construction._certify_expectation``, the Monte Carlo
bound that ``build_block`` recomputes on every tightening retry, so that
the construction's draw count includes the retries.

The density harness starts its scans on a thread pool.  The pool class is
swapped for one that hands each task the span that submitted it and the
time it was queued, so worker spans link to their ``fhc_harness`` parent
and their start lag measures the wait for a worker.

Spans stay in memory until :meth:`Recorder.dump`.  Counts that the layer
metrics need (pairs built, powers scanned, Monte Carlo draws, ...) are
computed by hooks from the arguments and results of the traced calls,
never read from inside the package.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
import types
import uuid
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

LAYERS = (
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


class Recorder:
    """In-memory span store shared by every thread of one traced run."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        # each span is [name, start, end, parent span or None, thread id,
        # queued time or None]; list.append is atomic under the GIL
        self.spans = []
        self.counts = defaultdict(float)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.origin = (None, None)
        return stack

    def wrap(self, name, fn, hook=None):
        spans, clock = self.spans, time.perf_counter
        signature = inspect.signature(fn) if hook else None

        def traced(*args, **kwargs):
            stack = self._stack()
            parent, queued = (stack[-1], None) if stack else self._local.origin
            rec = [name, 0.0, 0.0, parent, threading.get_ident(), queued]
            spans.append(rec)
            stack.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self.counts, bound.arguments, result)
            return result

        return functools.update_wrapper(traced, fn)

    def linked_pool(self):
        """ThreadPoolExecutor whose tasks inherit the submitting span."""
        recorder = self

        class LinkedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = recorder._stack()
                origin = (stack[-1] if stack else None, time.perf_counter())

                def task():
                    recorder._stack()
                    recorder._local.origin = origin
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        recorder._local.origin = (None, None)

                return super().submit(task)

        return LinkedPool

    def dump(self, path) -> None:
        """Write every span, with parents as indices, and the counts."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        names = sorted({rec[0] for rec in self.spans})
        name_idx = {n: i for i, n in enumerate(names)}
        threads = {}
        for rec in self.spans:
            threads.setdefault(rec[4], len(threads))
        np.savez(
            path,
            run_id=np.array(self.run_id),
            names=np.array(names, dtype=str),
            name=np.array([name_idx[r[0]] for r in self.spans], dtype=np.int32),
            start=np.array([r[1] for r in self.spans], dtype=float),
            end=np.array([r[2] for r in self.spans], dtype=float),
            parent=np.array(
                [-1 if r[3] is None else index[id(r[3])] for r in self.spans],
                dtype=np.int64,
            ),
            thread=np.array([threads[r[4]] for r in self.spans], dtype=np.int32),
            queued=np.array(
                [np.nan if r[5] is None else r[5] for r in self.spans], dtype=float
            ),
            counts=np.array(json.dumps(self.counts, sort_keys=True)),
        )


def install(recorder: Recorder) -> None:
    """Replace the public callables of every layer module with traced ones."""
    modules = [importlib.import_module(f"hyperlab.{layer}") for layer in LAYERS]
    replaced = {}
    for layer, mod in zip(LAYERS, modules):
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, types.FunctionType):
                name = f"{layer}.{attr}"
                replaced[obj] = recorder.wrap(name, obj, HOOKS.get(name))
            elif isinstance(obj, type):
                _wrap_class(recorder, layer, obj)
    for mod in modules + [importlib.import_module("hyperlab")]:
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in replaced:
                setattr(mod, attr, replaced[obj])
    construction = importlib.import_module("hyperlab.construction")
    construction._certify_expectation = recorder.wrap(
        "construction._certify_expectation",
        construction._certify_expectation,
        _certify_draws,
    )
    importlib.import_module("hyperlab.density").ThreadPoolExecutor = (
        recorder.linked_pool()
    )


def _wrap_class(recorder: Recorder, layer: str, cls: type) -> None:
    for attr, member in list(vars(cls).items()):
        if attr == "__post_init__":
            name = f"{layer}.{cls.__name__}"
        elif attr.startswith("_"):
            continue
        else:
            name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(member, types.FunctionType):
            new = recorder.wrap(name, member)
        elif isinstance(member, property) and member.fget is not None:
            new = property(recorder.wrap(name, member.fget), member.fset, member.fdel)
        elif isinstance(member, classmethod):
            new = classmethod(recorder.wrap(name, member.__func__))
        elif isinstance(member, staticmethod):
            new = staticmethod(recorder.wrap(name, member.__func__))
        else:
            continue
        setattr(cls, attr, new)


# --- computed counts: each hook gets (counts, bound arguments, result) ---


def _pairs(counts, args, family):
    counts["eigenfields.pairs"] += len(family)


def _khinchine_draws(counts, args, report):
    counts["steinhaus.draws"] += args["trials"] * np.asarray(args["coeffs"]).size


def _batch_draws(counts, args, batch):
    counts["steinhaus.draws"] += args["trials"] * len(args["series"])


def _single_draws(counts, args, chi):
    counts["steinhaus.draws"] += args["n"]


def _solve_powers(counts, args, p):
    counts["diophantine.powers_scanned"] += args["p_max"] if p is None else p


def _syndetic_powers(counts, args, result):
    counts["diophantine.powers_scanned"] += args["horizon"]


def _covering(counts, args, net):
    counts["diophantine.powers_scanned"] += int(net.cell_to_p.max())
    counts["diophantine.cells"] += net.cell_to_p.size


def _certify_draws(counts, args, bound):
    counts["construction.mc_draws"] += args["trials"] * len(args["terms"])


def _construction(counts, args, result):
    state, _, _ = result
    terms = sum(len(b.terms) for b in state.blocks)
    # one phase per term for the sampled series, cert_samples per term for
    # the visit certificates
    counts["construction.mc_draws"] += terms * (1 + args["cert_samples"])
    counts["construction.blocks"] += len(state.blocks)
    # a ball around a center no larger than its radius holds the origin,
    # so an orbit that is merely small "visits" it
    counts["construction.trivial_blocks"] += sum(
        float(np.linalg.norm(b.center.entries)) <= b.radius for b in state.blocks
    )


def _visit_steps(counts, args, record):
    counts["density.term_steps"] += args["N"] * len(args["x"].terms) ** 2


def _fhc(counts, args, report):
    counts["density.visits"] += sum(len(r.times) for r in report.records)
    counts["density.visit_slots"] += args["N"] * len(report.records)


def _cantor_nodes(counts, args, field):
    counts["cantor.nodes"] += len(field.nodes)


def _cantor_verify(counts, args, report):
    leaves = 2 ** args["field"].depth
    splits = leaves - 1
    counts["cantor.prefix_scans"] += 2 * splits * leaves
    counts["cantor.splits"] += splits
    counts["cantor.delta_respected"] += round(report.delta_respected_fraction * splits)


HOOKS = {
    "eigenfields.sample_2B_family": _pairs,
    "eigenfields.diagonal_family": _pairs,
    "steinhaus.khinchine_report": _khinchine_draws,
    "steinhaus.sample_series_batch": _batch_draws,
    "steinhaus.sample_steinhaus": _single_draws,
    "diophantine.solve_simultaneous": _solve_powers,
    "diophantine.syndetic_return_set": _syndetic_powers,
    "diophantine.covering_scan": _covering,
    "construction.run_construction": _construction,
    "density.visit_times": _visit_steps,
    "density.fhc_harness": _fhc,
    "cantor.build_cantor_field": _cantor_nodes,
    "cantor.verify_cantor_separation": _cantor_verify,
}
