"""In-memory span tracer that times solab's layers from outside.

The tracer replaces names in solab's modules with timing wrappers; the source
is not changed.  Modules that bind a function with ``from ... import`` keep
their own reference, so every binding that the audited pipeline calls through
is patched (``verify.horizontal_gradient``, ``cli.make_cutoff``,
``solver.regularized_energy_density``, ...), with one shared wrapper per
function.  Each span records name, start, end, parent span, thread and run id;
spans stay in memory until the pass ends.  The stack of open spans is
thread-local, and jobs handed to the audit thread pool start with the pool
section's span as their parent.

Self time: a span's duration minus the spans nested in it on the same thread.
On the main thread the self times sum to the traced wall time of the pass;
pool jobs run beside the main thread and are reported as busy time.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (id, name, start, end, parent, thread, run_id)
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple] = []

    # ------------------------------------------------------------------ spans

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else getattr(self._local, "adopted", None)
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((sid, name, start, end, parent, threading.get_ident(), self.run_id))

    def count(self, key: str, n: int = 1):
        with self._lock:
            self.counts[key] += n

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def adopt(self, fn, parent: int):
        """Run ``fn`` in another thread with ``parent`` as the parent of its top spans."""
        @functools.wraps(fn)
        def adopted(*args, **kwargs):
            self._local.adopted = parent
            try:
                return fn(*args, **kwargs)
            finally:
                self._local.adopted = None
        return adopted

    # ---------------------------------------------------------------- patching

    def replace(self, module, attr: str, value):
        """Set ``module.attr`` to ``value`` until ``restore``."""
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def patch(self, bindings, name: str, wrapper=None):
        """Point every (module, attr) binding of one function at a single traced wrapper."""
        original = getattr(*bindings[0])
        for module, attr in bindings[1:]:
            if getattr(module, attr) is not original:
                raise RuntimeError(f"{module.__name__}.{attr} is not {name}: bindings diverged")
        traced = wrapper(original) if wrapper is not None else self.wrap(original, name)
        for module, attr in bindings:
            self.replace(module, attr, traced)

    def restore(self):
        while self._undo:
            module, attr, value = self._undo.pop()
            setattr(module, attr, value)


def install_solab(tracer: Tracer):
    """Patch the audit pipeline's layers: solver, operator, orlicz, verify, grid and cli."""
    from solab import cli, grid, operator, orlicz, solver, verify

    for fn in ("integrate", "ball_node_mask", "horizontal_gradient", "horizontal_hessian"):
        tracer.patch([(grid, fn), (verify, fn)], f"grid.{fn}")
    for fn in ("make_cutoff", "refine_values"):
        tracer.patch([(grid, fn), (cli, fn)], f"grid.{fn}")

    tracer.patch([(solver, "solve_dirichlet")], "solver.solve")
    tracer.patch([(solver, "cell_gradient")], "solver.cell_gradient")
    tracer.patch([(solver, "cell_gradient_adjoint")], "solver.cell_gradient_adjoint")

    def closure_factory(name, closure_name):
        def wrapper(factory):
            @functools.wraps(factory)
            def traced(*args, **kwargs):
                with tracer.span(name):
                    return tracer.wrap(factory(*args, **kwargs), closure_name)
            return traced
        return wrapper

    tracer.patch([(operator, "regularized_energy_density"), (solver, "regularized_energy_density")],
                 "operator.regularized_energy_density",
                 closure_factory("operator.regularized_energy_density", "operator.G_eps"))
    tracer.patch([(operator, "regularized_weight"), (solver, "regularized_weight"),
                  (verify, "regularized_weight")],
                 "operator.regularized_weight",
                 closure_factory("operator.regularized_weight", "operator.F_eps"))

    for fn in ("solution_fields", "lipschitz_ratio", "moser_trace", "caccioppoli_T_audit",
               "caccioppoli_X_audit", "reverse_audit", "horizontal_estimate_audit",
               "vertical_estimate_audit"):
        tracer.patch([(verify, fn)], f"verify.{fn}")

    install_orlicz(tracer, orlicz)

    class TracedPool(ThreadPoolExecutor):
        """The audit pool: one main-thread span over the section, jobs adopt it as parent."""

        def map(self, fn, *iterables, **kwargs):
            with tracer.span("verify.audits") as sid:
                results = list(super().map(tracer.adopt(fn, sid), *iterables, **kwargs))
            return iter(results)

    tracer.replace(cli, "ThreadPoolExecutor", TracedPool)


def install_orlicz(tracer: Tracer, orlicz):
    """Patch G/H lookups, the lazy table build and the conjugation calls of solab.orlicz."""
    triple = orlicz.OrliczTriple
    tracer.replace(triple, "G", tracer.wrap(triple.G, "orlicz.G"))
    tracer.replace(triple, "H", tracer.wrap(triple.H, "orlicz.H"))
    # no public call builds the lazy G/H tables, so the private table class is timed
    table = orlicz._LogCumTable
    tracer.replace(table, "__init__", tracer.wrap(table.__init__, "orlicz.table_build"))
    for fn in ("conjugate", "conjugate_young", "young_gap"):
        tracer.patch([(orlicz, fn)], f"orlicz.{fn}")


def counting_structure_function(tracer: Tracer, g):
    """Copy of a structure function whose evaluations add their point count to orlicz.psi_points."""
    inner = g.eval

    def counted(t):
        tracer.count("orlicz.psi_points", int(np.size(t)))
        return inner(t)

    return dataclasses.replace(g, eval=counted)


# ------------------------------------------------------------------ analysis


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the durations of its same-thread children."""
    by_id = {s[0]: s for s in spans}
    out = {s[0]: s[3] - s[2] for s in spans}
    for sid, _, start, end, parent, thread, _ in spans:
        if parent is not None and parent in by_id and by_id[parent][5] == thread:
            out[parent] -= end - start
    return out


def outermost(spans, name: str):
    """Spans of ``name`` that are not nested in another span of the same name."""
    by_id = {s[0]: s for s in spans}
    result = []
    for s in spans:
        if s[1] != name:
            continue
        p = s[4]
        while p is not None and by_id[p][1] != name:
            p = by_id[p][4]
        if p is None:
            result.append(s)
    return result


def inclusive(spans, name: str) -> float:
    return sum(s[3] - s[2] for s in outermost(spans, name))


def self_by_name(spans, selfs) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s[1]] += selfs[s[0]]
    return out


def main_thread_check(spans, root_id: int, selfs) -> float:
    """Relative gap between the root's duration and the main-thread self times under it."""
    root = next(s for s in spans if s[0] == root_id)
    thread = root[5]
    total = sum(selfs[s[0]] for s in spans if s[5] == thread)
    dur = root[3] - root[2]
    return abs(total - dur) / dur
