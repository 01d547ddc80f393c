"""In-memory span recorder, and wrappers that trace egbp from outside.

A span is one timed call at a layer boundary: name, layer, start, end,
the index of the span that caused it, and the id of the workload
repetition it belongs to.  Spans stay in memory; the caller writes them
out when the benchmark ends.

``installed`` replaces public functions of ``egbp.solver`` at the name
where the solver looks them up (module globals), so calls made inside
``solve_bound_preserving`` are traced without touching the library.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

# Functions looked up as globals of egbp.solver, with the layer they belong to.
WRAPPED = {
    "solve_standard_eg": "solver",
    "inner_richardson": "solver",
    "outer_constant_solve": "solver",
    "nonlinear_residual": "solver",
    "patch_extremes": "limiter",
    "apply_P": "limiter",
}

LAYERS = ("mesh", "fespace", "assembly", "solver", "limiter", "analysis", "bench")


class Tracer:
    """Spans and counters of one workload repetition."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, layer, start, end, parent]
        self.counts = Counter()
        self._stack = []

    @contextmanager
    def span(self, name, layer):
        idx = len(self.spans)
        rec = [name, layer, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def total(self, name, parent=None):
        """Summed duration of spans called ``name`` (optionally under a parent name)."""
        out = 0.0
        for sname, _, start, end, par in self.spans:
            if sname == name and (parent is None or (par >= 0 and self.spans[par][0] == parent)):
                out += end - start
        return out

    def calls(self, name):
        return sum(1 for s in self.spans if s[0] == name)

    def self_time_by_layer(self):
        """Per layer: span durations minus the time their child spans cover."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, par in self.spans:
            if par >= 0:
                child[par] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for (_, layer, start, end, _), c in zip(self.spans, child):
            out[layer] += (end - start) - c
        return out

    def as_records(self):
        return [
            {"name": n, "layer": l, "start": s, "end": e, "parent": p, "run": self.run_id}
            for n, l, s, e, p in self.spans
        ]


def _wrap(tracer, fn, name, layer):
    def traced(*args, **kwargs):
        with tracer.span(name, layer):
            result = fn(*args, **kwargs)
        if name == "inner_richardson":
            tracer.counts["inner_iters"] += result[1]
        return result

    traced.__wrapped__ = fn
    return traced


def _traced_factor(tracer, base):
    class TracedSpdFactor(base):
        def __init__(self, A, name="system"):
            with tracer.span("factor:" + name, "solver"):
                super().__init__(A, name=name)
            tracer.counts["factor_count"] += 1
            # SuperLU's own count of stored L and U entries; reading .L/.U would copy them.
            tracer.counts["lu_fill_nnz"] += int(self.lu.nnz)

        def solve(self, b, *args, **kwargs):
            tracer.counts["spd_solves"] += 1
            with tracer.span("spd_solve", "solver"):
                return super().solve(b, *args, **kwargs)

    return TracedSpdFactor


@contextmanager
def installed(tracer, solver_module):
    """Trace the solver's public functions for the duration of the block."""
    saved = {name: getattr(solver_module, name) for name in (*WRAPPED, "SpdFactor")}
    try:
        for name, layer in WRAPPED.items():
            setattr(solver_module, name, _wrap(tracer, saved[name], name, layer))
        solver_module.SpdFactor = _traced_factor(tracer, saved["SpdFactor"])
        yield tracer
    finally:
        for name, fn in saved.items():
            setattr(solver_module, name, fn)
