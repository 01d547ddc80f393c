"""The benchmark's call surface, checked on each workload's smallest solves.

``perfbench/`` drives egbp through its public functions, wraps the
``egbp.solver`` globals named in ``spans.WRAPPED``, subclasses
``SpdFactor(A, name)`` and compares every solve with the fingerprints in
``perfbench/reference.json``.  One traced pass of each workload, on its
meshes up to the first level it solves on (level 1 at least), must pass
the benchmark's own gate.  No result file is written.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import egbp.solver

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """perfbench/<name>.py as the module ``name``, as run.py imports it."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / (name + ".py"))
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.mark.parametrize("name", ["smooth", "layer", "tol_sweep"])
def test_traced_pass_passes_the_benchmark_gate(name):
    spans, workloads = _load("spans"), _load("workloads")
    reference = json.loads((PERFBENCH / "reference.json").read_text())["solves"]
    wl = workloads.WORKLOADS[name]
    wl = wl.limited(max(1, wl.solve_levels[0]))
    saved = {fn: getattr(egbp.solver, fn) for fn in (*spans.WRAPPED, "SpdFactor")}
    tracer = spans.Tracer(1)
    with spans.installed(tracer, egbp.solver):
        records = workloads.run_pass(wl, (7, 1), tracer).records
    assert {fn: getattr(egbp.solver, fn) for fn in saved} == saved
    assert len(records) == len(wl.solve_levels) * len(wl.tolerances) * (2 if wl.comparator else 1)
    for rec in records:
        assert workloads.gate(rec, reference) == ([], []), rec["key"]
    # every wrapped function the pass reaches ran under its span
    reached = {"patch_extremes", "apply_P", "inner_richardson", "outer_constant_solve", "nonlinear_residual"}
    if wl.comparator:
        reached.add("solve_standard_eg")
        # the comparator factors A11 and A00 through SpdFactor, and no monolithic matrix
        for factor in ("factor:A11", "factor:A00"):
            assert tracer.total(factor, parent="solve_standard_eg") > 0.0
    assert all(tracer.calls(fn) > 0 for fn in reached)
    assert tracer.calls("factor:monolithic EG system") == 0
    assert tracer.counts["factor_count"] >= 2 * len(records) and tracer.counts["lu_fill_nnz"] > 0
