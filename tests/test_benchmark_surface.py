"""The benchmark's call surface, checked on each workload's smallest solves.

``perfbench/`` drives egbp through its public functions, wraps the
``egbp.solver`` globals named in ``spans.WRAPPED``, subclasses
``SpdFactor(A, name)`` and compares every solve with the fingerprints in
``perfbench/reference.json``.  One traced pass of each workload, on its
meshes up to the first level it solves on (level 1 at least), must pass
the benchmark's own gate.  No result file is written.  The counts of one
benchmark solve are pinned, so that a change made for speed cannot alter
the iteration unnoticed.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import egbp.solver
from egbp.mesh import build_structured, refine_uniform

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """perfbench/<name>.py as the module ``name``, as run.py imports it."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / (name + ".py"))
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


# The A11 path of each bound-preserving solve on the meshes these passes
# reach, by element count: eps is 1e-5 (smooth) or 1e-7 (layer), so A11 is
# mass-dominated, and from 1,152 elements on Jacobi-CG is cheaper than a factor.
A11_PATH = {64: "factor", 256: "factor", 288: "factor", 1152: "jacobi", 4608: "jacobi"}


@pytest.mark.parametrize("name", ["smooth", "layer", "tol_sweep"])
def test_traced_pass_passes_the_benchmark_gate(monkeypatch, name):
    spans, workloads = _load("spans"), _load("workloads")
    reference = json.loads((PERFBENCH / "reference.json").read_text())["solves"]
    wl = workloads.WORKLOADS[name]
    wl = wl.limited(max(1, wl.solve_levels[0]))
    saved = {fn: getattr(egbp.solver, fn) for fn in (*spans.WRAPPED, "SpdFactor")}
    traces, solve_bp = [], egbp.solver.solve_bound_preserving

    def recording_solve_bp(*args):
        solution = solve_bp(*args)
        traces.append(solution.trace)
        return solution

    monkeypatch.setattr(egbp.solver, "solve_bound_preserving", recording_solve_bp)
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
    assert all(tracer.calls(fn) > 0 for fn in reached)

    def factored(kind, parent):
        # A factor span's parent span is the solve or the step that made it:
        # the comparator makes its factors one after another, so no factor
        # span opens inside another.
        return sum(1 for n, _, _, _, par in tracer.spans if n == "factor:" + kind and par >= 0 and tracer.spans[par][0] == parent)

    # A bound-preserving solve factors A00 unless an earlier solve on its
    # mesh did (tol_sweep solves its mesh three times) and, on the factor
    # path only, A11 once; Step 1 factors nothing, and the Jacobi path runs CG.
    bp_records = [rec for rec in records if rec["kind"] == "bp"]
    assert len(traces) == len(bp_records)
    for rec, trace in zip(bp_records, traces):
        assert trace.a11_path == A11_PATH[rec["elements"]], rec["key"]
        if trace.a11_path == "jacobi":
            assert sum(trace.cg_steps_per_outer) > 0
    meshes = [rec["elements"] for rec in bp_records]
    assert [trace.a00_reused for trace in traces] == [m in meshes[:i] for i, m in enumerate(meshes)]
    n_meshes, n_std = len(set(meshes)), len(records) - len(traces)
    assert n_meshes == len(wl.solve_levels)
    assert factored("A00", "solve_bp") == n_meshes
    assert factored("A11", "solve_bp") == sum(trace.a11_path == "factor" for trace in traces)
    assert factored("A11", "inner_richardson") == 0
    # Each comparator solve factors A00 (its beta = 1 differs from the
    # bound-preserving solve's) and K_gamma once and no monolithic matrix;
    # it factors A11 by the bound-preserving solve's rule, so only on the
    # 288-element mesh, where that solve factors it too.
    std_a11 = factored("A11", "solve_standard_eg")
    assert factored("A00", "solve_standard_eg") == factored("K_gamma", "solve_standard_eg") == n_std
    assert std_a11 == (factored("A11", "solve_bp") if wl.comparator else 0)
    assert tracer.calls("factor:monolithic EG system") == 0
    expected = n_meshes + factored("A11", "solve_bp") + 2 * n_std + std_a11
    assert tracer.counts["factor_count"] == expected
    assert tracer.counts["lu_fill_nnz"] >= sum(trace.fill_nnz for trace in traces) > 0


def test_layer_solve_counts_are_pinned():
    # The layer workload's problem (eps = 1e-7, beta = 4) on its 4,608-element
    # level: Jacobi-CG, 2 outer sweeps of 3 Newton steps each, 29 CG steps in
    # the initial sweep and 42 in the Newton steps, each of which starts at
    # the current iterate, and one A00 triangular solve for the initial sweep
    # and each outer sweep.  The second sweep's increment, 3.7e-11, is 1.2e-4
    # of the first's, so the error it leaves is about 4.5e-15 and its residual
    # 1.6e-12 is within tol_outer + 1e-12: the loop stops there.
    wl = _load("workloads").WORKLOADS["layer"]
    mesh = build_structured(wl.nx, wl.ny, wl.rect)
    for _ in range(2):
        mesh = refine_uniform(mesh)
    trace = egbp.solver.solve_bound_preserving(mesh, wl.spec).trace
    assert (mesh.num_elements, trace.a11_path, trace.stop_reason) == (4608, "jacobi", "converged")
    assert trace.inner_iters_per_outer == [3, 3]
    assert (trace.initial_cg_steps, trace.cg_steps_per_outer) == (29, [26, 16])
    assert trace.triangular_solves == 3


def test_layer_solve_converges_at_294912_elements():
    # The layer workload's problem refined twice past its finest level.  Each
    # Step-1 CG starts at the current Newton iterate, and a start that meets
    # the backward error comes back unchanged, so the clamped set settles:
    # 4 + 3 Newton steps.  Started from zero, every solve moved u at the
    # clamp windows by round-off, and the first Step 1 used up all 500
    # Newton steps.  The solve passes the benchmark's gate; the fingerprint
    # is not compared, as the reference has none at this size.
    workloads = _load("workloads")
    wl = workloads.WORKLOADS["layer"]
    mesh = build_structured(wl.nx, wl.ny, wl.rect)
    for _ in range(5):
        mesh = refine_uniform(mesh)
    system = egbp.solver.assemble_system(mesh, wl.spec)
    solution = egbp.solver.solve_bound_preserving(mesh, wl.spec, system=system)
    trace = solution.trace
    assert (mesh.num_elements, trace.a11_path, trace.stop_reason) == (294912, "jacobi", "converged")
    assert trace.inner_iters_per_outer == [4, 3]
    rec = workloads._post_bp("layer/294912", mesh, wl.spec, system, solution, None)
    assert workloads.gate(rec, {}) == ([], ["no reference fingerprint"])
