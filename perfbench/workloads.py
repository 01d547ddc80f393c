"""The benchmark's workloads, driven through egbp's public functions.

One pass of a workload mirrors the level loop of the ``egbp`` studies:
build and refine the meshes, then per solve DofMap + Dirichlet lift,
``assemble_system``, ``solve_bound_preserving`` (plus
``solve_standard_eg`` as the layer comparator), and the ``analysis``
norms and reports.  The problem data are fixed here, so the correctness
fingerprint holds; the seed only permutes the order in which
``tol_sweep`` visits its (mesh, tolerance) pairs, in each pass anew.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from egbp import analysis, solver
from egbp.assembly import ProblemSpec, assemble_system
from egbp.fespace import DofMap, dirichlet_lift
from egbp.mesh import build_structured, refine_uniform

BOUND_TOL = 1e-10  # bound check on u+, as in README
CONSERVATION_RTOL = 1e-8  # max |b0 - A u+| over all elements, relative to ||b||
FINGERPRINT_RTOL = 1e-10  # drift allowed against the stored reference


def _smooth_u(x, y):
    return np.sin(np.pi * (np.asarray(x) + 1.0) / 2.0) * np.sin(np.pi * np.asarray(y))


def _smooth_grad(x, y):
    sx = np.sin(np.pi * (np.asarray(x) + 1.0) / 2.0)
    cx = np.cos(np.pi * (np.asarray(x) + 1.0) / 2.0)
    sy = np.sin(np.pi * np.asarray(y))
    cy = np.cos(np.pi * np.asarray(y))
    return 0.5 * np.pi * cx * sy, np.pi * sx * cy


_SMOOTH_EPS = 1e-5


def _smooth_f(x, y):
    return (_SMOOTH_EPS * (np.pi**2 / 4.0 + np.pi**2) + 1.0) * _smooth_u(x, y)


def _layer_f(x, y):
    x = np.asarray(x)
    y = np.asarray(y)
    inside = (x >= 0.25) & (x <= 0.75) & (y >= 0.25) & (y <= 0.75)
    return np.where(inside, 0.0, 1.0)


def _zero(x, y):
    return 0.0 * np.asarray(x)


_SOLVER = dict(gamma=10.0, beta=4, alpha=1.0, omega=0.5, bounds=(0.0, 1.0), tol_outer=1e-12)
_SMOOTH_SPEC = ProblemSpec(epsilon=_SMOOTH_EPS, mu=1.0, f=_smooth_f, u_D=_smooth_u, **_SOLVER)
_LAYER_SPEC = ProblemSpec(epsilon=1e-7, mu=1.0, f=_layer_f, u_D=_zero, f_quadrature="centroid", **_SOLVER)


@dataclass(frozen=True)
class Workload:
    name: str
    spec: ProblemSpec
    rect: tuple
    nx: int
    ny: int
    levels: int  # meshes built: the coarse one plus levels - 1 refinements
    solve_levels: tuple
    tolerances: tuple  # tol_inner of each solve on a mesh
    comparator: bool = False  # standard EG (beta = 1, alpha = 0) after each solve
    exact: tuple = None  # (u, grad u) for the L2/H1 errors
    shuffle: bool = False  # seed permutes the order of the solves

    def limited(self, max_level):
        """The same workload on the meshes up to ``max_level`` only."""
        return replace(
            self,
            levels=min(self.levels, max_level + 1),
            solve_levels=tuple(lv for lv in self.solve_levels if lv <= max_level),
        )


WORKLOADS = {
    "smooth": Workload(
        "smooth", _SMOOTH_SPEC, (-1.0, 0.0, 1.0, 1.0), 8, 4, 5, tuple(range(5)), (1e-9,),
        exact=(_smooth_u, _smooth_grad),
    ),
    "layer": Workload(
        "layer", _LAYER_SPEC, (0.0, 0.0, 1.0, 1.0), 12, 12, 4, tuple(range(4)), (1e-9,),
        comparator=True,
    ),
    "tol_sweep": Workload(
        "tol_sweep", _LAYER_SPEC, (0.0, 0.0, 1.0, 1.0), 12, 12, 4, (2, 3), (1e-3, 1e-6, 1e-9),
        shuffle=True,
    ),
}


# The spans each end-to-end time covers.
METRIC_SPANS = {
    "study_s": ("pass",),
    "setup_s": ("mesh", "dofmap_lift", "assemble"),
    "solve_s": ("solve_bp",),
}


@dataclass
class Pass:
    """One pass of a workload: spans and per-solve records."""

    tracer: object
    records: list

    def intervals(self, metric):
        """(start, end) of the spans that ``metric`` covers."""
        names = METRIC_SPANS[metric]
        return [(start, end) for name, _, start, end, _ in self.tracer.spans if name in names]


def run_pass(wl, seed, tracer, solve=True, between=None):
    """One complete pass of ``wl``; with ``solve=False`` only its set-up.

    ``seed`` is anything ``np.random.default_rng`` takes; it orders the
    solves of a shuffled workload.  ``between``, if given, is called after
    the meshes are built and after each solve, outside every span but the
    pass's own.
    """
    with tracer.span("pass", "bench"):
        records = _pass(wl, seed, tracer, solve, between or (lambda: None))
    return Pass(tracer, records)


def _pass(wl, seed, tracer, solve, between):
    span = tracer.span
    with span("mesh", "mesh"):
        meshes = [build_structured(wl.nx, wl.ny, wl.rect)]
        for _ in range(wl.levels - 1):
            meshes.append(refine_uniform(meshes[-1]))
    tracer.counts["elements"] += sum(m.num_elements for m in meshes)
    between()

    jobs = [(lv, tol) for lv in wl.solve_levels for tol in wl.tolerances]
    if wl.shuffle:
        jobs = [jobs[i] for i in np.random.default_rng(seed).permutation(len(jobs))]

    prepared = {}
    records = []
    for lv, tol in jobs:
        mesh = meshes[lv]
        if lv not in prepared:
            with span("dofmap_lift", "fespace"):
                prepared[lv] = (DofMap.from_mesh(mesh), dirichlet_lift(mesh, wl.spec.u_D))
        dofs, lift = prepared[lv]
        key = "%s/%d/tol=%.0e" % (wl.name, mesh.num_elements, tol)
        spec = replace(wl.spec, tol_inner=tol)
        system = _assemble(tracer, mesh, spec, dofs, lift)
        if solve:
            with span("solve_bp", "solver"):
                sol = solver.solve_bound_preserving(mesh, spec, dofs, system, lift)
            with span("post", "analysis"):
                records.append(_post_bp(key, mesh, spec, system, sol, wl.exact))
        if wl.comparator:
            spec_std = replace(spec, beta=1, alpha=0.0)
            system_std = _assemble(tracer, mesh, spec_std, dofs, lift)
            if solve:
                with span("comparator", "solver"):
                    u_std = solver.solve_standard_eg(mesh, spec_std, dofs, system_std, lift)
                with span("post", "analysis"):
                    records.append(_post_standard(key + "/standard", mesh, spec_std, system_std, u_std))
        between()
    return records


def _assemble(tracer, mesh, spec, dofs, lift):
    with tracer.span("assemble", "assembly"):
        system = assemble_system(mesh, spec, dofs, lift)
    tracer.counts["assembly_nnz"] += system.A11.nnz + 2 * system.A10.nnz + system.A00.nnz
    return system


def _common(key, mesh, spec, system, u):
    a, b = spec.bounds
    res = analysis.conservation_report(mesh, system, u)
    mn, mx, nviol = analysis.bound_violation(mesh, u, spec.bounds, tol=BOUND_TOL)
    b_norm = float(np.linalg.norm(np.concatenate([system.b1, system.b0])))
    return dict(
        key=key,
        elements=mesh.num_elements,
        u_min=mn,
        u_max=mx,
        violations=nviol,
        conservation_rel=float(np.max(np.abs(res))) / b_norm,
        jump_norm=analysis.jump_norm(mesh, spec, u.const_coeffs),
        bound_scale=b - a,
    )


def _post_bp(key, mesh, spec, system, sol, exact):
    u_plus = sol.u_plus
    rec = _common(key, mesh, spec, system, u_plus)
    a, b = spec.bounds
    vals = u_plus.linear_coeffs[mesh.triangles] + u_plus.const_coeffs[:, None]
    outside = (vals < a - BOUND_TOL) | (vals > b + BOUND_TOL)
    at_boundary = mesh.boundary_vertex[mesh.triangles]
    iv = system.dofs.interior_vertex_ids
    clamped = int(np.count_nonzero(sol.u.linear_coeffs[iv] != u_plus.linear_coeffs[iv]))
    tr = sol.trace
    rec.update(
        kind="bp",
        tol_inner=spec.tol_inner,
        violations_interior=int(np.count_nonzero(outside & ~at_boundary)),
        violations_boundary=int(np.count_nonzero(outside & at_boundary)),
        converged=bool(tr.converged),
        residual=float(tr.nonlinear_residual),
        residual_budget=10.0 * (spec.tol_outer + 1e-12),
        outer_iters=tr.outer_iters,
        inner_iters=int(sum(tr.inner_iters_per_outer)),
        polish_iters=tr.polish_outer_iters,
        infeasible_outer=tr.feasibility_violations,
        interior_nodes=int(iv.size),
        clamped_nodes=clamped,
        clamped_share=clamped / max(iv.size, 1),
    )
    if exact is not None:
        rec["err_l2"] = analysis.error_l2(mesh, exact[0], u_plus)
        rec["err_h1"] = analysis.error_h1_linear(mesh, exact[1], u_plus)
    return rec


def _post_standard(key, mesh, spec, system, u):
    rec = _common(key, mesh, spec, system, u)
    rec["kind"] = "standard"
    return rec


FINGERPRINT = ("err_l2", "err_h1", "u_min", "u_max")


def fingerprint(records):
    return {r["key"]: {k: r[k] for k in FINGERPRINT if k in r} for r in records}


def gate(rec, reference):
    """Reasons why one solve fails, split into (failures, drifts)."""
    fails = []
    if rec["conservation_rel"] > CONSERVATION_RTOL:
        fails.append("conservation residual %.3e of ||b||" % rec["conservation_rel"])
    if rec["kind"] == "bp":
        if not rec["converged"]:
            fails.append("not converged")
        if not rec["residual"] <= rec["residual_budget"]:
            fails.append("nonlinear residual %.3e > %.3e" % (rec["residual"], rec["residual_budget"]))
        if rec["violations_interior"]:
            fails.append("%d interior-vertex bound violations" % rec["violations_interior"])
        if rec["violations_interior"] + rec["violations_boundary"] != rec["violations"]:
            fails.append("violation split does not add up to the analysis count")
    drifts = []
    ref = reference.get(rec["key"])
    if ref is None:
        drifts.append("no reference fingerprint")
    else:
        for k, want in ref.items():
            got = rec.get(k)
            # u+ extremes are compared on the scale of the bound interval.
            scale = rec["bound_scale"] if k in ("u_min", "u_max") else 0.0
            if got is None or not abs(got - want) <= FINGERPRINT_RTOL * max(abs(want), scale):
                drifts.append("%s = %r, reference %r" % (k, got, want))
    return fails, drifts
