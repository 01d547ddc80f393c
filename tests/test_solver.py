import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import egbp.solver
from egbp.assembly import BlockSystem, ProblemSpec, assemble_system
from egbp.cli import StudyConfig, apply_experiment_defaults, layer_source, main, smooth_exact
from egbp.fespace import DofMap, dirichlet_lift
from egbp.limiter import feasibility_check, patch_extremes
from egbp.mesh import _build_mesh, build_structured, refine_uniform
from egbp.solver import (
    A11Factor,
    EGSolution,
    SolverError,
    SpdFactor,
    inner_richardson,
    nonlinear_residual,
    outer_constant_solve,
    solve_bound_preserving,
    solve_standard_eg,
)
from oracles import (
    apply_Q,
    element_vertex_values,
    record_cli_solves,
    richardson_step1_oracle,
    solve_spd,
)


def make_spec(**kw):
    base = dict(
        epsilon=1.0,
        mu=1.0,
        gamma=10.0,
        beta=2,
        alpha=1.0,
        omega=0.5,
        tol_outer=1e-10,
    )
    base.update(kw)
    return ProblemSpec(**base)


def _interior_points(mesh):
    return mesh.vertices[DofMap.from_mesh(mesh).interior_vertex_ids]


def test_solve_spd_matches_dense_oracle():
    rng = np.random.default_rng(42)
    B = rng.normal(size=(50, 50))
    A = B @ B.T + 50.0 * np.eye(50)
    b = rng.normal(size=50)
    x = solve_spd(sp.csc_matrix(A), b)
    x_ref = np.linalg.solve(A, b)
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


def test_solve_spd_zero_rhs():
    A = sp.eye(5, format="csc")
    assert np.all(solve_spd(A, np.zeros(5)) == 0.0)


def test_spd_factor_rejects_bad_matrices():
    with pytest.raises(SolverError):
        SpdFactor(sp.csc_matrix(np.zeros((3, 4))))
    with pytest.raises(SolverError):
        SpdFactor(sp.csc_matrix(np.diag([1.0, -2.0, 3.0])))


def test_spd_factor_raises_when_refinement_misses():
    # factors of 2A halve the residual per sweep: four sweeps cannot reach 1e-12
    A = sp.csc_matrix(np.diag([2.0, 3.0, 4.0]) + 0.5)
    factor = SpdFactor(A, name="A")
    factor.lu = spla.splu(sp.csc_matrix(2.0 * A))
    with pytest.raises(SolverError, match="refinement"):
        factor.solve(np.ones(3))


def test_standard_eg_zero_data_gives_zero():
    mesh = build_structured(3, 3)
    u = solve_standard_eg(mesh, make_spec(f=lambda x, y: 0.0 * x))
    assert np.all(u.linear_coeffs == 0.0)
    assert np.all(u.const_coeffs == 0.0)


def test_standard_eg_satisfies_discrete_system():
    # the monolithic solve drives the assembled residual to machine precision,
    # including a nonzero boundary lift
    mesh = refine_uniform(build_structured(3, 2, (0.0, 0.0, 1.5, 1.0)))
    g = lambda x, y: 1.0 + 2.0 * x - 3.0 * y
    spec = make_spec(mu=2.0, f=lambda x, y: 2.0 * g(x, y), u_D=g)
    dofs = DofMap.from_mesh(mesh)
    lift = dirichlet_lift(mesh, g)
    system = assemble_system(mesh, spec, dofs, lift)
    u = solve_standard_eg(mesh, spec, dofs, system, lift)
    x1 = u.linear_coeffs[dofs.interior_vertex_ids]
    x0 = u.const_coeffs
    r1 = system.A11 @ x1 + system.A10 @ x0 - system.b1
    r0 = system.A10.T @ x1 + system.A00 @ x0 - system.b0
    scale = max(np.linalg.norm(system.b1), np.linalg.norm(system.b0))
    assert np.linalg.norm(np.concatenate([r1, r0])) <= 1e-10 * scale
    # the lift's boundary values are reproduced exactly
    bdry = mesh.boundary_vertex
    assert np.array_equal(u.linear_coeffs[bdry], lift[bdry])


@pytest.mark.parametrize("solve", [solve_bound_preserving, solve_standard_eg])
def test_solve_takes_dofs_and_lift_from_the_system(solve):
    # Given only the assembled system, a solve adds back the lift b was
    # assembled with: u_D = 0.5 is not lost.
    mesh = build_structured(8, 8)
    spec = ProblemSpec(
        epsilon=1e-2, mu=1.0, f=lambda x, y: 0.0 * x, u_D=lambda x, y: 0.5 + 0.0 * x
    )
    dofs = DofMap.from_mesh(mesh)
    lift = dirichlet_lift(mesh, spec.u_D)
    given = solve(mesh, spec, dofs, assemble_system(mesh, spec, dofs, lift), lift)
    alone = solve(mesh, spec, None, assemble_system(mesh, spec))
    if solve is solve_bound_preserving:
        assert alone.trace.converged and alone.trace.nonlinear_residual <= 1e-11
        given, alone = given.u_plus, alone.u_plus
    assert np.abs(alone.linear_coeffs - given.linear_coeffs).max() <= 1e-12
    assert np.abs(alone.const_coeffs - given.const_coeffs).max() <= 1e-12
    # dofs and lift equal to the system's own are accepted
    system = assemble_system(mesh, spec)
    solve(mesh, spec, DofMap.from_mesh(mesh), system, lift.copy())


@pytest.mark.parametrize("solve", [solve_bound_preserving, solve_standard_eg])
def test_dofs_or_lift_not_the_systems_own_rejected(solve):
    mesh = build_structured(4, 4)
    spec = make_spec(f=lambda x, y: 1.0 + 0.0 * x, u_D=lambda x, y: 0.5 + 0.0 * x)
    system = assemble_system(mesh, spec)
    with pytest.raises(ValueError, match="lift differs"):
        solve(mesh, spec, None, system, np.zeros(mesh.num_vertices))
    every = np.arange(mesh.num_vertices)
    with pytest.raises(ValueError, match="dofs differ"):
        solve(mesh, spec, DofMap(every, every), system)


def test_inner_richardson_stationary_at_unconstrained_solution():
    # When no clamp is active the fixed point of the sweep solves
    # A11 u = b1 - A10 w0; starting there, the first increment is ~0.
    mesh = build_structured(4, 4)
    dofs = DofMap.from_mesh(mesh)
    spec = make_spec(f=lambda x, y: 0.1 + 0.0 * x, bounds=(-100.0, 100.0))
    system = assemble_system(mesh, spec, dofs)
    w0 = np.zeros(mesh.num_elements)
    extremes = patch_extremes(mesh, w0, dofs)
    u_star = solve_spd(system.A11, system.b1 - system.A10 @ w0)
    a11 = A11Factor(system.A11, _interior_points(mesh))
    u, n, incs, converged = inner_richardson(u_star, w0, system, spec, extremes, a11)
    assert converged
    assert n == 1
    assert incs[0] <= 1e-12
    assert np.allclose(u, u_star, atol=1e-11)


def test_inner_richardson_converges_from_zero():
    mesh = build_structured(4, 4)
    dofs = DofMap.from_mesh(mesh)
    spec = make_spec(epsilon=1e-3, f=lambda x, y: 1.0 + 0.0 * x, bounds=(0.0, 1.0))
    system = assemble_system(mesh, spec, dofs)
    w0 = np.zeros(mesh.num_elements)
    extremes = patch_extremes(mesh, w0, dofs)
    a11 = A11Factor(system.A11, _interior_points(mesh))
    u, n, incs, converged = inner_richardson(
        np.zeros(dofs.n_interior), w0, system, spec, extremes, a11
    )
    assert converged
    # the last step solved Step 1 exactly: A11 P(u) + S1 Q(u) = r
    p = np.maximum(spec.bounds[0] - extremes.under, np.minimum(u, spec.bounds[1] - extremes.over))
    r = system.b1 - system.A10 @ w0
    assert np.linalg.norm(system.A11 @ p + system.S1 * (u - p) - r) <= 1e-12 * np.linalg.norm(r)


def test_outer_constant_solve_block_consistency():
    mesh = build_structured(3, 3)
    dofs = DofMap.from_mesh(mesh)
    spec = make_spec(f=lambda x, y: 1.0 + 0.0 * x, bounds=(-100.0, 100.0))
    system = assemble_system(mesh, spec, dofs)
    rng = np.random.default_rng(1)
    u1 = 1e-3 * rng.normal(size=dofs.n_interior)
    w0 = np.zeros(mesh.num_elements)
    extremes = patch_extremes(mesh, w0, dofs)
    u0 = outer_constant_solve(u1, system, spec, extremes, SpdFactor(system.A00, name="A00"))
    # with the wide bounds the truncation is the identity
    res = system.A00 @ u0 - (system.b0 - system.A10.T @ u1)
    assert np.linalg.norm(res) <= 1e-11 * np.linalg.norm(system.b0)


def test_outer_constant_solve_requires_extremes():
    mesh = build_structured(2, 2)
    dofs = DofMap.from_mesh(mesh)
    spec = make_spec()
    system = assemble_system(mesh, spec, dofs)
    with pytest.raises(TypeError):
        outer_constant_solve(np.zeros(dofs.n_interior), system, spec)


def test_bound_preserving_solve_smooth_problem():
    mesh = build_structured(8, 4, (-1.0, 0.0, 1.0, 1.0))
    u_exact = lambda x, y: np.sin(np.pi * (x + 1.0) / 2.0) * np.sin(np.pi * y)
    eps = 1e-5
    f = lambda x, y: (eps * (np.pi**2 / 4.0 + np.pi**2) + 1.0) * u_exact(x, y)
    spec = make_spec(
        epsilon=eps, beta=4, f=f, u_D=lambda x, y: 0.0 * x, bounds=(0.0, 1.0),
        tol_outer=1e-9,
    )
    sol = solve_bound_preserving(mesh, spec)
    assert sol.trace.converged
    assert sol.trace.outer_iters <= 30
    vals = element_vertex_values(mesh, sol.u_plus)
    interior = ~mesh.boundary_vertex[mesh.triangles]
    assert vals[interior].min() >= -1e-10
    assert vals[interior].max() <= 1.0 + 1e-10
    assert sol.trace.nonlinear_residual <= 1e-10


def _same_matrix(M, N):
    return M.shape == N.shape and (sp.csc_matrix(M) != sp.csc_matrix(N)).nnz == 0


def _smooth_problem():
    """(mesh, spec) of a small smooth problem whose solve clamps 1 of 21 nodes."""
    mesh = build_structured(8, 4, (-1.0, 0.0, 1.0, 1.0))
    u_exact = lambda x, y: np.sin(np.pi * (x + 1.0) / 2.0) * np.sin(np.pi * y)
    f = lambda x, y: (1e-5 * (np.pi**2 / 4.0 + np.pi**2) + 1.0) * u_exact(x, y)
    spec = make_spec(epsilon=1e-5, beta=4, f=f, u_D=lambda x, y: 0.0 * x, bounds=(0.0, 1.0))
    return mesh, spec


def _many_clamped_problem():
    """(mesh, spec) of an 8x8 problem whose Step 1 clamps most nodes."""
    spec = make_spec(epsilon=1e-3, beta=4, f=lambda x, y: 1.0 + 0.0 * x, bounds=(0.0, 1.0))
    return build_structured(8, 8), spec


def _layer_problem(refinements=1):
    """(mesh, spec) of the layer study on its coarse mesh refined ``refinements`` times."""
    config = apply_experiment_defaults(StudyConfig(experiment="layer"))
    mesh = build_structured(config.nx, config.ny)
    for _ in range(refinements):
        mesh = refine_uniform(mesh)
    spec = config.problem_spec(f=layer_source, u_D=lambda x, y: 0.0 * x, f_quadrature="centroid")
    return mesh, spec


def _factored_kinds(monkeypatch, mesh, spec):
    """Solve and return (kinds of the factored matrices, trace).

    Asserts that every factored matrix is A00[p][:, p] or a principal
    submatrix A11[q][:, q] (entry for entry), p a recorded nested-dissection
    order, which is a permutation, and q that order restricted to a recorded
    free set; that the full A11 lives for the whole solve with at most one
    submatrix factor alive beside it, and that the monolithic paths are
    never used.
    """
    dofs = DofMap.from_mesh(mesh)
    system = assemble_system(mesh, spec, dofs)
    free_sets = [np.ones(dofs.n_interior, dtype=bool)]
    orders = []
    kinds = []
    a11_factors = {"A11": [], "A11[idx]": []}
    most_alive = {"A11": 0, "A11[idx]": 0}

    def count_alive():
        for kind, refs in a11_factors.items():
            most_alive[kind] = max(most_alive[kind], sum(ref() is not None for ref in refs))

    dissection = egbp.solver._nested_dissection

    def recording_dissection(points, A):
        p = dissection(points, A)
        assert np.array_equal(np.sort(p), np.arange(A.shape[0]))
        orders.append(p)
        return p

    class RecordingFactor(SpdFactor):
        def __init__(self, A, name="system"):
            super().__init__(A, name=name)
            n0 = system.A00.shape[0]
            if any(_same_matrix(self.A, system.A00[p][:, p]) for p in orders if p.size == n0):
                kinds.append("A00")
                return
            idx = [
                q
                for p in orders
                if p.size == dofs.n_interior
                for q in (p[f[p]] for f in free_sets)
                if _same_matrix(self.A, system.A11[q][:, q])
            ]
            assert idx, "factored a matrix that is neither A00 nor a principal submatrix of A11"
            kinds.append("A11" if idx[0].size == dofs.n_interior else "A11[idx]")
            a11_factors[kinds[-1]].append(weakref.ref(self))
            count_alive()

    solve_free = A11Factor.solve

    def recording_solve(self, b, free):
        free_sets.append(free.copy())
        x = solve_free(self, b, free)
        count_alive()
        return x

    def monolithic(*args, **kwargs):
        raise AssertionError("the bound-preserving solve used the monolithic system")

    monkeypatch.setattr(egbp.solver, "_nested_dissection", recording_dissection)
    monkeypatch.setattr(egbp.solver, "SpdFactor", RecordingFactor)
    monkeypatch.setattr(A11Factor, "solve", recording_solve)
    monkeypatch.setattr(egbp.solver, "solve_standard_eg", monolithic)
    monkeypatch.setattr(BlockSystem, "full_matrix", monolithic)
    trace = solve_bound_preserving(mesh, spec, dofs, system).trace
    assert trace.converged
    assert len(orders) == 2  # one order each for A11 and A00
    assert kinds.count("A00") == 1 and kinds.count("A11") == 1
    assert most_alive == {"A11": 1, "A11[idx]": min(1, kinds.count("A11[idx]"))}
    return kinds, trace


def test_bound_preserving_factors_only_A11_and_A00(monkeypatch):
    # most nodes clamped: Step 1 factors principal submatrices, one at a time
    kinds, trace = _factored_kinds(monkeypatch, *_many_clamped_problem())
    assert kinds.count("A11[idx]") >= 2
    assert sum(trace.capacitance_columns_per_outer) == 0


def test_smooth_solve_factors_A11_once(monkeypatch):
    # one clamped node: capacitance solves on the full factor, no submatrix
    kinds, trace = _factored_kinds(monkeypatch, *_smooth_problem())
    assert kinds.count("A11[idx]") == 0
    assert sum(trace.capacitance_columns_per_outer) >= 1


def _step1_case(name):
    """(system, spec, w0, extremes, A11Factor) of one Step-1 problem for the oracle test."""
    if name == "smooth":
        mesh, spec = _smooth_problem()
    elif name == "layer":
        mesh, spec = _layer_problem(refinements=2)
    else:
        mesh = build_structured(4, 4)
        spec = make_spec(epsilon=1e-3, f=lambda x, y: 1.0 + 0.0 * x, bounds=(0.0, 1.0))
    dofs = DofMap.from_mesh(mesh)
    system = assemble_system(mesh, spec, dofs)
    if name == "infeasible":
        # two neighbours of an interior vertex 1.6 apart: its window [a - under, b - over] is empty
        w0 = np.zeros(mesh.num_elements)
        v = dofs.interior_vertex_ids[0]
        patch = mesh.patch_elements[mesh.patch_indptr[v]:mesh.patch_indptr[v + 1]]
        w0[patch[0]], w0[patch[1]] = 0.8, -0.8
    else:
        w0 = solve_bound_preserving(mesh, spec, dofs, system).u.const_coeffs
    a11 = A11Factor(system.A11, _interior_points(mesh))
    return system, spec, w0, patch_extremes(mesh, w0, dofs), a11


@pytest.mark.parametrize("name", ["smooth", "layer", "infeasible"])
def test_step1_newton_matches_richardson_oracle(name):
    system, spec, w0, extremes, a11 = _step1_case(name)
    a, b = spec.bounds
    lo, hi = a - extremes.under, b - extremes.over
    u0 = np.zeros(system.b1.shape[0])
    u, n, incs, converged = inner_richardson(u0, w0, system, spec, extremes, a11)
    u_ref, _, _, ref_converged = richardson_step1_oracle(
        u0, w0, system, spec, extremes, tol=1e-14, max_iter=20000
    )
    assert converged and ref_converged and n == len(incs)
    assert np.linalg.norm(u - u_ref) <= 1e-12 * np.linalg.norm(u_ref)
    # u solves Step 1: A11 P(u) + S1 Q(u) = b1 - A10 w0
    p = np.maximum(lo, np.minimum(u, hi))
    r = system.b1 - system.A10 @ w0
    assert np.linalg.norm(system.A11 @ p + system.S1 * (u - p) - r) <= 1e-12 * np.linalg.norm(r)
    clamped_share = np.mean(p != u)
    if name == "smooth":
        # the settled clamped set is solved by capacitance on the full factor
        assert clamped_share < 0.1
        assert a11.columns >= np.count_nonzero(p != u)
        assert isinstance(a11.factor, egbp.solver._Capacitance)
    elif name == "layer":
        # far too many clamped nodes for capacitance: submatrices are factored
        assert clamped_share >= 0.9
        assert a11.columns == 0 and a11.count >= 2
    else:
        assert np.any(lo > hi)


def _random_free_set(n, clamped, seed):
    free = np.ones(n, dtype=bool)
    free[np.random.default_rng(seed).choice(n, clamped, replace=False)] = False
    return free


@pytest.mark.parametrize("clamped", [3, 40])
def test_a11_free_set_solve_matches_fresh_factor(clamped):
    # 225 nodes, full-factor fill 5,736: capacitance while 2 |C| n <= fill (|C| <= 12)
    mesh = build_structured(16, 16)
    system = assemble_system(mesh, make_spec(f=lambda x, y: 1.0 + 0.0 * x))
    n = system.A11.shape[0]
    free = _random_free_set(n, clamped, seed=clamped)
    b = np.random.default_rng(7).normal(size=np.count_nonzero(free))
    a11 = A11Factor(system.A11, _interior_points(mesh))
    x = a11.solve(b, free)
    sub = sp.csc_matrix(system.A11[free][:, free])
    x_ref = spla.splu(sub).solve(b)
    assert np.linalg.norm(x - x_ref) <= 1e-13 * np.linalg.norm(x_ref)
    assert np.linalg.norm(sub @ x - b) <= 1e-13 * np.linalg.norm(b)
    if clamped == 3:
        assert (a11.count, a11.columns) == (1, 3)
    else:
        assert (a11.count, a11.columns) == (2, 0)
    # the same free set reuses Z (or the factor); a new one forms it again
    a11.solve(b, free)
    assert a11.columns == (3 if clamped == 3 else 0)


def test_capacitance_solve_raises_when_refinement_misses():
    # the full factor holds the LU of 2·A11, so the capacitance form gives
    # (2·A11)[I, I]^{-1}: each sweep halves the residual and cannot reach 1e-13
    mesh = build_structured(16, 16)
    system = assemble_system(mesh, make_spec(f=lambda x, y: 1.0 + 0.0 * x))
    a11 = A11Factor(system.A11, _interior_points(mesh))
    a11.full.lu = spla.splu(sp.csc_matrix(2.0 * a11.A11))
    free = _random_free_set(system.A11.shape[0], 3, seed=3)
    with pytest.raises(SolverError, match="refinement"):
        a11.solve(np.ones(np.count_nonzero(free)), free)
    assert a11.columns == 3


def test_step1_without_stabilizer_fails_loudly():
    # alpha = 0 leaves Q(u) out of Step 1 at clamped nodes: no unique solution
    spec = make_spec(alpha=0.0, epsilon=1e-3, f=lambda x, y: 1.0 + 0.0 * x, bounds=(0.0, 0.4))
    with pytest.raises(SolverError, match="stabilizer"):
        solve_bound_preserving(build_structured(4, 4), spec)


def test_smooth_study_bounds_hold_at_interior_vertices():
    # The bounds are guaranteed at interior vertices only: at a Dirichlet
    # vertex u+ is the untruncated lift plus the element constant.
    config = apply_experiment_defaults(StudyConfig(experiment="smooth"))
    u, _, make_f = smooth_exact()
    spec = config.problem_spec(f=make_f(config.epsilon, config.mu), u_D=u)
    a, b = spec.bounds
    mesh = build_structured(config.nx, config.ny, (config.x0, config.y0, config.x1, config.y1))
    for _ in range(3):
        sol = solve_bound_preserving(mesh, spec)
        assert sol.trace.converged
        vals = element_vertex_values(mesh, sol.u_plus)
        interior = ~mesh.boundary_vertex[mesh.triangles]
        assert vals[interior].min() >= a - 1e-10
        assert vals[interior].max() <= b + 1e-10
        mesh = refine_uniform(mesh)


def test_bound_preserving_matches_standard_when_inactive():
    # bounds so wide that no clamp ever engages: the fixed point is the
    # standard EG solution itself
    mesh = build_structured(4, 4)
    spec = make_spec(
        epsilon=1e-2, f=lambda x, y: 1.0 + 0.0 * x, bounds=(-1e6, 1e6)
    )
    std = solve_standard_eg(mesh, spec)
    bp = solve_bound_preserving(mesh, spec)
    assert bp.trace.converged
    assert np.abs(bp.u.linear_coeffs - std.linear_coeffs).max() <= 1e-9
    assert np.abs(bp.u.const_coeffs - std.const_coeffs).max() <= 1e-9


def test_nonlinear_residual_zero_data():
    mesh = build_structured(3, 3)
    dofs = DofMap.from_mesh(mesh)
    spec = make_spec(f=lambda x, y: 0.0 * x)
    system = assemble_system(mesh, spec, dofs)
    sol = solve_bound_preserving(mesh, spec, dofs, system)
    assert nonlinear_residual(system, sol) <= 1e-14


def test_solution_split_consistency():
    mesh = build_structured(5, 5)
    spec = make_spec(
        epsilon=1e-4, f=lambda x, y: 1.0 + 0.0 * x, bounds=(0.0, 0.4)
    )
    sol = solve_bound_preserving(mesh, spec)
    um = apply_Q(mesh, DofMap.from_mesh(mesh), sol.u.const_coeffs, sol.u, spec.bounds)
    assert np.allclose(
        sol.u_plus.linear_coeffs + um.linear_coeffs, sol.u.linear_coeffs, atol=1e-15
    )
    assert np.all(um.const_coeffs == 0.0)
    assert np.array_equal(sol.u_plus.const_coeffs, sol.u.const_coeffs)


def test_solver_deterministic():
    mesh = build_structured(4, 4)
    spec = make_spec(epsilon=1e-3, f=lambda x, y: 1.0 + 0.0 * x, bounds=(0.0, 1.0))
    a = solve_bound_preserving(mesh, spec)
    b = solve_bound_preserving(mesh, spec)
    assert np.array_equal(a.u.linear_coeffs, b.u.linear_coeffs)
    assert np.array_equal(a.u.const_coeffs, b.u.const_coeffs)
    assert a.trace.outer_iters == b.trace.outer_iters
    assert a.trace.inner_iters_per_outer == b.trace.inner_iters_per_outer


@pytest.mark.parametrize(
    "limits,reason",
    [
        ({}, "converged"),
        ({"max_inner": 1}, "inner_stalled"),
        ({"max_outer": 1}, "max_outer"),
    ],
)
def test_stop_reason(limits, reason):
    if reason == "inner_stalled":
        # the first Newton step from the decoupled sweep changes the clamped set
        mesh, spec = _many_clamped_problem()
        spec = replace(spec, **limits)
    else:
        mesh = build_structured(4, 4)
        spec = make_spec(
            epsilon=1e-3, f=lambda x, y: 1.0 + 0.0 * x, bounds=(0.0, 0.4), **limits
        )
    trace = solve_bound_preserving(mesh, spec).trace
    assert trace.stop_reason == reason
    assert trace.converged == (reason == "converged")
    if reason == "inner_stalled":
        assert trace.outer_iters == 1 and trace.inner_iters_per_outer == [1]


def _free_sets_per_step1(monkeypatch, mesh, spec):
    """Solve; return (trace, free sets of the A11Factor solves per Step-1 call)."""
    sweeps = []
    newton = egbp.solver.inner_richardson
    solve_free = A11Factor.solve

    def recording_newton(*args, **kwargs):
        sweeps.append([])
        return newton(*args, **kwargs)

    def recording_solve(self, b, free):
        if sweeps:  # not the initial decoupled sweep
            sweeps[-1].append(free.copy())
        return solve_free(self, b, free)

    monkeypatch.setattr(egbp.solver, "inner_richardson", recording_newton)
    monkeypatch.setattr(A11Factor, "solve", recording_solve)
    return solve_bound_preserving(mesh, spec).trace, sweeps


@pytest.mark.parametrize("case", ["smooth", "layer"])
def test_step1_never_solves_twice_on_one_free_set(monkeypatch, case):
    # a step that repeats the clamped set solved Step 1 exactly: no
    # confirming step on the same free set follows it
    mesh, spec = _smooth_problem() if case == "smooth" else _layer_problem()
    trace, sweeps = _free_sets_per_step1(monkeypatch, mesh, spec)
    assert trace.converged and len(sweeps) == trace.outer_iters
    assert [len(frees) for frees in sweeps] == trace.inner_iters_per_outer
    for frees in sweeps:
        for prev, free in zip(frees, frees[1:]):
            assert not np.array_equal(prev, free)


def test_trace_bookkeeping(monkeypatch):
    mesh = build_structured(4, 4)
    spec = make_spec(epsilon=1e-3, f=lambda x, y: 1.0 + 0.0 * x, bounds=(0.0, 1.0))
    sol = solve_bound_preserving(mesh, spec)
    t = sol.trace
    assert t.converged
    assert t.outer_iters == len(t.inner_iters_per_outer)
    assert t.outer_iters == len(t.outer_increments)
    assert t.outer_iters == len(t.inner_residual_histories)
    for n, incs in zip(t.inner_iters_per_outer, t.inner_residual_histories):
        assert n == len(incs)
    assert t.outer_increments[-1] <= spec.tol_outer
    assert t.feasibility_violations == sum(1 for ok in t.feasible_per_outer if not ok)
    # per outer sweep: worst feasibility slack, clamped nodes, A11-class factorizations
    assert t.outer_iters == len(t.worst_slack_per_outer) == len(t.clamped_per_outer)
    assert t.outer_iters == len(t.a11_factorizations_per_outer)
    assert t.feasible_per_outer == [slack >= 0.0 for slack in t.worst_slack_per_outer]
    dofs = DofMap.from_mesh(mesh)
    system = assemble_system(mesh, spec, dofs)
    u1 = solve_spd(system.A11, system.b1)
    u0 = solve_spd(system.A00, system.b0 - system.A10.T @ u1)
    slack = feasibility_check(patch_extremes(mesh, u0, dofs), spec.bounds)
    assert t.worst_slack_per_outer[0] == pytest.approx(slack, rel=1e-10)

    names = []

    class RecordingFactor(SpdFactor):
        def __init__(self, A, name="system"):
            names.append(name)
            super().__init__(A, name=name)

    monkeypatch.setattr(egbp.solver, "SpdFactor", RecordingFactor)
    sol = solve_bound_preserving(mesh, spec)
    t = sol.trace
    assert names.count("A11") == 1 + sum(t.a11_factorizations_per_outer) >= 2
    iv = dofs.interior_vertex_ids
    clamped = np.count_nonzero(sol.u.linear_coeffs[iv] != sol.u_plus.linear_coeffs[iv])
    assert 0 < t.clamped_per_outer[-1] == clamped <= iv.size
    assert t.outer_iters == len(t.capacitance_columns_per_outer)

    # Smooth case, one clamped node: Z is formed (|C| triangular solves) in
    # the sweep where C first appears or changes, and reused while C stays.
    names.clear()
    t, sweeps = _free_sets_per_step1(monkeypatch, *_smooth_problem())
    assert t.converged and t.outer_iters == len(sweeps) == len(t.capacitance_columns_per_outer)
    assert names.count("A11") == 1 and sum(t.a11_factorizations_per_outer) == 0
    previous = np.ones(sweeps[0][0].size, dtype=bool)  # the initial sweep's free set
    kinds = set()
    for m, frees in enumerate(sweeps):
        changes = []
        for free in frees:
            if not np.array_equal(free, previous):
                changes.append(np.count_nonzero(~free))
            previous = free
        assert t.capacitance_columns_per_outer[m] == sum(changes)
        if not changes:
            assert t.capacitance_columns_per_outer[m] == 0
            kinds.add("unchanged")
        elif len(changes) == 1:
            assert t.capacitance_columns_per_outer[m] == t.clamped_per_outer[m] > 0
            kinds.add("changed")
    assert kinds == {"changed", "unchanged"}


@pytest.mark.parametrize("case", ["smooth", "many_clamped"])
def test_every_splu_goes_through_spd_factor(monkeypatch, case):
    # The benchmark counts factorizations by installing an SpdFactor subclass
    # with this __init__ signature; no solve path may call splu around it.
    calls = {"splu": 0, "SpdFactor": 0}
    splu = egbp.solver.spla.splu

    def counting_splu(*args, **kwargs):
        calls["splu"] += 1
        return splu(*args, **kwargs)

    class CountingFactor(SpdFactor):
        def __init__(self, A, name="system"):
            before = calls["splu"]
            super().__init__(A, name=name)
            calls["SpdFactor"] += calls["splu"] - before

    monkeypatch.setattr(egbp.solver.spla, "splu", counting_splu)
    monkeypatch.setattr(egbp.solver, "SpdFactor", CountingFactor)
    mesh, spec = _smooth_problem() if case == "smooth" else _many_clamped_problem()
    trace = solve_bound_preserving(mesh, spec).trace
    assert calls["splu"] == calls["SpdFactor"] == 2 + sum(trace.a11_factorizations_per_outer)


def test_trace_fill_nnz_sums_every_factorization(monkeypatch):
    fills = []

    class RecordingFactor(SpdFactor):
        def __init__(self, A, name="system"):
            super().__init__(A, name=name)
            fills.append(self.lu.nnz)

    monkeypatch.setattr(egbp.solver, "SpdFactor", RecordingFactor)
    trace = solve_bound_preserving(*_many_clamped_problem()).trace
    assert len(fills) == 2 + sum(trace.a11_factorizations_per_outer) > 2
    assert trace.fill_nnz == sum(fills)


def test_nested_dissection_is_a_deterministic_permutation():
    mesh = refine_uniform(build_structured(12, 12))
    dofs = DofMap.from_mesh(mesh)
    system = assemble_system(mesh, make_spec(f=lambda x, y: 1.0 + 0.0 * x), dofs)
    x1, x0 = _interior_points(mesh), egbp.solver._centroids(mesh)
    for points, A in (
        (x1, system.A11),
        (x0, system.A00),
        (np.vstack([x1, x0]), system.full_matrix()),
    ):
        p = egbp.solver._nested_dissection(points, A)
        assert np.array_equal(np.sort(p), np.arange(A.shape[0]))
        assert not np.array_equal(p, np.arange(A.shape[0]))
        assert np.array_equal(egbp.solver._nested_dissection(points.copy(), A.copy()), p)


def _row_shuffled(mesh, seed):
    """The same mesh with its vertex rows and triangle rows in random order."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(mesh.num_vertices)
    new_id = np.empty_like(perm)
    new_id[perm] = np.arange(perm.size)
    tri = new_id[mesh.triangles][rng.permutation(mesh.num_elements)]
    return _build_mesh(mesh.vertices[perm], tri)


@pytest.mark.parametrize("shuffled", [False, True])
def test_dissection_fill_below_colamd(monkeypatch, shuffled):
    # 4,608 elements; SuperLU's default COLAMD order fills more on every matrix
    mesh = build_structured(48, 48)
    if shuffled:
        mesh = _row_shuffled(mesh, seed=4)
    dofs = DofMap.from_mesh(mesh)
    spec = make_spec(f=lambda x, y: 1.0 + 0.0 * x, bounds=(-1e6, 1e6))
    system = assemble_system(mesh, spec, dofs)
    fill = {}

    class RecordingFactor(SpdFactor):
        def __init__(self, A, name="system"):
            super().__init__(A, name=name)
            fill[name] = self.lu.nnz

    monkeypatch.setattr(egbp.solver, "SpdFactor", RecordingFactor)
    solve_bound_preserving(mesh, spec, dofs, system)
    solve_standard_eg(mesh, spec, dofs, system)
    for name, A in (
        ("A11", system.A11),
        ("A00", system.A00),
        ("monolithic EG system", system.full_matrix()),
    ):
        assert fill[name] < spla.splu(sp.csc_matrix(A)).nnz


@pytest.mark.parametrize("case", ["smooth", "layer"])
def test_bound_preserving_reruns_bit_identical(case):
    # the choice between capacitance and submatrix factor depends on counts only
    mesh, spec = _smooth_problem() if case == "smooth" else _layer_problem()
    a, b = (solve_bound_preserving(mesh, spec) for _ in range(2))
    for fa, fb in ((a.u, b.u), (a.u_plus, b.u_plus)):
        assert np.array_equal(fa.linear_coeffs, fb.linear_coeffs)
        assert np.array_equal(fa.const_coeffs, fb.const_coeffs)
    assert asdict(a.trace) == asdict(b.trace)


@pytest.mark.parametrize("experiment", ["smooth", "layer"])
def test_no_sweep_after_convergence(monkeypatch, experiment):
    # Every Step-2 solve belongs to a recorded outer sweep: nothing runs
    # after the loop stops at tol_outer.
    config = apply_experiment_defaults(StudyConfig(experiment=experiment))
    if experiment == "smooth":
        u, _, make_f = smooth_exact()
        spec = config.problem_spec(f=make_f(config.epsilon, config.mu), u_D=u)
    else:
        zero = lambda x, y: 0.0 * x
        spec = config.problem_spec(f=layer_source, u_D=zero, f_quadrature="centroid")
    box = (config.x0, config.y0, config.x1, config.y1)
    mesh = refine_uniform(build_structured(config.nx, config.ny, box))
    calls = []
    step2 = egbp.solver.outer_constant_solve

    def counting(*args, **kw):
        calls.append(1)
        return step2(*args, **kw)

    monkeypatch.setattr(egbp.solver, "outer_constant_solve", counting)
    t = solve_bound_preserving(mesh, spec).trace
    assert t.stop_reason == "converged"
    assert len(calls) == t.outer_iters == len(t.outer_increments)
    assert t.polish_outer_iters == 0
    assert t.nonlinear_residual <= 10.0 * (spec.tol_outer + 1e-12)


def test_write_trace_csv(monkeypatch, tmp_path):
    # the --emit-fields trace: one row per Newton step of each level's solve
    solutions = record_cli_solves(monkeypatch)
    assert main(["custom", "--levels", "2", "--emit-fields", "--out", str(tmp_path)]) == 0
    assert len(solutions) == 2
    blank_rows = 0
    for level, trace in enumerate(s.trace for s in solutions):
        path = tmp_path / ("custom_trace_level%d.csv" % level)
        assert b"\r" not in path.read_bytes()
        lines = path.read_text().split("\n")
        assert lines[0] == "level,m,n,inner_increment,outer_increment,feasible"
        assert lines[-1] == ""
        rows = [line.split(",") for line in lines[1:-1]]
        assert len(rows) == sum(trace.inner_iters_per_outer)
        expected = [
            (m, n, inc, int(ok))
            for m, (incs, ok) in enumerate(zip(trace.inner_residual_histories, trace.feasible_per_outer))
            for n, inc in enumerate(incs)
        ]
        for row, (m, n, inc, ok) in zip(rows, expected):
            assert row[:3] == [str(level), str(m), str(n)]
            assert float(row[3]) == inc and row[5] == str(ok)
            # outer increment recorded on the last inner row of each sweep
            if n == len(trace.inner_residual_histories[m]) - 1:
                assert float(row[4]) == trace.outer_increments[m]
            else:
                assert row[4] == ""
                blank_rows += 1
    assert blank_rows > 0


def test_invalid_omega_rejected():
    with pytest.raises(ValueError):
        make_spec(omega=0.0)
    with pytest.raises(ValueError):
        make_spec(omega=2.0)


def test_stretched_mesh_solve_converges():
    # cells 150:1: ||A|| ||x|| >> ||b|| for A00, so a residual relative to
    # ||b|| alone stalled at 4e-13 while the backward error was 1e-16
    spec = ProblemSpec(epsilon=1e-3, mu=1.0, f=lambda x, y: 1.0 + 0.0 * x)
    mesh = build_structured(2, 300)
    sol = solve_bound_preserving(mesh, spec)
    assert sol.trace.converged
    assert sol.trace.nonlinear_residual <= 10.0 * (spec.tol_outer + 1e-12)
    a, b = spec.bounds
    vals = element_vertex_values(mesh, sol.u_plus)
    interior = ~mesh.boundary_vertex[mesh.triangles]
    assert a - 1e-10 <= vals[interior].min() and vals[interior].max() <= b + 1e-10


def test_refinement_stops_at_backward_error():
    # b = A x with x the smoothest mode of the 1-D Laplacian: ||A|| ||x|| / ||b||
    # is 4e5, so ||r|| / ||b|| stalls near 4e-11 while the backward error is
    # at round-off; the solve must not raise
    n = 2000
    A = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1], format="csc")
    x = np.sin(np.pi * np.arange(1, n + 1) / (n + 1))
    b = A @ x
    factor = SpdFactor(A)
    assert factor.norm == 4.0
    y = factor.solve(b)
    r = np.abs(b - A @ y).max()
    assert r <= 1e-12 * (factor.norm * np.abs(y).max() + np.abs(b).max())
    assert np.abs(y - x).max() <= 1e-9
    assert factor.solves >= 1


@pytest.mark.parametrize("case", ["smooth", "layer"])
def test_trace_counts_triangular_solves(monkeypatch, case):
    counted = {"rhs": 0}
    splu = egbp.solver.spla.splu

    class CountingLU:
        def __init__(self, lu):
            self.lu, self.nnz = lu, lu.nnz

        def solve(self, b):
            counted["rhs"] += 1 if b.ndim == 1 else b.shape[1]
            return self.lu.solve(b)

    monkeypatch.setattr(egbp.solver.spla, "splu", lambda *a, **k: CountingLU(splu(*a, **k)))
    mesh, spec = _smooth_problem() if case == "smooth" else _layer_problem()
    trace = solve_bound_preserving(mesh, spec).trace
    assert trace.triangular_solves == counted["rhs"]
    # A00: the initial solve and one per sweep; A11: the initial solve, one
    # per Newton step and the capacitance columns; refinement sweeps on top
    floor = 2 + trace.outer_iters + sum(trace.inner_iters_per_outer)
    assert trace.triangular_solves >= floor + sum(trace.capacitance_columns_per_outer)
