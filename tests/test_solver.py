import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import egbp.solver
from egbp.assembly import BlockSystem, ProblemSpec, assemble_system
from egbp.cli import StudyConfig, apply_experiment_defaults, smooth_exact
from egbp.fespace import DofMap, dirichlet_lift, element_vertex_values
from egbp.limiter import patch_extremes
from egbp.mesh import build_structured, refine_uniform
from egbp.solver import (
    EGSolution,
    SolveTrace,
    SolverError,
    SpdFactor,
    inner_richardson,
    nonlinear_residual,
    outer_constant_solve,
    solve_bound_preserving,
    solve_spd,
    solve_standard_eg,
    write_trace,
)


def make_spec(**kw):
    base = dict(
        epsilon=1.0,
        mu=1.0,
        gamma=10.0,
        beta=2,
        alpha=1.0,
        omega=0.5,
        tol_inner=1e-12,
        tol_outer=1e-10,
    )
    base.update(kw)
    return ProblemSpec(**base)


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
    assert np.array_equal(u.linear_coeffs[bdry], lift.linear_coeffs[bdry])


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
    u, n, incs, converged = inner_richardson(u_star, w0, system, spec, extremes)
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
    u, n, incs, converged = inner_richardson(
        np.zeros(dofs.n_interior), w0, system, spec, extremes
    )
    assert converged
    assert incs[-1] <= spec.tol_inner


def test_outer_constant_solve_block_consistency():
    mesh = build_structured(3, 3)
    dofs = DofMap.from_mesh(mesh)
    spec = make_spec(f=lambda x, y: 1.0 + 0.0 * x, bounds=(-100.0, 100.0))
    system = assemble_system(mesh, spec, dofs)
    rng = np.random.default_rng(1)
    u1 = 1e-3 * rng.normal(size=dofs.n_interior)
    w0 = np.zeros(mesh.num_elements)
    extremes = patch_extremes(mesh, w0, dofs)
    u0 = outer_constant_solve(u1, w0, system, spec, extremes)
    # with the wide bounds the truncation is the identity
    res = system.A00 @ u0 - (system.b0 - system.A10.T @ u1)
    assert np.linalg.norm(res) <= 1e-11 * np.linalg.norm(system.b0)


def test_outer_constant_solve_requires_extremes():
    mesh = build_structured(2, 2)
    dofs = DofMap.from_mesh(mesh)
    spec = make_spec()
    system = assemble_system(mesh, spec, dofs)
    with pytest.raises(ValueError):
        outer_constant_solve(np.zeros(dofs.n_interior), np.zeros(8), system, spec)


def test_raw_outer_update_skips_truncation():
    mesh = build_structured(3, 3)
    dofs = DofMap.from_mesh(mesh)
    spec_v = make_spec(raw_outer_update=True, bounds=(0.0, 1e-6))
    system = assemble_system(mesh, spec_v, dofs)
    rng = np.random.default_rng(4)
    u1 = rng.normal(size=dofs.n_interior)
    w0 = np.zeros(mesh.num_elements)
    u0_v = outer_constant_solve(u1, w0, system, spec_v, None)
    res = system.A00 @ u0_v - (system.b0 - system.A10.T @ u1)
    assert np.linalg.norm(res) <= 1e-10 * max(1.0, np.linalg.norm(system.b0))


def test_drop_inner_coupling_drops_coupling():
    mesh = build_structured(3, 3)
    dofs = DofMap.from_mesh(mesh)
    spec_v = make_spec(drop_inner_coupling=True, bounds=(-100.0, 100.0))
    system = assemble_system(mesh, spec_v, dofs)
    w0 = np.full(mesh.num_elements, 0.3)
    extremes = patch_extremes(mesh, w0, dofs)
    # with the coupling dropped, the fixed point solves A11 u = b1
    u_star = solve_spd(system.A11, system.b1)
    u, n, incs, converged = inner_richardson(u_star, w0, system, spec_v, extremes)
    assert converged and n == 1 and incs[0] <= 1e-12


def test_bound_preserving_solve_smooth_problem():
    mesh = build_structured(8, 4, (-1.0, 0.0, 1.0, 1.0))
    u_exact = lambda x, y: np.sin(np.pi * (x + 1.0) / 2.0) * np.sin(np.pi * y)
    eps = 1e-5
    f = lambda x, y: (eps * (np.pi**2 / 4.0 + np.pi**2) + 1.0) * u_exact(x, y)
    spec = make_spec(
        epsilon=eps, beta=4, f=f, u_D=lambda x, y: 0.0 * x, bounds=(0.0, 1.0),
        tol_inner=1e-12, tol_outer=1e-9,
    )
    sol = solve_bound_preserving(mesh, spec)
    assert sol.trace.converged
    assert sol.trace.outer_iters <= 30
    vals = element_vertex_values(mesh, sol.u_plus)
    interior = ~mesh.boundary_vertex[mesh.triangles]
    assert vals[interior].min() >= -1e-10
    assert vals[interior].max() <= 1.0 + 1e-10
    assert sol.trace.nonlinear_residual <= 1e-10


def test_bound_preserving_factors_only_A11_and_A00(monkeypatch):
    names = []

    class RecordingFactor(SpdFactor):
        def __init__(self, A, name="system"):
            names.append(name)
            super().__init__(A, name=name)

    def monolithic(*args, **kwargs):
        raise AssertionError("the bound-preserving solve used the monolithic system")

    monkeypatch.setattr(egbp.solver, "SpdFactor", RecordingFactor)
    monkeypatch.setattr(egbp.solver, "solve_standard_eg", monolithic)
    monkeypatch.setattr(BlockSystem, "full_matrix", monolithic)
    mesh = build_structured(4, 4)
    spec = make_spec(epsilon=1e-3, beta=4, f=lambda x, y: 1.0 + 0.0 * x, bounds=(0.0, 1.0))
    sol = solve_bound_preserving(mesh, spec)
    assert sol.trace.converged
    assert sorted(names) == ["A00", "A11"]


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
    assert nonlinear_residual(system, spec, dofs, sol) <= 1e-14


def test_solution_split_consistency():
    mesh = build_structured(5, 5)
    spec = make_spec(
        epsilon=1e-4, f=lambda x, y: 1.0 + 0.0 * x, bounds=(0.0, 0.4)
    )
    sol = solve_bound_preserving(mesh, spec)
    um = sol.u_minus
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
        ({"max_inner": 1, "tol_inner": 1e-14}, "inner_stalled"),
        ({"max_outer": 1}, "max_outer"),
    ],
)
def test_stop_reason(limits, reason):
    mesh = build_structured(4, 4)
    spec = make_spec(
        epsilon=1e-3, f=lambda x, y: 1.0 + 0.0 * x, bounds=(0.0, 0.4), **limits
    )
    trace = solve_bound_preserving(mesh, spec).trace
    assert trace.stop_reason == reason
    assert trace.converged == (reason == "converged")
    if reason == "inner_stalled":
        assert trace.outer_iters == 1 and trace.inner_iters_per_outer == [1]


def test_trace_bookkeeping():
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


def test_write_trace_csv(tmp_path):
    trace = SolveTrace(
        outer_iters=2,
        inner_iters_per_outer=[2, 1],
        inner_residual_histories=[[0.5, 0.01], [0.001]],
        outer_increments=[0.1, 1e-11],
        converged=True,
        feasible_per_outer=[True, True],
    )
    path = tmp_path / "trace.csv"
    write_trace(trace, path, level=3)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "level,m,n,inner_increment,outer_increment,feasible"
    assert len(lines) == 4
    assert lines[1].startswith("3,0,0,0.5,,")
    # outer increment recorded on the last inner row of each sweep
    assert lines[1].split(",")[4] == ""
    assert float(lines[2].split(",")[4]) == 0.1
    assert float(lines[3].split(",")[4]) == 1e-11


def test_invalid_omega_rejected():
    with pytest.raises(ValueError):
        make_spec(omega=0.0)
    with pytest.raises(ValueError):
        make_spec(omega=2.0)
