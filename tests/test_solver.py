import gc
import threading
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import egbp.assembly
import egbp.solver
from egbp.assembly import BlockSystem, ProblemSpec, _order, assemble_system
from egbp.cli import StudyConfig, apply_experiment_defaults, layer_source, main, smooth_exact
from egbp.fespace import DofMap, dirichlet_lift
from egbp.limiter import feasibility_check, patch_extremes
from egbp.mesh import _build_mesh, build_structured, refine_uniform
from egbp.solver import (
    EGSolution,
    OrderedFactor,
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
    padded_restricted_solve,
    penalty_stiffness_oracle,
    record_cli_solves,
    richardson_step1_oracle,
    sheared,
    solve_spd,
    stretched,
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


def _a11_factor(mesh, system, jacobi=False):
    """OrderedFactor of the system's A11: Jacobi, or factored in the stencil's vertex order."""
    return OrderedFactor(system.A11, "A11", None if jacobi else _order(mesh, system.dofs, "vertex"))


def _count_lu_solves(monkeypatch):
    """{"lu_solve": n}, n the calls of SpdFactor.lu_solve from now on, on every factor."""
    counted, lu_solve = {"lu_solve": 0}, SpdFactor.lu_solve

    def counting(self, b):
        counted["lu_solve"] += 1
        return lu_solve(self, b)

    monkeypatch.setattr(SpdFactor, "lu_solve", counting)
    return counted


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


def test_spd_factor_corrects_a_factor_of_2A(monkeypatch):
    # CG does not change when its preconditioner is scaled: with the LU of
    # 2A the solve meets backward error 1e-15 within n steps, one
    # triangular solve each
    counted = _count_lu_solves(monkeypatch)
    A = sp.csc_matrix(np.diag([2.0, 3.0, 4.0]) + 0.5)
    factor = SpdFactor(A, name="A")
    factor.lu = spla.splu(sp.csc_matrix(2.0 * A))
    b = np.array([1.0, -2.0, 3.0])
    x = factor.solve(b)
    assert np.abs(b - A @ x).max() <= 1e-15 * (egbp.solver._inf_norm(A) * np.abs(x).max() + np.abs(b).max())
    assert np.abs(x - np.linalg.solve(A.toarray(), b)).max() <= 1e-15 * np.abs(x).max()
    assert 1 <= counted["lu_solve"] <= 3


def test_spd_factor_raises_when_the_preconditioner_is_indefinite(monkeypatch):
    # with the LU of -A the preconditioner is negative definite: CG breaks down at its first step
    counted = _count_lu_solves(monkeypatch)
    A = sp.csc_matrix(np.diag([2.0, 3.0, 4.0]) + 0.5)
    factor = SpdFactor(A, name="A")
    factor.lu = spla.splu(sp.csc_matrix(-A))
    with pytest.raises(SolverError, match=r"CG on A broke down: r\^T z = .*preconditioner is not positive definite"):
        factor.solve(np.ones(3))
    assert counted["lu_solve"] == 1


def test_spd_factor_raises_on_a_nan_rhs():
    # NaN compares false with every bound: the stop test must not read it as converged
    factor = SpdFactor(sp.csc_matrix(np.diag([2.0, 3.0, 4.0]) + 0.5), name="A")
    with pytest.raises(SolverError, match="CG on A met non-finite values after 0 steps"):
        factor.solve(np.array([1.0, np.nan, 1.0]))


@pytest.mark.parametrize("epsilon", [1.0, 1e-5])
def test_factor_solves_take_one_cg_step(monkeypatch, epsilon):
    # on the nested-dissection factors of A11 and A00 of 4,096 smooth
    # elements, an all-free solve meets backward error 1e-15 in one CG step
    # preconditioned with the factor: one triangular solve per right-hand side
    mesh, spec = _smooth_problem(refinements=3, epsilon=epsilon)
    counted = _count_lu_solves(monkeypatch)
    system = assemble_system(mesh, spec)
    rng = np.random.default_rng(3)
    for A, kind, b in ((system.A11, "vertex", system.b1), (system.A00, "element", system.b0)):
        p = _order(mesh, system.dofs, kind)
        factor = OrderedFactor(A, "A", p)
        # A is held as given, with no copy; the factor keeps A[p][:, p] with sorted indices
        ordered = sp.csc_matrix(A)[p][:, p].tocsr()
        assert factor.A is A and factor.full.A.has_sorted_indices
        assert all(np.array_equal(getattr(factor.full.A, a), getattr(ordered, a)) for a in ("indptr", "indices", "data"))
        counted["lu_solve"] = 0
        for rhs in (b, rng.normal(size=b.size)):
            x, steps = factor.solve(rhs)
            assert np.abs(rhs - A @ x).max() <= 1e-15 * (factor.norm * np.abs(x).max() + np.abs(rhs).max())
            assert steps == 1
        assert counted["lu_solve"] == 2


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


def test_bound_preserving_without_interior_vertices():
    # One cell: A11 is 0 x 0, so Step 2 alone solves A00 u0 = b0, the
    # monolithic system of the standard solve.
    mesh = build_structured(1, 1)
    g = lambda x, y: 0.25 + 0.5 * x * y
    spec = make_spec(f=lambda x, y: 1.0 + 0.0 * x, u_D=g, bounds=(0.0, 1.0))
    system = assemble_system(mesh, spec)
    assert system.A11.shape == (0, 0)
    sol = solve_bound_preserving(mesh, spec, system=system)
    u_std = solve_standard_eg(mesh, spec, system=system)
    assert sol.trace.converged
    assert np.array_equal(sol.u.linear_coeffs, u_std.linear_coeffs)
    scale = np.abs(u_std.const_coeffs).max()
    assert np.abs(sol.u.const_coeffs - u_std.const_coeffs).max() <= 1e-12 * scale
    assert sol.trace.fill_nnz == SpdFactor(system.A00).lu.nnz


@pytest.mark.parametrize(
    "mesh, gamma, beta",
    [
        (refine_uniform(build_structured(8, 8)), 10.0, 1),
        (sheared(refine_uniform(build_structured(8, 8)), 2.0), 10.0, 1),
        (build_structured(2, 300), 10.0, 1),  # cells 150:1
        (refine_uniform(build_structured(8, 8)), 3.0, 1),
        (refine_uniform(build_structured(8, 8)), 10.0, 2),
        (refine_uniform(build_structured(8, 8)), 10.0, 4),
    ],
    ids=["structured", "sheared", "stretched", "gamma3", "beta2", "beta4"],
)
def test_standard_eg_matches_direct_solve(mesh, gamma, beta):
    # the Schur-complement CG agrees with a sparse direct solve of the
    # monolithic system, including a nonzero boundary lift; beta moves
    # K_gamma's weight by h^(1 - beta)
    g = lambda x, y: 0.5 + 0.25 * x - 0.5 * y
    spec = make_spec(epsilon=1e-3, gamma=gamma, beta=beta, alpha=0.0, f=layer_source, u_D=g, bounds=(-10.0, 10.0))
    system = assemble_system(mesh, spec)
    ref = spla.spsolve(system.full_matrix().tocsc(), np.concatenate([system.b1, system.b0]))
    u = solve_standard_eg(mesh, spec, system=system)
    x = np.concatenate([u.linear_coeffs[system.dofs.interior_vertex_ids], u.const_coeffs])
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


def test_standard_eg_raises_on_indefinite_schur_complement():
    # A10 scaled by 3: A11 and A00 stay SPD, S = A11 - 9 A10 A00^{-1} A10^T does not
    mesh = build_structured(8, 8)
    spec = make_spec(epsilon=1e-3, beta=1, alpha=0.0, f=lambda x, y: 1.0 + 0.0 * x)
    system = assemble_system(mesh, spec)
    with pytest.raises(SolverError, match="broke down.*not positive definite"):
        solve_standard_eg(mesh, spec, system=replace(system, A10=3.0 * system.A10))


def test_standard_eg_breakdown_names_the_penalty():
    # On the mesh sheared by x -> x + 2y, at eps = 1, gamma = 10 and beta = 1
    # the penalty is below its coercivity threshold: S is indefinite, and
    # the error names the gamma and beta that made it so.
    mesh = sheared(refine_uniform(build_structured(8, 8)), 2.0)
    spec = make_spec(epsilon=1.0, gamma=10.0, beta=1, alpha=0.0, f=lambda x, y: 1.0 + 0.0 * x)
    message = r"^CG on S broke down: p\^T A p = -.*, S is not positive definite \(penalty gamma = 10, beta = 1\)$"
    with pytest.raises(SolverError, match=message):
        solve_standard_eg(mesh, spec)


def test_standard_eg_raises_when_the_monolithic_residual_misses(monkeypatch):
    # a Schur solve that returns c S^{-1} g leaves a monolithic backward
    # error above 1e-15, and the solve checks it once: c = 1/2, and
    # c = 1 + 1e-12, whose backward error of 8e-15 a check at 1e-13 passes
    mesh = build_structured(8, 8)
    spec = make_spec(epsilon=1e-3, beta=1, alpha=0.0, f=lambda x, y: 1.0 + 0.0 * x)
    pcg = egbp.solver._pcg
    for c in (0.5, 1.0 + 1e-12):
        monkeypatch.setattr(egbp.solver, "_pcg", lambda *args, c=c: (c * pcg(*args)[0], 0))
        with pytest.raises(SolverError, match="standard EG system missed backward error 1e-15"):
            solve_standard_eg(mesh, spec)


@pytest.mark.parametrize("block", ["b1", "b0"])
def test_standard_eg_raises_on_a_nan_rhs(block):
    # a NaN in either block of the load vector reaches the Schur CG's residual
    mesh = build_structured(8, 8)
    spec = make_spec(epsilon=1e-3, beta=1, alpha=0.0, f=lambda x, y: 1.0 + 0.0 * x)
    system = assemble_system(mesh, spec)
    b = getattr(system, block).copy()
    b[3] = np.nan
    with pytest.raises(SolverError, match=r"CG on S met non-finite values after 0 steps"):
        solve_standard_eg(mesh, spec, system=replace(system, **{block: b}))


def test_standard_eg_raises_at_the_iteration_cap():
    # A11 = I, A00 = I and A10 = [diag(sqrt(1 - lam)), 0] make S = diag(lam)
    # with Strakos's eigenvalues (Linear Algebra Appl. 154-156, 1991), on
    # which CG in floating point needs about 160 steps for n = 49; at
    # gamma = 1e12, K_gamma^{-1} is below 1e-9 and the preconditioner is I
    mesh = build_structured(8, 8)
    spec = make_spec(epsilon=1e-3, gamma=1e12, beta=1, alpha=0.0, f=lambda x, y: 1.0 + 0.0 * x)
    system = assemble_system(mesh, spec)
    n1, n0 = system.A10.shape
    i = np.arange(n1)
    lam = 1e-4 + i / (n1 - 1) * (1.0 - 1e-4) * 0.8 ** (n1 - 1 - i)
    A10 = sp.hstack([sp.diags(np.sqrt(1.0 - lam)), sp.csr_matrix((n1, n0 - n1))]).tocsr()
    eye = lambda n: sp.identity(n, format="csr")
    hard = replace(system, A11=eye(n1), A10=A10, A00=eye(n0), b1=np.ones(n1), b0=np.zeros(n0))
    with pytest.raises(SolverError, match="missed backward error 1e-15 in 49 iterations"):
        solve_standard_eg(mesh, spec, system=hard)


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


@pytest.mark.parametrize(
    "case",
    ["dofs_of_another_mesh", "vertex_out_of_range", "not_inverse", "short_lift", "nan_lift",
     "bp_system_of_another_mesh", "standard_system_of_another_mesh", "a00_of_another_size"],
)
def test_input_that_does_not_fit_the_mesh_is_rejected(case):
    # a ValueError that names the argument, before any index work (else an
    # IndexError inside the assembly or the solve, or, for a NaN lift, a
    # failed CG in the solve)
    mesh, spec = build_structured(4, 4), make_spec(f=lambda x, y: 1.0 + 0.0 * x)
    dofs, lift, other = DofMap.from_mesh(mesh), np.zeros(mesh.num_vertices), build_structured(5, 4)
    iv, v2i = dofs.interior_vertex_ids, dofs.vertex_to_interior
    system = assemble_system(mesh, spec)
    call, message = {
        "dofs_of_another_mesh": (lambda: assemble_system(mesh, spec, DofMap.from_mesh(other)), "dofs.vertex_to_interior"),
        "vertex_out_of_range": (
            lambda: assemble_system(mesh, spec, DofMap(np.append(iv[:-1], mesh.num_vertices), v2i)), "dofs.interior_vertex_ids"
        ),
        "not_inverse": (lambda: assemble_system(mesh, spec, DofMap(iv[::-1], v2i)), "not the inverse"),
        "short_lift": (lambda: assemble_system(mesh, spec, dofs, lift[:-1]), "lift"),
        "nan_lift": (lambda: assemble_system(mesh, spec, dofs, np.where(np.arange(lift.size) == 3, np.nan, lift)), "lift"),
        "bp_system_of_another_mesh": (
            lambda: solve_bound_preserving(mesh, spec, system=assemble_system(other, spec)), "dofs.vertex_to_interior"
        ),
        "standard_system_of_another_mesh": (
            lambda: solve_standard_eg(mesh, spec, system=assemble_system(other, spec)), "dofs.vertex_to_interior"
        ),
        "a00_of_another_size": (lambda: solve_bound_preserving(mesh, spec, system=replace(system, A00=system.A00[:-1, :-1])), "system.A00"),
    }[case]
    with pytest.raises(ValueError, match=message):
        call()


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
    a11 = _a11_factor(mesh, system)
    u, n, incs, converged, cg_steps, clamped = inner_richardson(u_star, w0, system, spec, extremes, a11)
    assert converged
    # no node clamped, and the start meets the backward error: no CG step
    assert (n, cg_steps, clamped) == (1, 0, 0)
    assert incs[0] <= 1e-12
    assert np.allclose(u, u_star, atol=1e-11)


def test_inner_richardson_converges_from_zero():
    mesh = build_structured(4, 4)
    dofs = DofMap.from_mesh(mesh)
    spec = make_spec(epsilon=1e-3, f=lambda x, y: 1.0 + 0.0 * x, bounds=(0.0, 1.0))
    system = assemble_system(mesh, spec, dofs)
    w0 = np.zeros(mesh.num_elements)
    extremes = patch_extremes(mesh, w0, dofs)
    a11 = _a11_factor(mesh, system)
    u, n, incs, converged, cg_steps, clamped = inner_richardson(
        np.zeros(dofs.n_interior), w0, system, spec, extremes, a11
    )
    # 8 of the 9 nodes clamped: each Newton step solves for one free node, in one CG step
    assert converged and (n, cg_steps, clamped) == (2, 2, 8)
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
    a00 = OrderedFactor(system.A00, "A00", _order(mesh, dofs, "element"))
    u0, steps = outer_constant_solve(u1, system, spec, extremes, a00)
    assert steps == 1  # one CG step preconditioned with the factor
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


def _smooth_problem(refinements=0, epsilon=1e-5):
    """(mesh, spec) of the smooth problem on the 8 x 4 mesh refined
    ``refinements`` times; unrefined at eps = 1e-5 its solve clamps 1 of 21
    nodes and factors A11, refined twice (1,024 elements) it takes Jacobi-CG."""
    mesh = build_structured(8, 4, (-1.0, 0.0, 1.0, 1.0))
    for _ in range(refinements):
        mesh = refine_uniform(mesh)
    u_exact = lambda x, y: np.sin(np.pi * (x + 1.0) / 2.0) * np.sin(np.pi * y)
    f = lambda x, y: (epsilon * (np.pi**2 / 4.0 + np.pi**2) + 1.0) * u_exact(x, y)
    spec = make_spec(epsilon=epsilon, beta=4, f=f, u_D=lambda x, y: 0.0 * x, bounds=(0.0, 1.0))
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

    Asserts that every factored matrix is A00[p][:, p] or A11[p][:, p]
    (entry for entry), p a recorded nested-dissection order, which is a
    permutation; that the A11 factor lives for the whole solve, and that
    the monolithic paths are never used.
    """
    dofs = DofMap.from_mesh(mesh)
    system = assemble_system(mesh, spec, dofs)
    orders, kinds, a11_factors = [], [], []
    dissection = egbp.assembly._nested_dissection

    def recording_dissection(points, pattern):
        p = dissection(points, pattern)
        assert np.array_equal(np.sort(p), np.arange(pattern.shape[0]))
        orders.append(p)
        return p

    class RecordingFactor(SpdFactor):
        def __init__(self, A, name="system"):
            super().__init__(A, name=name)
            matches = [
                kind
                for kind, M in (("A00", system.A00), ("A11", system.A11))
                if any(_same_matrix(self.A, M[p][:, p]) for p in orders if p.size == M.shape[0])
            ]
            assert len(matches) == 1, "factored a matrix that is neither A00 nor A11"
            kinds.append(matches[0])
            if matches[0] == "A11":
                a11_factors.append(weakref.ref(self))

    solve_free = OrderedFactor.solve

    def recording_solve(self, b, free=None, x0=None):
        if self.name != "A11":  # A00 always solves on all its unknowns, from zero
            assert free is None and x0 is None
        solved = solve_free(self, b, free, x0)
        assert all(ref() is not None for ref in a11_factors)
        return solved

    def monolithic(*args, **kwargs):
        raise AssertionError("the bound-preserving solve used the monolithic system")

    monkeypatch.setattr(egbp.assembly, "_nested_dissection", recording_dissection)
    monkeypatch.setattr(egbp.solver, "SpdFactor", RecordingFactor)
    monkeypatch.setattr(OrderedFactor, "solve", recording_solve)
    monkeypatch.setattr(egbp.solver, "solve_standard_eg", monolithic)
    monkeypatch.setattr(BlockSystem, "full_matrix", monolithic)
    trace = solve_bound_preserving(mesh, spec, dofs, system).trace
    assert trace.converged
    assert len(orders) == 2  # one order each for A11 and A00
    return kinds, trace


def test_bound_preserving_factors_only_A11_and_A00(monkeypatch):
    # most nodes clamped: Step 1 factors no submatrix.  Its CG on the full
    # factor takes 9 steps in the first sweep; that sweep's last Newton step
    # and the later sweeps clamp all 49 nodes, and take no CG step
    kinds, trace = _factored_kinds(monkeypatch, *_many_clamped_problem())
    assert kinds == ["A11", "A00"]
    assert trace.clamped_per_outer == [49, 49, 49] and trace.inner_iters_per_outer == [3, 1, 1]
    assert trace.cg_steps_per_outer == [9, 0, 0]


def test_smooth_solve_factors_A11_once(monkeypatch):
    # one clamped node: CG on the full factor
    kinds, trace = _factored_kinds(monkeypatch, *_smooth_problem())
    assert kinds == ["A11", "A00"]
    assert sum(trace.cg_steps_per_outer) >= 1


def test_standard_eg_factors_only_A11_and_A00(monkeypatch):
    # the comparator factors A00 in its nested-dissection order, K_gamma in
    # A11's order and, unless _jacobi_pays, A11 in that order too; it never
    # builds the monolithic matrix.  On 4,608 layer elements eps = 1e-7 takes
    # diag(A11)^{-1} in place of the A11 factor, eps = 1e-3 the factor.  The
    # mesh's stencil keeps both orders: the second solve makes neither again.
    # The comparator makes its factors in turn, K_gamma, A00, then A11, and
    # A11's order, for K_gamma, before A00's.
    mesh, layer_spec = _layer_problem(refinements=2)
    orders, factored = [], []
    dissection = egbp.assembly._nested_dissection

    def recording_dissection(points, pattern):
        orders.append(dissection(points, pattern))
        return orders[-1]

    class RecordingFactor(SpdFactor):
        def __init__(self, A, name="system"):
            super().__init__(A, name=name)
            factored.append((name, self.A))

    def monolithic(*args, **kwargs):
        raise AssertionError("the standard solve built the monolithic matrix")

    monkeypatch.setattr(egbp.assembly, "_nested_dissection", recording_dissection)
    monkeypatch.setattr(egbp.solver, "SpdFactor", RecordingFactor)
    monkeypatch.setattr(BlockSystem, "full_matrix", monolithic)
    for epsilon, names in ((1e-7, ["K_gamma", "A00"]), (1e-3, ["K_gamma", "A00", "A11"])):
        spec = replace(layer_spec, epsilon=epsilon, beta=1, alpha=0.0)
        system = assemble_system(mesh, spec)
        orders.clear()
        factored.clear()
        u = solve_standard_eg(mesh, spec, system=system)
        assert [name for name, _ in factored] == names
        if epsilon == 1e-7:
            p1, p0 = orders
        assert len(orders) == (2 if epsilon == 1e-7 else 0)
        made = dict(factored)
        assert _same_matrix(made["A00"], system.A00[p0][:, p0])
        K = penalty_stiffness_oracle(mesh, spec, system.dofs.interior_vertex_ids)[np.ix_(p1, p1)]
        assert np.abs(made["K_gamma"].toarray() - K).max() <= 1e-13 * np.abs(K).max()
        if "A11" in names:
            assert _same_matrix(made["A11"], system.A11[p1][:, p1])
        x1, x0 = u.linear_coeffs[system.dofs.interior_vertex_ids], u.const_coeffs
        r1 = system.A11 @ x1 + system.A10 @ x0 - system.b1
        r0 = system.A10.T @ x1 + system.A00 @ x0 - system.b0
        assert np.abs(np.concatenate([r1, r0])).max() <= 1e-10 * np.abs(system.b0).max()


def _comparator_problem(epsilon):
    """(mesh, spec, system) of the comparator on a fresh 4,608-element layer mesh:
    at eps = 1e-7 it takes the Chebyshev block in place of an A11 factor, at 1e-3 the factor."""
    mesh, layer_spec = _layer_problem(refinements=2)
    spec = replace(layer_spec, epsilon=epsilon, beta=1, alpha=0.0)
    return mesh, spec, assemble_system(mesh, spec)


def _factor_threads(monkeypatch, fail=None):
    """[name, thread that made it, threads alive then, thread that dropped it]
    of each factor made from now on, the last None while its SuperLU object
    lives; a factor named ``fail`` raises SolverError once made."""
    seen = []

    class Tracked:
        # holds the factor's SuperLU object, the only reference to it, so both die together
        def __init__(self, lu, record):
            self.lu, self.record = lu, record

        def __getattr__(self, attr):
            return getattr(self.lu, attr)

        def __del__(self):
            self.record[3] = threading.get_ident()

    class RecordingFactor(SpdFactor):
        def __init__(self, A, name="system"):
            record = [name, threading.get_ident(), threading.active_count(), None]
            seen.append(record)
            super().__init__(A, name=name)
            self.lu = Tracked(self.lu, record)
            if name == fail:
                raise SolverError("factorization of %s failed" % name)

    monkeypatch.setattr(egbp.solver, "SpdFactor", RecordingFactor)
    return seen


@pytest.mark.parametrize("epsilon", [1e-7, 1e-3])
def test_standard_eg_factors_on_the_calling_thread(monkeypatch, epsilon):
    # The comparator starts no thread: K_gamma, A00 and, on the factor path,
    # A11 are made in that order on the caller, with no other thread alive,
    # and each dies there: K_gamma's and A11's when the solve ends, A00's
    # with its mesh.  SciPy's SuperLU leaks the L and U of a factor dropped
    # on another thread than the one that made it.  A failing K_gamma factor
    # raises before anything else is factored, a failing A00 factor after
    # K_gamma, and both factors still die on the caller.
    before, caller = threading.active_count(), threading.get_ident()
    mesh, spec, system = _comparator_problem(epsilon)
    seen = _factor_threads(monkeypatch)
    solve_standard_eg(mesh, spec, system=system)
    assert threading.active_count() == before
    names = ["K_gamma", "A00"] + (["A11"] if epsilon == 1e-3 else [])
    assert [(name, thread, alive) for name, thread, alive, _ in seen] == [(name, caller, before) for name in names]
    del mesh, system
    gc.collect()
    assert [dropped for *_, dropped in seen] == [caller] * len(names)

    stiffness = egbp.solver.penalty_stiffness

    def bad_stiffness(*args):
        K = stiffness(*args).copy()
        K[0, 0] = -K[0, 0]
        return K

    seen.clear()
    monkeypatch.setattr(egbp.solver, "penalty_stiffness", bad_stiffness)
    with pytest.raises(SolverError, match="^matrix K_gamma has a nonpositive diagonal entry$"):
        solve_standard_eg(*_comparator_problem(epsilon)[:2])
    assert threading.active_count() == before
    assert [(name, thread, alive) for name, thread, alive, _ in seen] == [("K_gamma", caller, before)]
    monkeypatch.undo()

    mesh, spec, system = _comparator_problem(epsilon)
    seen = _factor_threads(monkeypatch, fail="A00")
    with pytest.raises(SolverError, match="^factorization of A00 failed$") as failed:
        solve_standard_eg(mesh, spec, system=system)
    assert threading.active_count() == before
    del failed
    gc.collect()
    assert seen == [["K_gamma", caller, before, caller], ["A00", caller, before, caller]]


def _comparator_cg_steps(monkeypatch, refinements, gamma, epsilon):
    """CG steps of the standard solve of the layer problem (beta = 1, alpha = 0)."""
    mesh, spec = _layer_problem(refinements)
    spec = replace(spec, epsilon=epsilon, gamma=gamma, beta=1, alpha=0.0)
    steps, pcg = [], egbp.solver._pcg

    def counting_pcg(*args):
        x, n = pcg(*args)
        steps.append(n)
        return x, n

    monkeypatch.setattr(egbp.solver, "_pcg", counting_pcg)
    solve_standard_eg(mesh, spec)
    return mesh.num_elements, sum(steps)


def test_standard_eg_cg_steps_do_not_grow_with_refinement(monkeypatch):
    # A11^{-1} + K_gamma^{-1} preconditions the Schur CG uniformly in h: A11
    # alone took 26 and 46 steps at gamma = 10, and 95 at gamma = 2.  At
    # eps = 1e-3 the comparator keeps the A11 factor.
    (n_coarse, coarse), (n_fine, fine) = (_comparator_cg_steps(monkeypatch, k, 10.0, 1e-3) for k in (2, 3))
    assert (n_coarse, coarse, n_fine, fine) == (4608, 14, 18432, 16)
    assert fine - coarse <= 5
    # at eps = 1e-7 a Chebyshev polynomial of D^{-1} A11 times D^{-1}, plus
    # K_gamma^{-1}, with no A11 factor; D^{-1} in its place took 25 and 25
    # steps, and 22 at gamma = 2
    (n_coarse, coarse), (n_fine, fine) = (_comparator_cg_steps(monkeypatch, k, 10.0, 1e-7) for k in (2, 3))
    assert (n_coarse, coarse, n_fine, fine) == (4608, 15, 18432, 17)
    assert fine - coarse <= 5
    assert _comparator_cg_steps(monkeypatch, 3, 2.0, 1e-7) == (18432, 19)


def _chebyshev_degree(A, lo, hi):
    """The degree of _chebyshev's block C of A over [lo, hi], checked densely.

    The degree, read off the D^{-1} applications of one C r, is the smallest
    k whose error bound e_k = 1 / T_k(theta / delta) meets _CHEBYSHEV_ERROR,
    1 if lo = hi; C is symmetric positive definite, and the eigenvalues of
    C A lie within e_k of 1, given that [lo, hi] encloses those of D^{-1} A.
    """
    d = A.diagonal()
    lam = np.linalg.eigvalsh(A.toarray() / np.sqrt(d)[:, None] / np.sqrt(d)[None, :])
    assert lo <= lam[0] and lam[-1] <= hi
    jacobi, calls = OrderedFactor(A, "A11"), []
    inverse = jacobi.inverse
    jacobi.inverse = lambda r: calls.append(1) or inverse(r)
    apply = egbp.solver._chebyshev(jacobi, lo, hi)
    C = np.column_stack([apply(col) for col in np.eye(d.size)])
    k, target = len(calls) // d.size, egbp.solver._CHEBYSHEV_ERROR
    assert len(calls) == k * d.size
    e = lambda k: 0.0 if hi == lo else 1.0 / np.cosh(k * np.arccosh((hi + lo) / (hi - lo)))
    assert e(k) <= target and (k == 1 or e(k - 1) > target)
    assert np.abs(C - C.T).max() <= 1e-14 * np.abs(C).max()
    assert np.linalg.eigvalsh(0.5 * (C + C.T)).min() > 0.0
    L = np.linalg.cholesky(A.toarray())
    mu = np.linalg.eigvalsh(L.T @ C @ L)  # the eigenvalues of C A
    assert 1.0 - e(k) - 1e-13 <= mu[0] and mu[-1] <= 1.0 + e(k) + 1e-13
    return k


@pytest.mark.parametrize("degree", [1, 2, 3, 6])
@pytest.mark.parametrize("epsilon", [1e-7, 1e-4])
@pytest.mark.parametrize(
    "mesh",
    [build_structured(8, 8), sheared(build_structured(8, 8), 2.0), stretched(build_structured(12, 12))],
    ids=["structured", "sheared", "stretched"],
)
def test_chebyshev_preconditioner_is_spd_and_near_inverse(monkeypatch, mesh, epsilon, degree):
    # Dense, on a mass-dominated A11 of at most 121 nodes: an error target
    # between e_degree and e_(degree - 1) of _kappa_bound's interval picks
    # that degree, whose block meets the target (see _chebyshev_degree)
    system = assemble_system(mesh, make_spec(epsilon=epsilon, f=lambda x, y: 1.0 + 0.0 * x))
    lo, hi = egbp.solver._kappa_bound(system.A11, system.M1.diagonal())
    e = lambda k: 1.0 / np.cosh(k * np.arccosh((hi + lo) / (hi - lo)))
    monkeypatch.setattr(egbp.solver, "_CHEBYSHEV_ERROR", np.sqrt(e(degree) * (e(degree - 1) if degree > 1 else 1.0)))
    assert _chebyshev_degree(system.A11, lo, hi) == degree


@pytest.mark.parametrize(
    "case, degree",
    [("point", 1), ("structured", 3), ("sheared", 9), ("stretched", 16)],
)
def test_chebyshev_degree_follows_the_kappa_interval(case, degree):
    # At the shipped error target: one step where the interval is a point (here
    # D^{-1} A = I; a mesh with no interior vertex has lo = hi = 1 too), and
    # more as kappa grows: 3, 9 and 16 at kappa bound 4.0, 32 and 106
    if case == "point":
        A, lo, hi = sp.csr_matrix(np.diag([1.0, 4.0, 9.0])), 1.0, 1.0
    else:
        mesh, epsilon = {
            "structured": (build_structured(8, 8), 1e-7),
            "sheared": (sheared(build_structured(8, 8), 2.0), 3e-3),
            "stretched": (stretched(build_structured(12, 12)), 1e-3),
        }[case]
        system = assemble_system(mesh, make_spec(epsilon=epsilon, f=lambda x, y: 1.0 + 0.0 * x))
        A, (lo, hi) = system.A11, egbp.solver._kappa_bound(system.A11, system.M1.diagonal())
    assert _chebyshev_degree(A, lo, hi) == degree


@pytest.mark.parametrize("p", [None, np.array([1, 0])], ids=["jacobi", "factor"])
@pytest.mark.parametrize("diagonal", [(1.0, 0.0), (1.0, -2.0)])
def test_ordered_factor_rejects_a_nonpositive_diagonal(p, diagonal):
    # the Jacobi mode divides by the diagonal, and the comparator's Chebyshev
    # block needs it positive: both modes raise before any solve
    with pytest.raises(SolverError, match="matrix X has a nonpositive diagonal entry"):
        OrderedFactor(sp.csr_matrix(np.diag(diagonal)), "X", p)


@pytest.mark.parametrize("epsilon, path", [(1e-5, "jacobi"), (1.0, "factor")])
def test_bound_preserving_path_follows_the_kappa_bound(monkeypatch, epsilon, path):
    # 1,024 smooth elements.  At eps = 1e-5 A11 is mass-dominated: nothing of
    # the A11 class is factored, and every Step-1 solve runs Jacobi-CG.  At
    # eps = 1 the bound is 2,000 times larger and the solve factors A11.
    mesh, spec = _smooth_problem(refinements=2, epsilon=epsilon)
    names = []

    class RecordingFactor(SpdFactor):
        def __init__(self, A, name="system"):
            names.append(name)
            super().__init__(A, name=name)

    monkeypatch.setattr(egbp.solver, "SpdFactor", RecordingFactor)
    system = assemble_system(mesh, spec)
    t = solve_bound_preserving(mesh, spec, system=system).trace
    assert t.converged and t.a11_path == path
    lo, hi = egbp.solver._kappa_bound(system.A11, spec.mu * system.M1.diagonal())
    assert t.kappa_bound == hi / lo
    if path == "jacobi":
        assert names == ["A00"]
        assert 4.0 <= t.kappa_bound < 4.01
        assert sum(t.cg_steps_per_outer) >= sum(t.inner_iters_per_outer) > 0
    else:
        assert names == ["A11", "A00"]
        assert 8000.0 < t.kappa_bound < 8400.0


@pytest.mark.parametrize("epsilon", [1e-7, 1e-4, 4e-4, 1e-3])
@pytest.mark.parametrize("refinements", [1, 2])
def test_comparator_factors_A11_where_the_bound_preserving_solve_does(monkeypatch, refinements, epsilon):
    # One A11 rule for both solves (_a11_factor): on one layer system the
    # comparator factors A11 exactly where the bound-preserving solve does,
    # here only at eps = 1e-3 on 1,152 and 4,608 elements
    mesh, spec = _layer_problem(refinements)
    spec = replace(spec, epsilon=epsilon)
    system = assemble_system(mesh, spec)
    path = solve_bound_preserving(mesh, spec, system=system).trace.a11_path
    names = []

    class RecordingFactor(SpdFactor):
        def __init__(self, A, name="system"):
            names.append(name)
            super().__init__(A, name=name)

    monkeypatch.setattr(egbp.solver, "SpdFactor", RecordingFactor)
    solve_standard_eg(mesh, spec, system=system)
    assert ("A11" in names) == (path == "factor")
    assert (mesh.num_elements, path) == ((1152, 4608)[refinements - 1], "factor" if epsilon == 1e-3 else "jacobi")


def _step1_case(name):
    """(system, spec, w0, extremes, A11 OrderedFactor) of one Step-1 problem for the oracle test."""
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
    a11 = _a11_factor(mesh, system)
    return system, spec, w0, patch_extremes(mesh, w0, dofs), a11


@pytest.mark.parametrize("name", ["smooth", "layer", "infeasible"])
def test_step1_newton_matches_richardson_oracle(monkeypatch, name):
    system, spec, w0, extremes, a11 = _step1_case(name)
    a, b = spec.bounds
    lo, hi = a - extremes.under, b - extremes.over
    u0 = np.zeros(system.b1.shape[0])
    counted = _count_lu_solves(monkeypatch)
    u, n, incs, converged, cg_steps, clamped = inner_richardson(u0, w0, system, spec, extremes, a11)
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
    # every free set is solved by CG on the full factor, one triangular
    # solve per step, and no submatrix is factored
    assert counted["lu_solve"] == cg_steps and 0 < clamped == np.count_nonzero(p != u)
    if name == "smooth":
        # 4, 3 and 2 steps for the three Newton steps
        assert clamped_share < 0.1
        assert cg_steps == 9
    elif name == "layer":
        # at least 90% of the 2,209 nodes clamped: 18 steps over the 4 Newton steps
        assert clamped_share >= 0.9
        assert (n, cg_steps) == (4, 18)
    else:
        assert np.any(lo > hi)


def _random_free_set(n, clamped, seed):
    free = np.ones(n, dtype=bool)
    free[np.random.default_rng(seed).choice(n, clamped, replace=False)] = False
    return free


def _attributes(obj):
    """{name: (value, content)} of the attributes of ``obj`` ({} for None): content
    is the bytes of an array, or of a sparse matrix's arrays, else None."""

    def content(v):
        if sp.issparse(v):
            return b"".join(a.tobytes() for a in (v.data, v.indices, v.indptr))
        return v.tobytes() if isinstance(v, np.ndarray) else None

    return {} if obj is None else {name: (v, content(v)) for name, v in vars(obj).items()}


def _as_built(obj, built):
    """True if ``obj`` has exactly the attributes of the snapshot ``built``, bound to the same objects, with the same content."""
    now = _attributes(obj)
    return now.keys() == built.keys() and all(now[k][0] is v and now[k][1] == c for k, (v, c) in built.items())


@pytest.mark.parametrize("clamped", [3, 40])
def test_a11_free_set_solve_matches_fresh_factor(monkeypatch, clamped):
    # 225 nodes: CG on the full factor for every free set, at most |C| + 1
    # steps in exact arithmetic
    mesh = build_structured(16, 16)
    system = assemble_system(mesh, make_spec(f=lambda x, y: 1.0 + 0.0 * x))
    n = system.A11.shape[0]
    free = _random_free_set(n, clamped, seed=clamped)
    b = np.random.default_rng(7).normal(size=np.count_nonzero(free))
    a11 = _a11_factor(mesh, system)
    counted = _count_lu_solves(monkeypatch)
    x, steps = a11.solve(b, free)
    sub = sp.csc_matrix(system.A11[free][:, free])
    x_ref = spla.splu(sub).solve(b)
    assert np.linalg.norm(x - x_ref) <= 1e-13 * np.linalg.norm(x_ref)
    assert np.linalg.norm(sub @ x - b) <= 1e-13 * np.linalg.norm(b)
    assert steps == counted["lu_solve"] == (4 if clamped == 3 else 22)
    # the same free set runs CG with the same preconditioner again, to the same answer
    again, steps_again = a11.solve(b, free)
    assert again.tobytes() == x.tobytes()
    assert steps_again == steps and counted["lu_solve"] == 2 * steps


@pytest.mark.parametrize("clamped", [0, 3, 40])
def test_jacobi_free_set_solve_matches_fresh_factor(clamped):
    # mass-dominated A11 (eps = 1e-5) on 225 nodes, graded by y -> y^2 so that
    # its diagonal spans a factor 8: with jacobi nothing is factored, and CG
    # preconditioned by the diagonal stays within the step bound
    # 1/2 sqrt(kappa) ln(2 / 1e-15) that _jacobi_pays charges
    mesh = stretched(build_structured(16, 16))
    spec = make_spec(epsilon=1e-5, f=lambda x, y: 1.0 + 0.0 * x)
    system = assemble_system(mesh, spec)
    free = _random_free_set(system.A11.shape[0], clamped, seed=clamped)
    b = np.random.default_rng(7).normal(size=np.count_nonzero(free))
    a11 = _a11_factor(mesh, system, jacobi=True)
    x, steps = a11.solve(b, free)
    sub = sp.csc_matrix(system.A11[free][:, free])
    x_ref = spla.splu(sub).solve(b)
    assert np.linalg.norm(x - x_ref) <= 1e-13 * np.linalg.norm(x_ref)
    assert (a11.fill_nnz, a11.full) == (0, None)
    lo, hi = egbp.solver._kappa_bound(system.A11, spec.mu * system.M1.diagonal())
    assert 0 < steps <= 0.5 * np.sqrt(hi / lo) * np.log(2.0 / 1e-15)


@pytest.mark.parametrize("jacobi", [True, False])
def test_all_clamped_free_set_solves_nothing(monkeypatch, jacobi):
    # an empty free set: no factorization, no CG step, no triangular solve
    mesh = build_structured(16, 16)
    system = assemble_system(mesh, make_spec(epsilon=1e-5, f=lambda x, y: 1.0 + 0.0 * x))
    a11 = _a11_factor(mesh, system, jacobi)
    built, counted = _attributes(a11), _count_lu_solves(monkeypatch)
    x, steps = a11.solve(np.zeros(0), np.zeros(system.A11.shape[0], dtype=bool))
    assert x.shape == (0,)
    assert (steps, counted["lu_solve"]) == (0, 0) and _as_built(a11, built)


@pytest.mark.parametrize("case", ["smooth", "layer"])
def test_factors_are_freed_when_the_solve_returns(monkeypatch, case):
    # No reference cycle holds a factor: with the cyclic collector off, every
    # SpdFactor built by either solve but the mesh's A00 is freed once the
    # call returns, and A00's once the mesh goes.  The bound-preserving
    # solve factors A11 and A00, the comparator, on the same A00, K_gamma
    # and A11.
    refs = []

    class RecordingFactor(SpdFactor):
        def __init__(self, A, name="system"):
            super().__init__(A, name=name)
            refs.append((name, weakref.ref(self)))

    monkeypatch.setattr(egbp.solver, "SpdFactor", RecordingFactor)
    mesh, spec = _smooth_problem() if case == "smooth" else _layer_problem(refinements=0)
    elements = mesh.num_elements
    gc.disable()
    try:
        solve_bound_preserving(mesh, spec)
        n_bp = len(refs)
        solve_standard_eg(mesh, spec)
        alive = [name for name, ref in refs if ref() is not None]
        del mesh
        alive_without_mesh = [name for name, ref in refs if ref() is not None]
    finally:
        gc.enable()
    assert (elements, n_bp, len(refs) - n_bp) == ((64, 2, 2) if case == "smooth" else (288, 2, 2))
    assert [name for name, _ in refs].count("A00") == 1
    assert (alive, alive_without_mesh) == (["A00"], [])


def _graded_a11(jacobi):
    """(system, OrderedFactor of A11) of the graded 16 x 16 mesh at eps = 1e-5, 225 nodes."""
    mesh = stretched(build_structured(16, 16))
    system = assemble_system(mesh, make_spec(epsilon=1e-5, f=lambda x, y: 1.0 + 0.0 * x))
    return system, _a11_factor(mesh, system, jacobi)


@pytest.mark.parametrize("jacobi", [True, False])
@pytest.mark.parametrize("clamped", [0, 1, 112, 218])  # none, one, half and 97% of 225 nodes
def test_free_row_cg_matches_the_padded_full_product(jacobi, clamped):
    # The Step-1 CG multiplies only the rows A[I, :] of the free set, which
    # each solve cuts: the answers and CG step counts equal, bit for bit,
    # those of the padded product with the whole A.  Each count
    # runs a set, another set of the same size, the first set again and the
    # all-free set.  On the factor path the full factor preconditions every
    # set: the all-free set takes one step, one clamped node |C| + 1 = 2,
    # half of the nodes 12 and 97% (7 free nodes) 7.  Each set is solved
    # from zero and again from a random start.  No solve leaves anything
    # on the factor: it keeps the attributes it was built with.
    system, a11 = _graded_a11(jacobi)
    own, full = _attributes(a11), _attributes(a11.full)
    n = system.A11.shape[0]
    first, second = (_random_free_set(n, clamped, seed) for seed in (clamped, clamped + 1))
    rng = np.random.default_rng(7)
    for free in (first, second, first, np.ones(n, dtype=bool)):
        b = rng.normal(size=np.count_nonzero(free))
        for x0 in (None, rng.normal(size=b.size)):
            x_ref, steps = padded_restricted_solve(a11, b, free, x0)
            x, cg_steps = a11.solve(b, free, x0)
            assert x.tobytes() == x_ref.tobytes()
            assert cg_steps == steps
            assert _as_built(a11, own) and _as_built(a11.full, full)
            assert steps > 0 if jacobi else steps == (1 if free.all() else {0: 1, 1: 2, 112: 12, 218: 7}[clamped])


@pytest.mark.parametrize("jacobi", [True, False])
def test_inverse_works_in_the_callers_numbering(monkeypatch, jacobi):
    # inverse takes and returns vectors in A's own numbering: on the factor
    # path it recovers x from A x to round-off with one triangular solve, on
    # the Jacobi path it scales by the reciprocal diagonal, bit for bit
    system, a11 = _graded_a11(jacobi)
    counted = _count_lu_solves(monkeypatch)
    A = system.A11
    x = np.random.default_rng(5).normal(size=A.shape[0])
    r = A @ x
    if jacobi:
        assert a11.inverse(r).tobytes() == ((1.0 / A.diagonal()) * r).tobytes()
    else:
        assert np.abs(a11.inverse(r) - x).max() <= 1e-14 * np.abs(x).max()
    assert counted["lu_solve"] == (0 if jacobi else 1)


@pytest.mark.parametrize("jacobi", [True, False])
@pytest.mark.parametrize("clamped", [0, 3, 112])
def test_start_that_meets_the_backward_error_takes_no_step(monkeypatch, jacobi, clamped):
    # A solve started at the answer of the same system returns that start,
    # bit for bit, after 0 CG steps (0 triangular solves on the factor path)
    system, a11 = _graded_a11(jacobi)
    free = _random_free_set(system.A11.shape[0], clamped, seed=clamped)
    b = np.random.default_rng(7).normal(size=np.count_nonzero(free))
    x0, _ = a11.solve(b, free)
    counted = _count_lu_solves(monkeypatch)
    x, steps = a11.solve(b, free, x0)
    assert x.tobytes() == x0.tobytes() and x is not x0
    assert (steps, counted["lu_solve"]) == (0, 0)


@pytest.mark.parametrize("jacobi", [True, False])
def test_random_starts_meet_the_backward_error(jacobi):
    # From a random start, on random free sets of 0 to 218 clamped nodes, CG
    # meets normwise backward error 1e-15 and agrees with the solve from zero
    system, a11 = _graded_a11(jacobi)
    n = system.A11.shape[0]
    rng = np.random.default_rng(11)
    for clamped in (0, 1, 3, 40, 112, 218):
        for seed in range(3):
            free = _random_free_set(n, clamped, seed=100 * clamped + seed)
            sub = system.A11[free][:, free]
            b = rng.normal(size=np.count_nonzero(free))
            x0 = rng.normal(scale=rng.choice([1e-3, 1.0, 1e3]), size=b.size)
            cold, _ = a11.solve(b, free)
            x, _ = a11.solve(b, free, x0)
            norm = egbp.solver._inf_norm(sub)
            assert np.abs(b - sub @ x).max() <= 1e-15 * (norm * np.abs(x).max() + np.abs(b).max())
            assert np.linalg.norm(x - cold) <= 1e-13 * np.linalg.norm(cold)


@pytest.mark.parametrize("refinements, path", [(0, "factor"), (1, "jacobi")])
def test_solves_leave_every_factor_as_built(monkeypatch, refinements, path):
    # A factor is a value: after the solves, every OrderedFactor and its
    # SpdFactor hold the attributes they were built with, bound to the same
    # objects with the same content.  On one layer mesh (288 elements: the
    # factor path, most nodes clamped; 1,152: Jacobi) a bound-preserving
    # solve, a second one that takes the A00 factor the mesh kept, and the
    # comparator on that A00, which takes it too.
    built = []

    class RecordingFactor(OrderedFactor):
        def __init__(self, *args):
            super().__init__(*args)
            built.append((self, _attributes(self), _attributes(self.full)))

    monkeypatch.setattr(egbp.solver, "OrderedFactor", RecordingFactor)
    mesh, spec = _layer_problem(refinements)
    traces = [solve_bound_preserving(mesh, spec).trace for _ in range(2)]
    solve_standard_eg(mesh, spec)
    assert [(t.a11_path, t.a00_reused) for t in traces] == [(path, False), (path, True)]
    assert min(traces[0].clamped_per_outer) > 0
    assert [factor.name for factor, _, _ in built] == ["A11", "A00", "A11", "K_gamma", "A11"]
    for factor, own, full in built:
        assert _as_built(factor, own) and _as_built(factor.full, full), factor.name


@pytest.mark.parametrize("case", ["jacobi", "factor"])
def test_every_factored_matrix_is_exactly_symmetric(monkeypatch, case):
    # SpdFactor.lu_solve takes SuperLU's transposed solve, which solves the
    # same system only for a symmetric matrix: every matrix factored by
    # either solve is equal to its transpose, entry for entry.  On the
    # 48 x 48 mesh the layer data (eps = 1e-7) factor A00 and K_gamma; eps =
    # 1e-2 with bounds [0, 0.5] also factors A11 in both solves, and no
    # submatrix, though Step 1 clamps 1,329 of its 2,209 nodes.
    names = []

    class CheckedFactor(SpdFactor):
        def __init__(self, A, name="system"):
            super().__init__(A, name=name)
            assert (self.A != self.A.T).nnz == 0, name
            names.append((name, self.A.shape[0]))

    monkeypatch.setattr(egbp.solver, "SpdFactor", CheckedFactor)
    mesh = build_structured(48, 48)
    if case == "jacobi":
        spec = _layer_problem(refinements=0)[1]
    else:
        spec = make_spec(epsilon=1e-2, beta=4, f=lambda x, y: 1.0 + 0.0 * x, bounds=(0.0, 0.5))
    assert solve_bound_preserving(mesh, spec).trace.converged
    n_bp = len(names)
    solve_standard_eg(mesh, replace(spec, beta=1, alpha=0.0))
    # the comparator factors K_gamma, A00, then A11
    if case == "jacobi":
        assert names[:n_bp] == [("A00", 4608)]
        assert names[n_bp:] == [("K_gamma", 2209), ("A00", 4608)]
    else:
        assert names[:n_bp] == [("A11", 2209), ("A00", 4608)]
        assert names[n_bp:] == [("K_gamma", 2209), ("A00", 4608), ("A11", 2209)]


def test_step1_cg_solve_checks_its_answer(monkeypatch):
    # CG does not change when its preconditioner is scaled: with the LU of
    # 2·A11 as the full factor the solve still meets backward error 1e-15.
    # With the LU of -A11 the preconditioner is negative definite: CG breaks
    # down at its first step.
    mesh = build_structured(16, 16)
    system = assemble_system(mesh, make_spec(f=lambda x, y: 1.0 + 0.0 * x))
    free = _random_free_set(system.A11.shape[0], 3, seed=3)
    b = np.ones(np.count_nonzero(free))
    sub = system.A11[free][:, free]
    a11 = _a11_factor(mesh, system)
    a11.full.lu = spla.splu(sp.csc_matrix(2.0 * a11.full.A))
    counted = _count_lu_solves(monkeypatch)
    x, steps = a11.solve(b, free)
    assert np.abs(b - sub @ x).max() <= 1e-15 * (a11.norm * np.abs(x).max() + np.abs(b).max())
    assert counted["lu_solve"] == steps == 4  # |C| + 1, as with the LU of A11
    a11 = _a11_factor(mesh, system)
    a11.full.lu = spla.splu(sp.csc_matrix(-a11.full.A))
    with pytest.raises(SolverError, match=r"CG on A11\[I, I\] broke down: r\^T z = .*preconditioner is not positive definite"):
        a11.solve(b, free)


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
        ({"_MAX_INNER": 1}, "inner_stalled"),
        ({"_MAX_OUTER": 1}, "max_outer"),
    ],
)
def test_stop_reason(monkeypatch, limits, reason):
    for name, value in limits.items():
        monkeypatch.setattr(egbp.solver, name, value)
    if reason == "inner_stalled":
        # the first Newton step from the decoupled sweep changes the clamped set
        mesh, spec = _many_clamped_problem()
    else:
        mesh = build_structured(4, 4)
        spec = make_spec(epsilon=1e-3, f=lambda x, y: 1.0 + 0.0 * x, bounds=(0.0, 0.4))
    trace = solve_bound_preserving(mesh, spec).trace
    assert trace.stop_reason == reason
    assert trace.converged == (reason == "converged")
    if reason == "inner_stalled":
        assert trace.outer_iters == 1 and trace.inner_iters_per_outer == [1]


def _free_sets_per_step1(monkeypatch, mesh, spec):
    """Solve; return (trace, free sets of the A11 factor's solves per Step-1 call)."""
    sweeps = []
    newton = egbp.solver.inner_richardson
    solve_free = OrderedFactor.solve

    def recording_newton(*args, **kwargs):
        sweeps.append([])
        return newton(*args, **kwargs)

    def recording_solve(self, b, free=None, x0=None):
        if sweeps and self.name == "A11":  # not the initial sweep, not A00
            sweeps[-1].append(free.copy())
        return solve_free(self, b, free, x0)

    monkeypatch.setattr(egbp.solver, "inner_richardson", recording_newton)
    monkeypatch.setattr(OrderedFactor, "solve", recording_solve)
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


def _stop_reads(increments, tol_outer):
    """How the outer loop's stop rule reads each sweep k of ``increments`` d:
    "increment" if d_k <= tol_outer, else "estimate" if k >= 2, rho = d_k /
    d_{k-1} < 1 and rho / (1 - rho) d_k <= tol_outer (the nonlinear residual
    then decides), else ""."""
    reads = []
    for k, d in enumerate(increments):
        rho = d / increments[k - 1] if k else np.inf
        if d <= tol_outer:
            reads.append("increment")
        elif rho < 1.0 and rho / (1.0 - rho) * d <= tol_outer:
            reads.append("estimate")
        else:
            reads.append("")
    return reads


def _meets_stop_rule(trace, tol_outer):
    """True if the last sweep of ``trace`` meets the outer loop's stop rule."""
    last = _stop_reads(trace.outer_increments, tol_outer)[-1]
    return last == "increment" or (last == "estimate" and trace.nonlinear_residual <= tol_outer + 1e-12)


@pytest.mark.parametrize("beta", [2, 4])
@pytest.mark.parametrize("refinements", [1, 2, 3])
@pytest.mark.parametrize("case", ["smooth", "layer"])
def test_outer_loop_stops_at_the_first_sweep_that_meets_its_rule(monkeypatch, case, refinements, beta):
    # The loop stops at d_k <= tol_outer, or where the error estimate
    # rho / (1 - rho) d_k is within tol_outer and the residual of that
    # iterate within tol_outer + 1e-12.  Each sweep the estimate passes
    # computes one residual; every one but the last exceeds that bound, and
    # the last is the solution's own, computed once.  u+ agrees with a solve
    # at tol_outer = 1e-15.
    mesh, spec = _smooth_problem(refinements) if case == "smooth" else _layer_problem(refinements)
    spec = replace(spec, beta=beta, tol_outer=ProblemSpec.tol_outer)
    residuals, residual = [], egbp.solver.nonlinear_residual

    def recording(system, solution):
        residuals.append(residual(system, solution))
        return residuals[-1]

    monkeypatch.setattr(egbp.solver, "nonlinear_residual", recording)
    sol = solve_bound_preserving(mesh, spec)
    t, tol = sol.trace, spec.tol_outer
    assert t.converged and _meets_stop_rule(t, tol)
    reads = _stop_reads(t.outer_increments, tol)
    assert "increment" not in reads[:-1]
    trials = reads.count("estimate")
    assert len(residuals) == trials + (reads[-1] == "increment")
    assert all(r > tol + 1e-12 for r in residuals[:-1])
    assert residuals[-1] == t.nonlinear_residual
    tight = solve_bound_preserving(mesh, replace(spec, tol_outer=1e-15)).u_plus
    got = np.concatenate([sol.u_plus.linear_coeffs, sol.u_plus.const_coeffs])
    want = np.concatenate([tight.linear_coeffs, tight.const_coeffs])
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


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
    assert _meets_stop_rule(t, spec.tol_outer)
    assert t.feasibility_violations == sum(1 for ok in t.feasible_per_outer if not ok)
    # per outer sweep: worst feasibility slack and clamped nodes
    assert t.outer_iters == len(t.worst_slack_per_outer) == len(t.clamped_per_outer)
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
    assert names == ["A11"] and t.a00_reused  # the mesh kept the first solve's A00 factor
    iv = dofs.interior_vertex_ids
    clamped = np.count_nonzero(sol.u.linear_coeffs[iv] != sol.u_plus.linear_coeffs[iv])
    assert 0 < t.clamped_per_outer[-1] == clamped <= iv.size
    assert t.outer_iters == len(t.cg_steps_per_outer)

    # Smooth case, one clamped node: every Step-1 solve runs CG on the full
    # factor and takes |C| + 1 = 2 steps, also where C stays as it was.
    names.clear()
    t, sweeps = _free_sets_per_step1(monkeypatch, *_smooth_problem())
    assert t.converged and t.outer_iters == len(sweeps) == len(t.cg_steps_per_outer)
    assert names == ["A11", "A00"]
    for m, frees in enumerate(sweeps):
        assert [np.count_nonzero(~free) for free in frees] == [1] * len(frees)
        assert t.cg_steps_per_outer[m] == 2 * len(frees) > 0
        assert t.clamped_per_outer[m] == 1


@pytest.mark.parametrize("case", ["smooth", "many_clamped", "jacobi"])
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
    mesh, spec = _many_clamped_problem() if case == "many_clamped" else _smooth_problem(2 if case == "jacobi" else 0)
    trace = solve_bound_preserving(mesh, spec).trace
    assert trace.a11_path == ("jacobi" if case == "jacobi" else "factor")
    assert calls["splu"] == calls["SpdFactor"] == 1 + (trace.a11_path == "factor")


def test_trace_fill_nnz_sums_every_factorization(monkeypatch):
    fills = []

    class RecordingFactor(SpdFactor):
        def __init__(self, A, name="system"):
            super().__init__(A, name=name)
            fills.append(self.lu.nnz)

    monkeypatch.setattr(egbp.solver, "SpdFactor", RecordingFactor)
    # factor path, most nodes clamped: A11 and A00, no submatrix
    trace = solve_bound_preserving(*_many_clamped_problem()).trace
    assert trace.a11_path == "factor" and len(fills) == 2
    assert trace.fill_nnz == sum(fills)
    # Jacobi path: A00's factor alone
    fills.clear()
    trace = solve_bound_preserving(*_smooth_problem(refinements=2)).trace
    assert trace.a11_path == "jacobi" and len(fills) == 1
    assert trace.fill_nnz == fills[0]


def test_nested_dissection_is_a_deterministic_permutation():
    mesh = refine_uniform(build_structured(12, 12))
    dofs = DofMap.from_mesh(mesh)
    system = assemble_system(mesh, make_spec(f=lambda x, y: 1.0 + 0.0 * x), dofs)
    x1, x0 = _interior_points(mesh), mesh.centroid
    for points, A in (
        (x1, system.A11),
        (x0, system.A00),
        (np.vstack([x1, x0]), system.full_matrix()),
    ):
        p = egbp.assembly._nested_dissection(points, A)
        assert np.array_equal(np.sort(p), np.arange(A.shape[0]))
        assert not np.array_equal(p, np.arange(A.shape[0]))
        assert np.array_equal(egbp.assembly._nested_dissection(points.copy(), A.copy()), p)


def _row_shuffled(mesh, seed):
    """The same mesh with its vertex rows and triangle rows in random order."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(mesh.num_vertices)
    new_id = np.empty_like(perm)
    new_id[perm] = np.arange(perm.size)
    tri = new_id[mesh.triangles][rng.permutation(mesh.num_elements)]
    return _build_mesh(mesh.vertices[perm], tri)


def _dissection_mesh(shuffled):
    mesh = build_structured(48, 48)
    return _row_shuffled(mesh, seed=4) if shuffled else mesh


# lu.nnz of A11 and A00 on the 48 x 48 mesh in their nested-dissection orders
_DISSECTION_FILL = {False: {"A11": 92554, "A00": 139930}, True: {"A11": 91982, "A00": 131716}}


@pytest.mark.parametrize("shuffled", [False, True])
def test_dissection_fill_below_colamd(monkeypatch, shuffled):
    # 4,608 elements; SuperLU's default COLAMD order fills more on both
    # matrices.  The bound-preserving and the standard solve factor A11 in
    # the same order, and the standard solve reuses the factor of A00.
    mesh = _dissection_mesh(shuffled)
    dofs = DofMap.from_mesh(mesh)
    spec = make_spec(f=lambda x, y: 1.0 + 0.0 * x, bounds=(-1e6, 1e6))
    system = assemble_system(mesh, spec, dofs)
    fills = []

    class RecordingFactor(SpdFactor):
        def __init__(self, A, name="system"):
            super().__init__(A, name=name)
            fills.append((name, self.lu.nnz))

    monkeypatch.setattr(egbp.solver, "SpdFactor", RecordingFactor)
    solve_bound_preserving(mesh, spec, dofs, system)
    solve_standard_eg(mesh, spec, dofs, system)
    pinned = _DISSECTION_FILL[shuffled]
    # K_gamma has A11's pattern and order, so A11's fill
    assert sorted(fills) == sorted([*pinned.items(), ("A11", pinned["A11"]), ("K_gamma", pinned["A11"])])
    assert pinned["A11"] < spla.splu(sp.csc_matrix(system.A11)).nnz
    assert pinned["A00"] < spla.splu(sp.csc_matrix(system.A00)).nnz


def _dissection_cases(shuffled):
    """(points, matrix) of A11, A00 and the monolithic matrix on the 48 x 48 mesh."""
    mesh = _dissection_mesh(shuffled)
    system = assemble_system(mesh, make_spec(f=lambda x, y: 1.0 + 0.0 * x))
    x1 = mesh.vertices[system.dofs.interior_vertex_ids]
    x0 = mesh.centroid
    return ((x1, system.A11), (x0, system.A00), (np.vstack([x1, x0]), system.full_matrix()))


@pytest.mark.parametrize("shuffled", [False, True])
def test_separators_cover_every_entry_between_siblings(shuffled):
    for points, A in _dissection_cases(shuffled):
        code, level, depth = egbp.assembly._bisection_tree(points, A)
        assert depth >= 6 and np.unique(code).size > 2 ** (depth - 1)
        A = sp.coo_matrix(A)
        between = code[A.row] != code[A.col]
        i, j = A.row[between], A.col[between]
        # the split of two codes sits at the depth of their common prefix
        split = depth - np.array([int(a ^ b).bit_length() for a, b in zip(code[i], code[j])])
        assert np.all(np.minimum(level[i], level[j]) <= split)
        assert np.all((level >= 0) & (level <= depth))
        assert 0 < np.count_nonzero(level < depth) < code.size


@pytest.mark.parametrize("case", ["smooth", "layer"])
def test_bound_preserving_reruns_bit_identical(case):
    # the choice between Jacobi-CG and the A11 factor depends on counts
    # only; the rerun assembles anew and reuses the mesh's factor of A00, whose
    # fill it does not count
    mesh, spec = _smooth_problem() if case == "smooth" else _layer_problem()
    a, b = (solve_bound_preserving(mesh, spec) for _ in range(2))
    for fa, fb in ((a.u, b.u), (a.u_plus, b.u_plus)):
        assert np.array_equal(fa.linear_coeffs, fb.linear_coeffs)
        assert np.array_equal(fa.const_coeffs, fb.const_coeffs)
    system = assemble_system(mesh, spec)
    a00_fill = OrderedFactor(system.A00, "A00", _order(mesh, system.dofs, "element")).fill_nnz
    assert (a.trace.a00_reused, b.trace.a00_reused, a.trace.fill_nnz - b.trace.fill_nnz) == (False, True, a00_fill)
    assert asdict(a.trace) == asdict(replace(b.trace, a00_reused=False, fill_nnz=a.trace.fill_nnz))


def _same_function(f, g):
    return f.linear_coeffs.tobytes() == g.linear_coeffs.tobytes() and f.const_coeffs.tobytes() == g.const_coeffs.tobytes()


@pytest.mark.parametrize("case", ["smooth", "layer"])
def test_one_system_solved_twice_reuses_the_a00_factor(monkeypatch, case):
    # The second solve of one system takes the factor of A00 its mesh kept:
    # u and u+ are bit-identical, and each trace counts the triangular
    # solves made during its own solve, the same number for both.  So does
    # a third solve after the comparator took that factor too: a trace adds
    # up the CG steps its own solves returned.  The triangular solves are
    # counted as SuperLU's and as SpdFactor.lu_solve calls.
    counted, lu_solves = _count_triangular_solves(monkeypatch), _count_lu_solves(monkeypatch)
    mesh, spec = _smooth_problem() if case == "smooth" else _layer_problem()
    system = assemble_system(mesh, spec)
    solutions = []
    for comparator_first in (False, False, True):
        if comparator_first:
            lu_solves["lu_solve"] = 0
            solve_standard_eg(mesh, spec, system=system)
            assert lu_solves["lu_solve"] > 0
        counted["rhs"] = lu_solves["lu_solve"] = 0
        solutions.append(solve_bound_preserving(mesh, spec, system=system))
        assert solutions[-1].trace.triangular_solves == counted["rhs"] == lu_solves["lu_solve"] > 0
    a, b, c = solutions
    assert all(_same_function(a.u, s.u) and _same_function(a.u_plus, s.u_plus) for s in (b, c))
    assert (a.trace.a00_reused, b.trace.a00_reused, c.trace.a00_reused) == (False, True, True)
    assert a.trace.triangular_solves == b.trace.triangular_solves == c.trace.triangular_solves


@pytest.mark.parametrize("scale", [2.0, 1.0 + 2.0**-52])
def test_a00_changed_in_place_is_factored_anew(scale):
    # One diagonal entry of A00 scaled in place between two solves on one
    # mesh, by 2 or by one unit in the last place: the second solve factors
    # A00 again and equals, bit for bit, a solve of the changed system on a
    # fresh copy of the mesh
    mesh, spec = _smooth_problem()
    system = assemble_system(mesh, spec)
    first = solve_bound_preserving(mesh, spec, system=system)
    A00 = system.A00
    A00.data[A00.indptr[5] + np.flatnonzero(A00.indices[A00.indptr[5] : A00.indptr[6]] == 5)[0]] *= scale
    changed = solve_bound_preserving(mesh, spec, system=system)
    fresh = solve_bound_preserving(_smooth_problem()[0], spec, system=system)
    assert (first.trace.a00_reused, changed.trace.a00_reused, fresh.trace.a00_reused) == (False, False, False)
    assert _same_function(changed.u, fresh.u) and _same_function(changed.u_plus, fresh.u_plus)
    assert asdict(changed.trace) == asdict(fresh.trace)
    if scale == 2.0:
        assert not np.array_equal(changed.u.const_coeffs, first.u.const_coeffs)


def test_another_beta_on_the_same_mesh_factors_a00_anew():
    # A00's penalty depends on beta; the mesh keeps one factor, the last
    mesh, spec = _smooth_problem()
    traces = [solve_bound_preserving(mesh, replace(spec, beta=beta)).trace for beta in (4, 3, 3, 4)]
    assert [trace.a00_reused for trace in traces] == [False, False, True, False]
    assert all(trace.converged for trace in traces)


def _counting_dissection(monkeypatch):
    """The sizes of the unknown sets that _nested_dissection orders from now on."""
    sizes, dissection = [], egbp.assembly._nested_dissection

    def counting_dissection(points, pattern):
        sizes.append(len(points))
        return dissection(points, pattern)

    monkeypatch.setattr(egbp.assembly, "_nested_dissection", counting_dissection)
    return sizes


def test_one_layer_level_orders_a00_once(monkeypatch):
    # One level of the layer study: the bound-preserving solve, then the
    # comparator at beta = 1 on a system of its own.  A00 is ordered once,
    # by the mesh's stencil.  The comparator's A00 differs from the kept
    # one, so, with the cyclic collector off, the bound-preserving solve's
    # factor is dead once the comparator returns, and the mesh keeps the
    # comparator's; u equals a comparator solve on a fresh mesh.
    mesh, spec = _layer_problem()
    sizes, refs = _counting_dissection(monkeypatch), []

    class RecordingFactor(SpdFactor):
        def __init__(self, A, name="system"):
            super().__init__(A, name=name)
            refs.append((name, weakref.ref(self)))

    monkeypatch.setattr(egbp.solver, "SpdFactor", RecordingFactor)
    comparator = replace(spec, beta=1, alpha=0.0)
    gc.disable()
    try:
        bp = solve_bound_preserving(mesh, spec)
        u = solve_standard_eg(mesh, comparator)
        a00 = [ref() is not None for name, ref in refs if name == "A00"]
    finally:
        gc.enable()
    assert sizes.count(mesh.num_elements) == 1
    assert a00 == [False, True] and not bp.trace.a00_reused
    fresh = solve_standard_eg(_layer_problem()[0], comparator)
    assert _same_function(u, fresh)


def test_one_layer_level_holds_one_a00_factor_at_a_time(monkeypatch):
    # The bound-preserving solve at beta = 4, then the comparator at beta =
    # 1 on the same mesh: with the cyclic collector off, every earlier
    # OrderedFactor of A00 is dead when the next A00 is factored, so at most
    # one is alive at any time, and the mesh keeps the last
    mesh, spec = _layer_problem()
    refs = []

    class RecordingFactor(OrderedFactor):
        def __init__(self, A, *args, **kwargs):
            super().__init__(A, *args, **kwargs)
            if self.name == "A00":
                refs.append(weakref.ref(self))

    class CheckedSpdFactor(SpdFactor):
        def __init__(self, A, name="system"):
            assert name != "A00" or [ref() for ref in refs] == [None] * len(refs)
            super().__init__(A, name=name)

    monkeypatch.setattr(egbp.solver, "OrderedFactor", RecordingFactor)
    monkeypatch.setattr(egbp.solver, "SpdFactor", CheckedSpdFactor)
    gc.disable()
    try:
        solve_bound_preserving(mesh, spec)
        solve_standard_eg(mesh, replace(spec, beta=1, alpha=0.0))
        alive = [ref() is not None for ref in refs]
    finally:
        gc.enable()
    assert alive == [False, True]  # beta = 4, then beta = 1


def test_each_mesh_orders_its_unknowns_once(monkeypatch):
    # A layer level's bound-preserving solve (Jacobi-CG, no A11 order), its
    # comparator (A00 and K_gamma in A11's order) and a second comparator
    # on the same mesh: the stencil orders the interior vertices once and
    # the elements once, and the second comparator gives the first's u bit
    # for bit.
    mesh, spec = _layer_problem()
    sizes = _counting_dissection(monkeypatch)
    comparator = replace(spec, beta=1, alpha=0.0)
    bp = solve_bound_preserving(mesh, spec)
    first, second = (solve_standard_eg(mesh, comparator) for _ in range(2))
    assert bp.trace.a11_path == "jacobi"
    assert sorted(sizes) == sorted([DofMap.from_mesh(mesh).n_interior, mesh.num_elements])
    assert _same_function(first, second)


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


def test_refinement_stops_at_backward_error(monkeypatch):
    # b = A x with x the smoothest mode of the 1-D Laplacian: ||A|| ||x|| / ||b||
    # is 4e5, so ||r|| / ||b|| stalls near 4e-11 while the backward error is
    # at round-off; the solve must not raise
    n = 2000
    A = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1], format="csc")
    x = np.sin(np.pi * np.arange(1, n + 1) / (n + 1))
    b = A @ x
    factor = SpdFactor(A)
    assert factor.A is A and egbp.solver._inf_norm(A) == 4.0
    counted = _count_lu_solves(monkeypatch)
    y = factor.solve(b)
    r = np.abs(b - A @ y).max()
    assert r <= 1e-12 * (4.0 * np.abs(y).max() + np.abs(b).max())
    assert np.abs(y - x).max() <= 1e-9
    assert counted["lu_solve"] >= 1


def _count_triangular_solves(monkeypatch):
    """{"rhs": n}, n the right-hand sides of the triangular solves with every factor made from now on."""
    counted = {"rhs": 0}
    splu = egbp.solver.spla.splu

    class CountingLU:
        def __init__(self, lu):
            self.lu, self.nnz = lu, lu.nnz

        def solve(self, b, trans="N"):
            counted["rhs"] += 1 if b.ndim == 1 else b.shape[1]
            return self.lu.solve(b, trans=trans)

    monkeypatch.setattr(egbp.solver.spla, "splu", lambda *a, **k: CountingLU(splu(*a, **k)))
    return counted


@pytest.mark.parametrize("case", ["smooth", "layer"])
def test_trace_counts_triangular_solves(monkeypatch, case):
    counted = _count_triangular_solves(monkeypatch)
    mesh, spec = _smooth_problem() if case == "smooth" else _layer_problem()
    trace = solve_bound_preserving(mesh, spec).trace
    assert trace.triangular_solves == counted["rhs"]
    # the smooth case factors A11, the layer case (1,152 elements) runs Jacobi-CG
    assert trace.a11_path == ("factor" if case == "smooth" else "jacobi")
    if trace.a11_path == "jacobi":
        # A00 alone: the initial solve and one per sweep, each one CG step
        # on the factor; the initial A11 solve and every Newton step take at
        # least one CG step
        assert trace.triangular_solves == 1 + trace.outer_iters
        assert sum(trace.cg_steps_per_outer) >= sum(trace.inner_iters_per_outer) > 0
        assert trace.initial_cg_steps > 0
        return
    assert trace.initial_cg_steps == 1  # all nodes free: one CG step with the full factor
    # every CG step preconditioned with a factor is one triangular solve:
    # A00's one step per solve, the initial sweep and every Step-1 CG step
    assert trace.triangular_solves == 1 + trace.outer_iters + trace.initial_cg_steps + sum(trace.cg_steps_per_outer)


def test_step1_start_that_meets_the_backward_error_factors_nothing(monkeypatch):
    # The 288-element layer solve clamps 97 of its 121 nodes, and some Newton
    # steps change the free set while the current iterate already meets the
    # backward error on the new one.  Such a Step-1 solve returns its start
    # after no factorization and no triangular solve: every free set is
    # preconditioned with the factor of the full A11, made once per solve.
    counted = _count_triangular_solves(monkeypatch)
    counted["splu"] = 0
    splu = egbp.solver.spla.splu

    def counting_splu(*args, **kwargs):
        counted["splu"] += 1
        return splu(*args, **kwargs)

    monkeypatch.setattr(egbp.solver.spla, "splu", counting_splu)
    mesh, spec = _layer_problem(refinements=0)
    system = assemble_system(mesh, spec)
    norm = egbp.solver._inf_norm(system.A11)
    solve_free, met = OrderedFactor.solve, []

    def recording_solve(self, b, free=None, x0=None):
        if x0 is None:  # the initial sweep's A11 solve and every A00 solve
            return solve_free(self, b, free, x0)
        r = b - system.A11[free][:, free] @ x0
        meets = np.abs(r).max() <= 1e-15 * (norm * np.abs(x0).max() + np.abs(b).max())
        before = dict(counted)
        x, steps = solve_free(self, b, free, x0)
        met.append((meets, counted["splu"] - before["splu"], counted["rhs"] - before["rhs"], x.tobytes() == x0.tobytes(), steps))
        return x, steps

    monkeypatch.setattr(OrderedFactor, "solve", recording_solve)
    trace = solve_bound_preserving(mesh, spec, system=system).trace
    assert (mesh.num_elements, trace.a11_path, trace.inner_iters_per_outer) == (288, "factor", [3, 3, 1])
    assert [bool(m[0]) for m in met] == [False, False, True, False, False, True, False]
    assert all(m[1] == 0 for m in met)
    assert [m[1:] for m in met if m[0]] == [(0, 0, True, 0)] * 2
    assert all(m[2] == m[4] > 0 for m in met if not m[0])  # one triangular solve per CG step
    assert counted["splu"] == 2  # A11 and A00, before Step 1
