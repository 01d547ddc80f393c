"""Linear solves, the standard EG solve, and the decoupled fixed-point solver.

The nonlinear scheme a_h(u+, v) + s_h(u-, v) = b_h(v) is solved by
alternating two well-conditioned subproblems: a damped Richardson loop for
the continuous part (each step one solve with the plain P1 matrix A11,
whose conditioning is independent of the penalty exponent) and a direct
solve with the constant-part matrix A00 = mu*M0 + penalty jump coupling.

After the tolerance-based loop terminates, a short "polish" phase repeats
the alternation with near-machine tolerances so that the reported
nonlinear residual reflects the fixed point rather than the stopping
tolerances; polish iterations are recorded separately and do not count
towards the iteration numbers of the study tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import assemble_system
from .fespace import DofMap, EGFunction, dirichlet_lift, zero_function
from .limiter import apply_P, feasibility_check, patch_extremes, truncate_values

__all__ = [
    "SolverError",
    "SolveTrace",
    "EGSolution",
    "solve_spd",
    "SpdFactor",
    "solve_standard_eg",
    "inner_richardson",
    "outer_constant_solve",
    "solve_bound_preserving",
    "write_trace",
]

_POLISH_TOL = 1e-14
_POLISH_MAX_OUTER = 8


class SolverError(RuntimeError):
    pass


@dataclass
class SolveTrace:
    """Iteration history of the nested fixed-point solve.

    ``stop_reason`` says why the outer loop ended: "converged" (outer
    increment below tol_outer), "inner_stalled" (an inner loop used up
    max_inner without reaching its tolerance) or "max_outer".
    """

    outer_iters: int = 0
    inner_iters_per_outer: list = field(default_factory=list)
    inner_residual_histories: list = field(default_factory=list)
    outer_increments: list = field(default_factory=list)
    converged: bool = False
    feasibility_violations: int = 0
    feasible_per_outer: list = field(default_factory=list)
    nonlinear_residual: float = np.nan
    polish_outer_iters: int = 0
    stop_reason: str = ""


@dataclass
class EGSolution:
    """Fixed point u, its truncation u+ and the solve trace."""

    u: EGFunction
    u_plus: EGFunction
    trace: SolveTrace

    @property
    def u_minus(self):
        """Complement Q(u): linear part only."""
        return EGFunction(
            self.u.linear_coeffs - self.u_plus.linear_coeffs,
            np.zeros_like(self.u.const_coeffs),
        )


class SpdFactor:
    """Sparse LU factorization of an SPD matrix with iterative refinement."""

    def __init__(self, A, name="system"):
        self.A = sp.csc_matrix(A)
        self.name = name
        if self.A.shape[0] != self.A.shape[1]:
            raise SolverError("matrix %s is not square" % name)
        diag = self.A.diagonal()
        if np.any(diag <= 0.0):
            raise SolverError("matrix %s has a nonpositive diagonal entry" % name)
        try:
            self.lu = spla.splu(self.A)
        except RuntimeError as exc:
            raise SolverError("factorization of %s failed: %s" % (name, exc)) from exc

    def solve(self, b, rel_tol=1e-12, max_refine=4):
        """A^{-1} b to relative residual rel_tol; SolverError if refinement misses it."""
        x = self.lu.solve(b)
        if not np.all(np.isfinite(x)):
            raise SolverError("solve with %s produced non-finite values" % self.name)
        bnorm = np.linalg.norm(b)
        if bnorm == 0.0:
            return np.zeros_like(b)
        # Up to max_refine refinement sweeps recover accuracy lost to the
        # ill-conditioning of over-penalized monolithic systems.
        for sweep in range(max_refine + 1):
            r = b - self.A @ x
            rnorm = np.linalg.norm(r)
            if rnorm <= rel_tol * bnorm:
                return x
            if sweep < max_refine:
                x = x + self.lu.solve(r)
        raise SolverError(
            "solve with %s missed relative residual %.1e after %d refinement sweeps (%.3e)"
            % (self.name, rel_tol, max_refine, rnorm / bnorm)
        )


def solve_spd(A, b, rel_tol=1e-12, name="system"):
    """Direct sparse solve of an SPD system to a relative residual."""
    return SpdFactor(A, name=name).solve(np.asarray(b, dtype=float), rel_tol=rel_tol)


def _prepare(mesh, spec, dofs, system, lift):
    if dofs is None:
        dofs = system.dofs if system is not None else DofMap.from_mesh(mesh)
    if lift is None:
        lift = zero_function(mesh) if spec.u_D is None else dirichlet_lift(mesh, spec.u_D)
    if system is None:
        system = assemble_system(mesh, spec, dofs, lift)
    return dofs, system, lift


def _compose(mesh, dofs, lift, u1, u0):
    lin = lift.linear_coeffs.copy()
    lin[dofs.interior_vertex_ids] += u1
    return EGFunction(lin, u0.copy())


def solve_standard_eg(mesh, spec, dofs=None, system=None, lift=None):
    """Monolithic solve of the (non-preserving) EG scheme.

    Returns the full discrete solution including the Dirichlet lift.
    """
    dofs, system, lift = _prepare(mesh, spec, dofs, system, lift)
    A = system.full_matrix()
    b = np.concatenate([system.b1, system.b0])
    x = solve_spd(A, b, rel_tol=1e-12, name="monolithic EG system")
    n1 = dofs.n_interior
    return _compose(mesh, dofs, lift, x[:n1], x[n1:])


def _l2_const(system, d):
    return float(np.sqrt(d @ (system.M0_diag * d)))


def _l2_lin(system, d):
    return float(np.sqrt(d @ (system.M1 @ d)))


def inner_richardson(
    u1,
    w0,
    system,
    spec,
    extremes,
    a11_factor=None,
    tol=None,
    max_iter=None,
    state=None,
):
    """Damped Richardson loop for the continuous-part problem (Step 1).

    Iterates A11 u_{n+1} = A11 u_n + omega * R_n with the residual
    R_n = b1 - A11 P(u_n) - S1 Q(u_n) - A10 w0; the coupling term A10 w0
    is dropped when spec.drop_inner_coupling is set.  Stops when the L2
    norm of the increment falls below the inner tolerance.

    The sweep is stable only while omega * lambda_max(A11^{-1} S1) < 2;
    the stabilizer weight alpha*(eps + mu h_i^2) can exceed the local
    mass-matrix scale by more than 4 on right-triangle meshes, so the
    nominal damping may sit past the stability boundary whenever a clamp
    is active.  A safeguard therefore halves the damping whenever the
    increment fails to decrease; while the nominal omega contracts, the
    safeguard never engages and the iteration is exactly the plain
    damped sweep.  A mutable ``state`` dict (key "damping") carries the
    safeguarded damping across calls, so outer sweeps whose inner loop
    exits after a single step keep an earlier reduction.

    Returns (u1_new, iteration_count, increment_history, converged).
    """
    if not 0.0 < spec.omega <= 1.0:
        raise ValueError("damping parameter omega must lie in (0, 1]")
    if a11_factor is None:
        a11_factor = SpdFactor(system.A11, name="A11")
    tol = spec.tol_inner if tol is None else tol
    max_iter = spec.max_inner if max_iter is None else max_iter

    rhs = system.b1.copy()
    if not spec.drop_inner_coupling:
        rhs = rhs - system.A10 @ w0

    if state is None:
        state = {"damping": spec.omega}
    damping = state["damping"]
    damping_floor = spec.omega / 32.0

    u = np.asarray(u1, dtype=float).copy()
    increments = []
    converged = False
    prev_inc = np.inf
    for _ in range(max_iter):
        p = truncate_values(u, extremes, spec.bounds)
        q = u - p
        residual = rhs - system.A11 @ p - system.S1 * q
        step = damping * a11_factor.solve(residual, rel_tol=1e-13)
        u = u + step
        inc = _l2_lin(system, step)
        increments.append(inc)
        if inc <= tol:
            converged = True
            break
        if inc > 0.999 * prev_inc and damping > damping_floor:
            damping = max(0.5 * damping, damping_floor)
        prev_inc = inc
    state["damping"] = damping
    return u, len(increments), increments, converged


def outer_constant_solve(u1_new, w0_frozen, system, spec, extremes=None, a00_factor=None):
    """Constant-part solve (Step 2) against the truncated linear iterate.

    Solves A00 u0 = b0 - A10^T w1p where w1p is the truncation of u1_new
    against the frozen constants (the raw iterate when
    spec.raw_outer_update is set).
    """
    if a00_factor is None:
        a00_factor = SpdFactor(system.A00, name="A00")
    if spec.raw_outer_update:
        w1p = np.asarray(u1_new, dtype=float)
    else:
        if extremes is None:
            raise ValueError("patch extremes of the frozen constants are required")
        w1p = truncate_values(np.asarray(u1_new, dtype=float), extremes, spec.bounds)
    rhs = system.b0 - system.A10.T @ w1p
    return a00_factor.solve(rhs, rel_tol=1e-13)


def nonlinear_residual(system, spec, dofs, solution):
    """Vector 2-norm of a_h(u+, .) + s_h(u-, .) - b_h(.) over all basis dofs."""
    u_plus = solution.u_plus
    p = u_plus.linear_coeffs[dofs.interior_vertex_ids]
    q = solution.u.linear_coeffs[dofs.interior_vertex_ids] - p
    u0 = u_plus.const_coeffs
    r1 = system.A11 @ p + system.A10 @ u0 + system.S1 * q - system.b1
    r0 = system.A10.T @ p + system.A00 @ u0 - system.b0
    return float(np.sqrt(np.linalg.norm(r1) ** 2 + np.linalg.norm(r0) ** 2))


def solve_bound_preserving(mesh, spec, dofs=None, system=None, lift=None, polish=True):
    """Nested fixed-point solve of the bound-preserving EG scheme.

    Factors only A11 and A00.  Starts from one decoupled sweep
    u1 = A11^{-1} b1, u0 = A00^{-1} (b0 - A10^T u1), alternates the inner
    Richardson loop with the decoupled constant-part solve, and stops when
    the L2 increment of the constants drops below spec.tol_outer.
    """
    dofs, system, lift = _prepare(mesh, spec, dofs, system, lift)
    a11_factor = SpdFactor(system.A11, name="A11")
    a00_factor = SpdFactor(system.A00, name="A00")

    u1 = a11_factor.solve(system.b1, rel_tol=1e-13)
    u0 = a00_factor.solve(system.b0 - system.A10.T @ u1, rel_tol=1e-13)

    trace = SolveTrace()
    damping_state = {"damping": spec.omega}

    def one_outer(u1, u0, inner_tol):
        extremes = patch_extremes(mesh, u0, dofs)
        feasible, _, _ = feasibility_check(extremes, spec.bounds)
        u1_new, n, incs, inner_ok = inner_richardson(
            u1, u0, system, spec, extremes, a11_factor, tol=inner_tol,
            state=damping_state,
        )
        u0_new = outer_constant_solve(
            u1_new, u0, system, spec, extremes, a00_factor
        )
        outer_inc = _l2_const(system, u0_new - u0)
        return u1_new, u0_new, outer_inc, n, incs, inner_ok, feasible

    prev_outer_inc = np.inf
    inner_tol = spec.tol_inner
    for m in range(spec.max_outer):
        u1, u0_new, outer_inc, n, incs, inner_ok, feasible = one_outer(
            u1, u0, inner_tol
        )
        u0 = u0_new
        trace.outer_iters = m + 1
        trace.inner_iters_per_outer.append(n)
        trace.inner_residual_histories.append(incs)
        trace.outer_increments.append(outer_inc)
        trace.feasible_per_outer.append(feasible)
        if not feasible:
            trace.feasibility_violations += 1
        if not inner_ok:
            trace.stop_reason = "inner_stalled"
            break
        if outer_inc <= spec.tol_outer:
            trace.converged = True
            trace.stop_reason = "converged"
            break
        # With a loose inner tolerance, the inner error limits how far
        # the outer increments can fall: the constants contract fast
        # once the continuous part is accurate.  Slow decay of the outer
        # increments therefore triggers a tightening of the effective
        # inner tolerance; the inner damping safeguard handles any
        # instability surfacing during the longer inner runs.
        if outer_inc > 0.25 * prev_outer_inc:
            inner_tol = max(0.01 * inner_tol, 1e-14)
        prev_outer_inc = outer_inc
    else:
        trace.stop_reason = "max_outer"

    if polish and trace.converged:
        for _ in range(_POLISH_MAX_OUTER):
            u1, u0_new, outer_inc, _, _, _, _ = one_outer(u1, u0, _POLISH_TOL)
            u0 = u0_new
            trace.polish_outer_iters += 1
            if outer_inc <= _POLISH_TOL:
                break

    u = _compose(mesh, dofs, lift, u1, u0)
    u_plus = apply_P(mesh, dofs, u0, u, spec.bounds)
    solution = EGSolution(u=u, u_plus=u_plus, trace=trace)
    trace.nonlinear_residual = nonlinear_residual(system, spec, dofs, solution)
    return solution


def write_trace(trace, path, level=0):
    """CSV export "level,m,n,inner_increment,outer_increment,feasible".

    One row per inner iteration; the outer increment is filled on the last
    inner row of each outer sweep.
    """
    with open(path, "w", newline="") as fh:
        fh.write("level,m,n,inner_increment,outer_increment,feasible\n")
        for m, incs in enumerate(trace.inner_residual_histories):
            feasible = int(trace.feasible_per_outer[m]) if trace.feasible_per_outer else 1
            for n, inc in enumerate(incs):
                last = n == len(incs) - 1
                outer = "%.17g" % trace.outer_increments[m] if last else ""
                fh.write(
                    "%d,%d,%d,%.17g,%s,%d\n" % (level, m, n, inc, outer, feasible)
                )
