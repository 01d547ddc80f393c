"""Linear solves, the standard EG solve, and the decoupled fixed-point solver.

The nonlinear scheme a_h(u+, v) + s_h(u-, v) = b_h(v) is solved by
alternating two well-conditioned subproblems: an active-set (semismooth)
Newton solve for the continuous part (each step one solve with a principal
submatrix of the plain P1 matrix A11, no worse conditioned than A11, whose
conditioning is independent of the penalty exponent) and a direct solve
with the constant-part matrix A00 = mu*M0 + penalty jump coupling.  The
Newton solve stops at its first step that leaves the clamped set
unchanged, since that step solved Step 1 exactly; it has no tolerance.
The factor of the full A11 lives for the whole solve: a few clamped nodes
are handled by capacitance solves on it, many by factoring the submatrix.
Every matrix is factored in the nested-dissection order of its unknowns'
mesh positions: interior vertices for A11, element centroids for A00.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import assemble_system
from .fespace import EGFunction
from .limiter import apply_P, feasibility_check, patch_extremes, truncate_values

__all__ = [
    "SolverError",
    "SolveTrace",
    "EGSolution",
    "SpdFactor",
    "A11Factor",
    "solve_standard_eg",
    "inner_richardson",
    "outer_constant_solve",
    "solve_bound_preserving",
]


class SolverError(RuntimeError):
    pass


@dataclass
class SolveTrace:
    """Iteration history of the nested fixed-point solve.

    ``stop_reason`` says why the outer loop ended: "converged" (outer
    increment below tol_outer), "inner_stalled" (a Step-1 Newton loop used
    up max_inner steps before its clamped set settled) or "max_outer".
    Per outer sweep it records the Newton step sizes, the clamped-node
    count of the last Newton step, the worst feasibility slack
    min_i (b - over_i) - (a - under_i), the number of A11-class
    factorizations the sweep made and the triangular solves it spent on
    capacitance matrices (see A11Factor).  ``fill_nnz`` is the stored L and U
    entries summed over every factorization of the solve, and
    ``triangular_solves`` the right-hand sides passed to their triangular
    solves.  ``outer_iters``, ``converged``, ``inner_iters_per_outer``,
    ``feasible_per_outer`` and ``feasibility_violations`` are read off them.
    ``polish_outer_iters`` is always 0: the solve has no sweeps after
    convergence; the field stays because the benchmark records read it.
    """

    inner_residual_histories: list = field(default_factory=list)
    outer_increments: list = field(default_factory=list)
    worst_slack_per_outer: list = field(default_factory=list)
    clamped_per_outer: list = field(default_factory=list)
    a11_factorizations_per_outer: list = field(default_factory=list)
    capacitance_columns_per_outer: list = field(default_factory=list)
    nonlinear_residual: float = np.nan
    fill_nnz: int = 0
    triangular_solves: int = 0
    polish_outer_iters: int = 0
    stop_reason: str = ""

    @property
    def outer_iters(self):
        return len(self.outer_increments)

    @property
    def converged(self):
        return self.stop_reason == "converged"

    @property
    def inner_iters_per_outer(self):
        return [len(incs) for incs in self.inner_residual_histories]

    @property
    def feasible_per_outer(self):
        return [slack >= 0.0 for slack in self.worst_slack_per_outer]

    @property
    def feasibility_violations(self):
        return self.feasible_per_outer.count(False)


@dataclass
class EGSolution:
    """Fixed point u, its truncation u+ and the solve trace."""

    u: EGFunction
    u_plus: EGFunction
    trace: SolveTrace


# Nested-dissection leaves hold about this many unknowns.
_ND_LEAF = 32


def _nested_dissection(points, A):
    """Nested-dissection order of the unknowns at ``points`` (n, 2) for the graph of A.

    The bounding box is bisected at its midpoint, longer axis first, down to
    leaves of about _ND_LEAF unknowns: one Morton code per unknown.  Every
    off-diagonal entry of A whose ends fall in sibling halves makes its end
    in the lower half a separator of the shallowest such split.  Each
    separator is ordered after both halves it separates (George, SIAM J.
    Numer. Anal. 10(2), 1973), so an elimination in this order makes no fill
    between sibling halves.  Ties keep the input order: the result is
    deterministic.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if n <= _ND_LEAF:
        return np.arange(n)
    bits = int(np.ceil(np.log2(n / _ND_LEAF) / 2))
    lo = points.min(axis=0)
    span = points.max(axis=0) - lo
    cells = np.minimum((points - lo) / np.where(span > 0, span, 1.0) * 2**bits, 2**bits - 1)
    cells = cells.astype(np.int64)
    long_axis, short_axis = np.argsort(-span, kind="stable")
    code = np.zeros(n, dtype=np.int64)
    for k in range(bits):
        code |= ((cells[:, long_axis] >> k) & 1) << (2 * k + 1)
        code |= ((cells[:, short_axis] >> k) & 1) << (2 * k)
    depth = 2 * bits
    A = sp.coo_matrix(A)
    ci, cj = code[A.row], code[A.col]
    cut = ci != cj
    lower = np.where(ci < cj, A.row, A.col)[cut]
    # the split between two codes sits at the depth of their common prefix
    split = depth - np.frexp((ci ^ cj)[cut])[1]
    level = np.full(n, depth)
    np.minimum.at(level, lower, split)
    # post-order of the bisection tree: a tree node sorts by the largest
    # code beneath it, after the deeper nodes that share that code
    below = depth - level
    last = (((code >> below) + 1) << below) - 1
    return np.lexsort((-level, last))


class SpdFactor:
    """Sparse LU factorization of an SPD matrix, in the order given, with iterative refinement.

    The caller orders the matrix (see _nested_dissection): SuperLU adds no
    fill-reducing column order of its own.  ``solves`` counts the
    right-hand sides passed to the triangular solves so far.
    """

    def __init__(self, A, name="system"):
        self.A = sp.csc_matrix(A)
        self.name = name
        if self.A.shape[0] != self.A.shape[1]:
            raise SolverError("matrix %s is not square" % name)
        diag = self.A.diagonal()
        if np.any(diag <= 0.0):
            raise SolverError("matrix %s has a nonpositive diagonal entry" % name)
        try:
            self.lu = spla.splu(self.A, permc_spec="NATURAL")
        except RuntimeError as exc:
            raise SolverError("factorization of %s failed: %s" % (name, exc)) from exc
        self.norm = float(abs(self.A).sum(axis=1).max())  # ||A||_inf
        self.solves = 0

    def lu_solve(self, b):
        """The triangular solves with the factor, b one vector or one per column."""
        self.solves += 1 if b.ndim == 1 else b.shape[1]
        return self.lu.solve(b)

    def solve(self, b, rel_tol=1e-12):
        """A^{-1} b to normwise backward error rel_tol; SolverError if refinement misses it."""
        return _refine(b, self.lu_solve, lambda x: self.A @ x, self.name, rel_tol, self.norm)


# Refinement sweeps that recover accuracy lost to the ill-conditioning of
# over-penalized monolithic systems.
_MAX_REFINE = 4


def _refine(b, approx_solve, matvec, name, rel_tol, a_norm):
    """Iterative refinement of approx_solve(b) against matvec to normwise backward error rel_tol.

    Stops at ||r||_inf <= rel_tol (a_norm ||x||_inf + ||b||_inf), a_norm >=
    ||A||_inf (Higham, Accuracy and Stability of Numerical Algorithms, ch. 12).
    """
    x = approx_solve(b)
    if not np.all(np.isfinite(x)):
        raise SolverError("solve with %s produced non-finite values" % name)
    bnorm = np.abs(b).max(initial=0.0)
    if bnorm == 0.0:
        return np.zeros_like(b)
    for sweep in range(_MAX_REFINE + 1):
        r = b - matvec(x)
        scale = a_norm * np.abs(x).max() + bnorm
        if np.abs(r).max() <= rel_tol * scale:
            return x
        if sweep < _MAX_REFINE:
            x = x + approx_solve(r)
    raise SolverError(
        "solve with %s missed backward error %.1e after %d refinement sweeps (%.3e)"
        % (name, rel_tol, _MAX_REFINE, np.abs(r).max() / scale)
    )


class _Dissected:
    """SpdFactor of A[p][:, p], p the nested-dissection order of the unknowns at ``points``.

    Solves take and return vectors in A's own numbering.
    """

    def __init__(self, A, points, name):
        A = sp.csr_matrix(A)
        self.p = _nested_dissection(points, A)
        self.factor = SpdFactor(A[self.p][:, self.p], name=name)

    def solve(self, b, rel_tol):
        x = np.empty_like(b)
        x[self.p] = self.factor.solve(b[self.p], rel_tol=rel_tol)
        return x


def _centroids(mesh):
    return mesh.vertices[mesh.triangles].mean(axis=1)


def _prepare(mesh, spec, dofs, system, lift):
    """``system``, or one assembled from dofs and lift; a dofs or lift given
    with a system must equal the system's own."""
    if system is None:
        return assemble_system(mesh, spec, dofs, lift)
    own = system.dofs.interior_vertex_ids
    if dofs is not None and not np.array_equal(dofs.interior_vertex_ids, own):
        raise ValueError("dofs differ from the ones the system was assembled with")
    if lift is not None and not np.array_equal(lift, system.lift):
        raise ValueError("lift differs from the one the system was assembled with")
    return system


def _compose(system, u1, u0):
    """The EG function of interior-vertex values u1 over the system's lift and constants u0."""
    lin = system.lift.copy()
    lin[system.dofs.interior_vertex_ids] += u1
    return EGFunction(lin, u0.copy())


def solve_standard_eg(mesh, spec, dofs=None, system=None, lift=None):
    """Monolithic solve of the (non-preserving) EG scheme.

    Returns the full discrete solution including the Dirichlet lift.
    """
    system = _prepare(mesh, spec, dofs, system, lift)
    points = np.vstack([mesh.vertices[system.dofs.interior_vertex_ids], _centroids(mesh)])
    b = np.concatenate([system.b1, system.b0])
    x = _Dissected(system.full_matrix(), points, "monolithic EG system").solve(b, rel_tol=1e-12)
    n1 = system.dofs.n_interior
    return _compose(system, x[:n1], x[n1:])


class _Capacitance:
    """A11[I, I]^{-1} from the factor of the full A11, I the free nodes.

    With the clamped set C, Z = A11^{-1} E_C and G = Z[C], the capacitance
    (Sherman-Morrison-Woodbury) form gives x_I = (y - Z G^{-1} y_C)_I for
    y = A11^{-1} r~, r~ = r with zeros on C (Hager, SIAM Review 31(2),
    1989).  Solves are refined against A11[I, I], applied as (A11 x~)_I
    with x~ zero on C, so A11[I, I] is never extracted; ||A11||_inf bounds
    ||A11[I, I]||_inf in the refinement test.
    """

    solves = 0  # its triangular solves count in the full factor's

    def __init__(self, full, free):
        self.full, self.free = full, free
        self.clamped = np.flatnonzero(~free)
        E = np.zeros((free.size, self.clamped.size))
        E[self.clamped, np.arange(self.clamped.size)] = 1.0
        self.Z = full.lu_solve(E)
        self.G = self.Z[self.clamped]

    def _scatter(self, x):
        out = np.zeros(self.free.size)
        out[self.free] = x
        return out

    def _approx_solve(self, r):
        y = self.full.lu_solve(self._scatter(r))
        return (y - self.Z @ np.linalg.solve(self.G, y[self.clamped]))[self.free]

    def solve(self, b, rel_tol):
        matvec = lambda x: (self.full.A @ self._scatter(x))[self.free]
        return _refine(b, self._approx_solve, matvec, "A11 (capacitance)", rel_tol, self.full.norm)


class A11Factor:
    """Step-1 solves with the principal submatrices A11[I, I], I the free set.

    A11 is held in the nested-dissection order p of the interior vertices at
    ``points``; a free set I is factored in the order p restricted to I,
    which is a nested-dissection order of its subgraph.  The factor of the
    full A11 stays alive for the whole solve.  While the clamped set C is
    small, 2 |C| n <= fill of the full factor (n the size of A11), a new free
    set gets the capacitance form on that factor: |C| triangular solves,
    each about 2 fill flops, against at least fill^2 / n flops for a
    refactorization.  A larger C has A11[I, I] factored instead, after the
    previous submatrix factor is dropped, so at most the full factor and one
    submatrix factor are alive.  ``count`` is the A11-class factorizations
    so far, ``fill_nnz`` their stored L and U entries, ``columns`` the
    triangular solves spent forming the capacitance matrices and
    ``triangular_solves`` all right-hand sides passed to triangular solves.
    """

    def __init__(self, A11, points):
        self.p = _nested_dissection(points, A11)
        self.A11 = sp.csc_matrix(sp.csr_matrix(A11)[self.p][:, self.p])
        self.full = SpdFactor(self.A11, name="A11")
        self.free = np.ones(self.A11.shape[0], dtype=bool)
        self.order = self.p  # b[order] is b, given on the free nodes, in factor order
        self.factor = self.full  # solves on self.free
        self.count = 1
        self.fill_nnz = int(self.full.lu.nnz)
        self.columns = 0
        self.dropped_solves = 0  # by the factors already replaced

    @property
    def triangular_solves(self):
        current = 0 if self.factor is self.full else self.factor.solves
        return self.dropped_solves + self.full.solves + current

    def solve(self, b, free):
        """A11[free][:, free]^{-1} b, with b given on the free nodes."""
        if not np.array_equal(free, self.free):
            if self.factor is not self.full:
                self.dropped_solves += self.factor.solves
            ordered_free = free[self.p]
            self.factor, self.free = self.full, free
            self.order = (np.cumsum(free) - 1)[self.p[ordered_free]]
            k = int(np.count_nonzero(~free))
            if 0 < k < free.size:
                if 2 * k * free.size <= self.full.lu.nnz:
                    self.factor = _Capacitance(self.full, ordered_free)
                    self.columns += k
                else:
                    self.factor = SpdFactor(self.A11[ordered_free][:, ordered_free], name="A11")
                    self.count += 1
                    self.fill_nnz += int(self.factor.lu.nnz)
        if not free.any():
            return np.zeros(0)
        x = np.empty_like(b)
        x[self.order] = self.factor.solve(b[self.order], rel_tol=1e-13)
        return x


def inner_richardson(u1, w0, system, spec, extremes, a11_factor):
    """Active-set (semismooth) Newton solve of the continuous-part problem (Step 1).

    Solves A11 P(u) + S1 Q(u) = r, r = b1 - A10 w0, with P the clamp to the
    windows [a - under_i, b - over_i].  Each step is the Richardson sweep
    preconditioned by the generalized Jacobian, with unit damping.  The
    clamped set C holds the nodes with P(u) != u and every infeasible
    window (P clamps those to a - under); with the clamp values c_C the
    step solves A11[I, I] u_I = r_I - A11[I, C] c_C on the free rest I by
    ``a11_factor`` (an A11Factor) and sets u_C = c_C + S1_C^{-1}
    (r - A11 P(u))_C.  The loop stops at the first step whose result has
    the same clamped set and clamp values as the step used: that result
    solves Step 1 exactly (Hintermueller, Ito & Kunisch, SIAM J. Optim.
    13(3), 2002).

    Returns (u1_new, step_count, step_sizes, converged), step sizes in the
    L2 norm; converged is False if spec.max_inner steps did not settle C.
    """
    rhs = system.b1 - system.A10 @ w0
    lo = spec.bounds[0] - extremes.under
    hi = spec.bounds[1] - extremes.over

    def clamp_values(u):  # c on C, NaN on I
        return np.where((u < lo) | (lo > hi), lo, np.where(u > hi, hi, np.nan))

    u = np.asarray(u1, dtype=float)
    c = clamp_values(u)
    increments = []
    for _ in range(spec.max_inner):
        free = np.isnan(c)
        clamped = ~free
        if np.any(system.S1[clamped] <= 0.0):
            raise SolverError("Step 1 is singular: a clamped node has no stabilizer (alpha = 0)")
        p = np.where(free, 0.0, c)
        p[free] = a11_factor.solve((rhs - system.A11 @ p)[free], free)
        u_new = p.copy()
        u_new[clamped] += (rhs - system.A11 @ p)[clamped] / system.S1[clamped]
        d = u_new - u
        increments.append(float(np.sqrt(d @ (system.M1 @ d))))
        u, c_new = u_new, clamp_values(u_new)
        if np.array_equal(c_new, c, equal_nan=True):
            return u, len(increments), increments, True
        c = c_new
    return u, len(increments), increments, False


def outer_constant_solve(u1_new, system, spec, extremes, a00_factor):
    """Constant-part solve (Step 2) against the truncated linear iterate.

    Solves A00 u0 = b0 - A10^T w1p by ``a00_factor`` (any factor of A00 with
    ``solve(b, rel_tol)``), where w1p is the truncation of u1_new against
    ``extremes``, the patch extremes of the frozen constants.
    """
    w1p = truncate_values(np.asarray(u1_new, dtype=float), extremes, spec.bounds)
    rhs = system.b0 - system.A10.T @ w1p
    return a00_factor.solve(rhs, rel_tol=1e-13)


def nonlinear_residual(system, solution):
    """Vector 2-norm of a_h(u+, .) + s_h(u-, .) - b_h(.) over all basis dofs."""
    u_plus = solution.u_plus
    p = u_plus.linear_coeffs[system.dofs.interior_vertex_ids]
    q = solution.u.linear_coeffs[system.dofs.interior_vertex_ids] - p
    u0 = u_plus.const_coeffs
    r1 = system.A11 @ p + system.A10 @ u0 + system.S1 * q - system.b1
    r0 = system.A10.T @ p + system.A00 @ u0 - system.b0
    return float(np.sqrt(np.linalg.norm(r1) ** 2 + np.linalg.norm(r0) ** 2))


def solve_bound_preserving(mesh, spec, dofs=None, system=None, lift=None):
    """Nested fixed-point solve of the bound-preserving EG scheme.

    Factors only A00, the full A11 once, and principal submatrices of A11
    when many nodes are clamped (see A11Factor).
    Starts from one decoupled sweep u1 = A11^{-1} b1,
    u0 = A00^{-1} (b0 - A10^T u1), alternates the Step-1 Newton solve with
    the decoupled constant-part solve, and stops when the L2 increment of
    the constants drops below spec.tol_outer.
    """
    system = _prepare(mesh, spec, dofs, system, lift)
    a11 = A11Factor(system.A11, mesh.vertices[system.dofs.interior_vertex_ids])
    a00_factor = _Dissected(system.A00, _centroids(mesh), "A00")

    u1 = a11.solve(system.b1, a11.free)
    u0 = a00_factor.solve(system.b0 - system.A10.T @ u1, rel_tol=1e-13)

    trace = SolveTrace(stop_reason="max_outer")
    for _ in range(spec.max_outer):
        extremes = patch_extremes(mesh, u0, system.dofs)
        slack = feasibility_check(extremes, spec.bounds)
        factorizations, columns = a11.count, a11.columns
        u1, _, incs, inner_ok = inner_richardson(u1, u0, system, spec, extremes, a11)
        u0_new = outer_constant_solve(u1, system, spec, extremes, a00_factor)
        d = u0_new - u0
        u0 = u0_new
        outer_inc = float(np.sqrt(d @ (system.M0_diag * d)))
        trace.inner_residual_histories.append(incs)
        trace.outer_increments.append(outer_inc)
        trace.worst_slack_per_outer.append(slack)
        trace.clamped_per_outer.append(int(np.count_nonzero(~a11.free)))
        trace.a11_factorizations_per_outer.append(a11.count - factorizations)
        trace.capacitance_columns_per_outer.append(a11.columns - columns)
        if not inner_ok:
            trace.stop_reason = "inner_stalled"
            break
        if outer_inc <= spec.tol_outer:
            trace.stop_reason = "converged"
            break

    trace.fill_nnz = a11.fill_nnz + int(a00_factor.factor.lu.nnz)
    trace.triangular_solves = a11.triangular_solves + a00_factor.factor.solves
    u = _compose(system, u1, u0)
    u_plus = apply_P(mesh, system.dofs, u0, u, spec.bounds)
    solution = EGSolution(u=u, u_plus=u_plus, trace=trace)
    trace.nonlinear_residual = nonlinear_residual(system, solution)
    return solution

