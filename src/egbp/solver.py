"""Linear solves, the standard EG solve, and the decoupled fixed-point solver.

The nonlinear scheme a_h(u+, v) + s_h(u-, v) = b_h(v) is solved by
alternating two well-conditioned subproblems: an active-set (semismooth)
Newton solve for the continuous part (each step one solve with a principal
submatrix of the plain P1 matrix A11, no worse conditioned than A11, whose
conditioning is independent of the penalty exponent) and a direct solve
with the constant-part matrix A00 = mu*M0 + penalty jump coupling.  The
Newton solve stops at its first step that leaves the clamped set
unchanged, since that step solved Step 1 exactly; it has no tolerance.
Where A11 is a perturbed mass matrix (eps small against mu h^2), every
Step-1 solve is CG preconditioned by the diagonal of A11, and A11 is never
factored; an a-priori bound on the condition number picks that path (see
_jacobi_pays).  Otherwise A11 is factored once per solve, and that one
factor preconditions every free set; no submatrix is factored.  Each
Step-1 solve is one CG on the free rows of A11, started at the current
Newton iterate, and its free set picks only the preconditioner (see
OrderedFactor).  Every matrix is factored in the order its mesh's
assembly stencil keeps for its unknowns (see assembly._order), and each
mesh keeps its last factor of A00 for every later solve whose A00 equals
it bit for bit (see _a00_factor).  Every linear solve is one routine, CG
(_pcg) to normwise backward error _CG_TOL, on the system's blocks in the
system's numbering; a factor enters only as its preconditioner
(OrderedFactor.inverse), and its order only inside that.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import _check_dofs, _order, assemble_system, penalty_stiffness
from .fespace import EGFunction
from .limiter import apply_P, feasibility_check, patch_extremes, truncate_values

__all__ = [
    "SolverError",
    "SolveTrace",
    "EGSolution",
    "SpdFactor",
    "OrderedFactor",
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
    up _MAX_INNER steps before its clamped set settled) or "max_outer"
    (_MAX_OUTER sweeps).
    ``a11_path`` is "jacobi" if Step 1 solved by Jacobi-preconditioned CG
    with no A11 factor, "factor" if it used the factor of A11, and
    ``kappa_bound`` the bound on the condition number of diag(A11)^{-1} A11
    that chose the path (see _jacobi_pays).
    Per outer sweep it records the Newton step sizes, the clamped-node
    count of the last Newton step, the worst feasibility slack
    min_i (b - over_i) - (a - under_i) and its Step-1 CG steps, whatever
    preconditions them (see OrderedFactor); a solve whose start, the
    current iterate, already meets the backward error adds 0.
    ``initial_cg_steps`` is those of the initial sweep's A11 solve, before
    the first outer sweep.
    ``a00_reused`` is True if the solve took the factor of A00 its mesh
    kept from an earlier solve (see _a00_factor), False if it factored A00,
    which the mesh then keeps in place of the factor before.
    ``fill_nnz`` is the stored L and U entries summed over the
    factorizations this solve made, of A00 unless reused and of A11 (none
    on the Jacobi path), and ``triangular_solves`` this solve's
    triangular solves: one per CG step preconditioned with a factor, A00's
    and, off the Jacobi path, A11's.  ``outer_iters``, ``converged``,
    ``inner_iters_per_outer``, ``feasible_per_outer`` and
    ``feasibility_violations`` are read off them.
    ``polish_outer_iters`` is always 0: the solve has no sweeps after
    convergence; the field stays because the benchmark records read it.
    """

    inner_residual_histories: list = field(default_factory=list)
    outer_increments: list = field(default_factory=list)
    worst_slack_per_outer: list = field(default_factory=list)
    clamped_per_outer: list = field(default_factory=list)
    cg_steps_per_outer: list = field(default_factory=list)
    initial_cg_steps: int = 0
    nonlinear_residual: float = np.nan
    fill_nnz: int = 0
    triangular_solves: int = 0
    polish_outer_iters: int = 0
    stop_reason: str = ""
    a11_path: str = ""
    kappa_bound: float = np.nan
    a00_reused: bool = False

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


# Normwise backward error of every solve: factors, Step-1 CG, the Schur CG and
# the standard solve's check.  At 1e-12 the layer comparator's extremes moved by 2e-12.
_CG_TOL = 1e-15
# Newton steps per Step-1 solve and outer sweeps per bound-preserving solve.
_MAX_INNER = 500
_MAX_OUTER = 200


class SpdFactor:
    """Sparse LU factorization of an SPD matrix, in the order given, and CG preconditioned with it.

    OrderedFactor, its only maker in the package, passes the matrix in
    its fill-reducing order (see assembly._order): SuperLU adds no column
    order of its own.  ``A`` is the matrix given, not a copy.  The solvers
    use the factor only as a preconditioner, ``lu_solve`` inside
    OrderedFactor.inverse; ``solves`` counts its calls so far.
    ``lu_solve`` takes SuperLU's transposed solve, which presumes A
    exactly symmetric.  ``solve`` has no caller in the package:
    perfbench's traced subclass wraps it.
    """

    def __init__(self, A, name="system"):
        csc = sp.csc_matrix(A)
        self.name = name
        if csc.shape[0] != csc.shape[1]:
            raise SolverError("matrix %s is not square" % name)
        if np.any(csc.diagonal() <= 0.0):
            raise SolverError("matrix %s has a nonpositive diagonal entry" % name)
        try:
            self.lu = spla.splu(csc, permc_spec="NATURAL")
        except RuntimeError as exc:
            raise SolverError("factorization of %s failed: %s" % (name, exc)) from exc
        self.A = A
        self.solves = 0

    def lu_solve(self, b):
        """The triangular solves with the factor for one vector b.

        They solve A^T x = b, the same system: every matrix factored here
        (A11, A00 and K_gamma, in nested-dissection order) is exactly
        symmetric.  SuperLU's transposed solve is the faster one: on the
        18,432-element layer mesh an A00 solve takes 1.5 ms against 2.1 ms,
        a K_gamma solve (9,025 unknowns) 1.0 ms against 1.4 ms (medians of
        1,000 interleaved solves, one thread, 2-vCPU VM).
        """
        self.solves += 1
        return self.lu.solve(b, trans="T")

    def solve(self, b):
        """A^{-1} b by _pcg preconditioned with the factor, which is iterative
        refinement with an optimal step length: one step, one triangular
        solve, unless round-off leaves it short of _CG_TOL."""
        return _pcg(self.A.dot, self.lu_solve, b, _inf_norm(self.A), self.name)[0]


def _inf_norm(A):
    return float(np.asarray(abs(A).sum(axis=1)).max(initial=0.0))


def _prepare(mesh, spec, dofs, system, lift):
    """``system``, or one assembled from dofs and lift; a dofs or lift given
    with a system must equal the system's own, and the system's dofs and A00
    must fit the mesh."""
    if system is None:
        return assemble_system(mesh, spec, dofs, lift)
    _check_dofs(mesh, system.dofs)
    if system.A00.shape != (mesh.num_elements,) * 2:
        raise ValueError("system.A00 has shape %s, the mesh %d elements" % (system.A00.shape, mesh.num_elements))
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


def _pcg(matvec, precond, g, a_norm, name, x0=None):
    """(A^{-1} g, steps) by CG on the A of ``matvec``, preconditioned with ``precond``, from ``x0``.

    Stops at normwise backward error _CG_TOL, ||r||_inf <= _CG_TOL (a_norm
    ||x||_inf + ||g||_inf), a_norm a bound on ||A|| (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 12).  The start ``x0`` costs one
    product, r = g - A x0; without one x starts at zero and r at g.  A start
    that meets the test is returned as it is, after 0 steps.  SolverError on
    a non-finite residual, on breakdown (p^T A p <= 0, or r^T z <= 0: the
    preconditioner is not positive definite) or after g.size steps.
    """
    if x0 is None:
        x, r = np.zeros_like(g), g.copy()
    else:
        x = np.array(x0, dtype=float)
        r = g - matvec(x)
    p, rz = np.zeros_like(g), 1.0
    gnorm, steps = np.abs(g).max(initial=0.0), 0
    while not (res := np.abs(r).max(initial=0.0)) <= _CG_TOL * (a_norm * np.abs(x).max(initial=0.0) + gnorm):
        if not np.isfinite(res):
            raise SolverError("CG on %s met non-finite values after %d steps" % (name, steps))
        if steps == g.size:
            raise SolverError("CG on %s missed backward error %.0e in %d iterations" % (name, _CG_TOL, steps))
        steps += 1
        z = precond(r)
        rz, rz_old = r @ z, rz
        if not rz > 0.0:
            raise SolverError("CG on %s broke down: r^T z = %.3e, the preconditioner is not positive definite" % (name, rz))
        p = z + (rz / rz_old) * p  # p = 0 at first
        q = matvec(p)
        pq = p @ q
        if not pq > 0.0:
            raise SolverError("CG on %s broke down: p^T A p = %.3e, %s is not positive definite" % (name, pq, name))
        x += (rz / pq) * p
        r -= (rz / pq) * q
    return x, steps


def _kappa_bound(A, mass_diag):
    """Bound on the condition number of D_I^{-1} A[I, I], D = diag(A), for every I.

    For A = R + M, R positive semidefinite and M the P1 mass matrix times mu
    with diagonal ``mass_diag`` (A11 = eps K + mu M1 on the interior
    vertices), Gershgorin bounds the largest eigenvalue by G = max_i
    sum_j |a_ij| / a_ii, and x^T A x >= x^T M x >= 1/2 x^T diag(M) x (an
    element mass matrix scaled by its diagonal has the eigenvalues 1/2, 1/2
    and 2: Wathen, IMA J. Numer. Anal. 7(4), 1987) bounds the smallest by
    1/2 min_i m_ii / a_ii.  Both bounds hold for every principal submatrix.
    """
    d = A.diagonal()
    if d.size == 0:
        return 1.0
    g = (np.asarray(abs(A).sum(axis=1)).ravel() / d).max()
    return float(g / (0.5 * (mass_diag / d).min()))


def _jacobi_pays(kappa, step_cost, factor_cost):
    """True if CG's step bound 1/2 sqrt(kappa) ln(2 / _CG_TOL) times the cost
    of a step is at most the cost of a factor (the bound from ||e_k||_A <=
    2 ((sqrt(kappa) - 1) / (sqrt(kappa) + 1))^k ||e_0||_A; Saad 2003, 6.11)."""
    return 0.5 * np.sqrt(kappa) * np.log(2.0 / _CG_TOL) * step_cost <= factor_cost


def solve_standard_eg(mesh, spec, dofs=None, system=None, lift=None):
    """Solve of the (non-preserving) EG scheme with factors of A00, K_gamma and, unless mass-dominated, A11.

    CG on the Schur complement S = A11 - A10 A00^{-1} A10^T (Benzi, Golub &
    Liesen, Acta Numerica 14, 2005) gives u1, then u0 = A00^{-1} (b0 - A10^T
    u1), checked once against the system's blocks: SolverError unless its
    normwise backward error is at most _CG_TOL (one Schur solve met it on
    every layer mesh measured, 288 to 294,912 elements).  CG is
    preconditioned by A11^{-1} + K_gamma^{-1}, one inverse per regime
    (Cahouet & Chabard, Int. J. Numer. Methods Fluids 8(8), 1988; Mardal &
    Winther, Numer. Linear Algebra Appl. 18(1), 2011): S acts like A11 on
    oscillatory modes and like the penalty's stiffness K_gamma (see
    penalty_stiffness, factored in A11's order) on smooth ones, so the step
    count barely grows with refinement.  Where A11 is mass-dominated,
    diag(A11)^{-1} stands in for A11^{-1} and A11 is not factored; the Schur
    CG then takes more steps.  _jacobi_pays charges the Jacobi step bound at
    one K_gamma triangular solve, f = K_gamma's fill, per step, against the
    f^2 / n1 flops that a factor of A11 takes at least (f entries over n1
    columns), which has K_gamma's pattern and order and so its fill.  The
    A00 factor is the mesh's kept one if equal (see _a00_factor).  Every
    inverse is an OrderedFactor's, in the system's numbering.  Returns the
    full discrete solution including the Dirichlet lift.
    """
    system = _prepare(mesh, spec, dofs, system, lift)
    n1 = system.dofs.n_interior
    p1 = _order(mesh, system.dofs, "vertex")
    a00 = _a00_factor(mesh, system)[0]
    k_gamma = OrderedFactor(penalty_stiffness(mesh, spec, system.dofs), "K_gamma", p1)
    A11, A10, A00 = system.A11, system.A10, system.A00
    kappa, fill = _kappa_bound(A11, spec.mu * system.M1.diagonal()), k_gamma.fill_nnz
    a11 = OrderedFactor(A11, "A11", None if _jacobi_pays(kappa, fill, fill**2 / max(n1, 1)) else p1)

    schur = lambda p: A11 @ p - A10 @ a00.inverse(A10.T @ p)  # ||S||_2 <= ||A11||_inf
    precond = lambda r: a11.inverse(r) + k_gamma.inverse(r)
    b1, b0 = system.b1, system.b0
    u1 = _pcg(schur, precond, b1 - A10 @ a00.inverse(b0), a11.norm, "S")[0]
    u0 = a00.inverse(b0 - A10.T @ u1)
    o1, o0 = np.ones(n1), np.ones(b0.size)  # ||A||_inf, one block's |.| alive at a time
    norm = np.concatenate([abs(A11) @ o1 + abs(A10) @ o0, abs(A10.T) @ o1 + abs(A00) @ o0]).max()
    x, b = np.concatenate([u1, u0]), np.concatenate([b1, b0])
    res = np.abs(b - np.concatenate([A11 @ u1 + A10 @ u0, A10.T @ u1 + A00 @ u0])).max()
    scale = norm * np.abs(x).max() + np.abs(b).max()
    if not res <= _CG_TOL * scale:
        raise SolverError("standard EG system missed backward error %.0e: residual %.3e, scale %.3e" % (_CG_TOL, res, scale))
    return _compose(system, u1, u0)


class OrderedFactor:
    """Solves with the principal submatrices A[I, I] of an SPD A, I the free set, in A's numbering.

    Every solve is one CG (_pcg) on A[I, I], from a start given on the free
    nodes or from zero, to backward error against ||A||_inf, and the free
    set picks only its preconditioner M.  A CG step multiplies A itself
    while every node is free, else only the rows A[I, :], cut from A when I
    changes, by x~ = x padded with zeros on the clamped set C; each row
    keeps its stored entries in their order, so the product is the free
    part of the full one, bit for bit.  ``A`` is the matrix given, in CSR
    (a CSR one is not copied).  ``inverse`` applies the preconditioner of
    the all-free set in A's numbering.  Without an order ``p`` it is
    diag(A)^{-1} and nothing is factored (Jacobi): _kappa_bound bounds the
    condition number for every I at once.  Given p, ``full`` is the factor
    of A[p][:, p] (sorted indices), which lives as long as this object, and
    ``inverse`` is its triangular solve between a gather and a scatter by
    p; nothing else reads p.  With every node free M is ``inverse``, and CG
    is iterative refinement with an optimal step; otherwise M is r ->
    inverse(r~)_I.  (A^{-1})[I, I] and A[I, I]^{-1} differ by a term of
    rank |C|, so in exact arithmetic CG takes at most |C| + 1 steps (Saad,
    Iterative Methods for Sparse Linear Systems, 2003).  An empty I takes
    no step.  ``fill_nnz`` is the factor's stored L and U entries (0 for
    Jacobi) and ``cg_steps`` the CG steps, off the Jacobi path one
    triangular solve each.
    """

    def __init__(self, A, name, p=None):
        self.A = A = A.tocsr()
        self.name, self.norm, self._p = name, _inf_norm(A), p
        if p is None:
            self.full, self._inv_diag = None, 1.0 / A.diagonal()
        else:
            ordered = A[p][:, p]
            ordered.sort_indices()
            self.full = SpdFactor(ordered, name=name)
        self.free = np.ones(A.shape[0], dtype=bool)
        self.ids = np.arange(A.shape[0])  # I = self.free
        self.rows = A  # A[I, :], A itself while every node is free
        self.cg_steps = 0

    @property
    def fill_nnz(self):
        return 0 if self.full is None else int(self.full.lu.nnz)

    def inverse(self, r):
        """M r for the all-free set, r in A's numbering: diag(A)^{-1} r, or A^{-1} r by one triangular solve."""
        if self.full is None:
            return self._inv_diag * r
        x = np.empty_like(r)
        x[self._p] = self.full.lu_solve(r[self._p])
        return x

    def solve(self, b, free, x0=None):
        """A[free][:, free]^{-1} b by CG from ``x0`` (zero if None), b and x0 given on the free nodes."""
        if not np.array_equal(free, self.free):
            self.free, self.ids = free, np.flatnonzero(free)
            self.rows = self.A if free.all() else self.A[self.ids]
        if free.all():
            x, steps = _pcg(self.A.dot, self.inverse, b, self.norm, self.name, x0)
        else:
            ids, rows = self.ids, self.rows
            padded = np.zeros(free.size)  # stays zero on C

            def pad(v):
                padded[ids] = v
                return padded

            precond = lambda r: self.inverse(pad(r))[ids]
            x, steps = _pcg(lambda v: rows @ pad(v), precond, b, self.norm, "%s[I, I]" % self.name, x0)
        self.cg_steps += steps
        return x


# The last A00 factor of each live mesh, an OrderedFactor of a copy of A00;
# an entry dies with its mesh, as the value holds no reference to it.
_A00_FACTORS = weakref.WeakKeyDictionary()


def _a00_factor(mesh, system):
    """(OrderedFactor of the system's A00, reused): the factor the mesh keeps
    if its A00 equals this one bit for bit, else a new one, which it keeps.

    A Mesh is immutable and hashed by identity; a system's A00 is neither,
    so the factor is made of a copy of A00, its ``A``, and indptr, indices
    and data are compared with that copy.  A00 depends on the mesh, mu,
    gamma and beta: solves of one problem on one mesh share a factor
    whatever their tol_inner.  Another A00, such as the layer comparator's
    at beta = 1, drops the kept factor before it is factored, in the
    stencil's element order: a mesh holds one A00 factor, and the coarser
    meshes of a refinement hierarchy add at most about 1/3 of the finest
    one's.  Solves that share the factor share its ``cg_steps``, which a
    solve reads as a difference.
    """
    A00 = system.A00.tocsr()
    kept = _A00_FACTORS.pop(mesh, None)
    if kept is not None and all(np.array_equal(getattr(kept.A, a), getattr(A00, a)) for a in ("indptr", "indices", "data")):
        _A00_FACTORS[mesh] = kept
        return kept, True
    kept = None  # the kept factor dies here, unless a solve still holds it
    index = [a.copy() if a.flags.writeable else a for a in (A00.indices, A00.indptr)]  # read-only ones are the stencil's
    copy = sp.csr_matrix((A00.data.copy(), *index), shape=A00.shape)
    _A00_FACTORS[mesh] = factor = OrderedFactor(copy, "A00", _order(mesh, system.dofs, "element"))
    return factor, False


def inner_richardson(u1, w0, system, spec, extremes, a11_factor):
    """Active-set (semismooth) Newton solve of the continuous-part problem (Step 1).

    Solves A11 P(u) + S1 Q(u) = r, r = b1 - A10 w0, with P the clamp to the
    windows [a - under_i, b - over_i].  Each step is the Richardson sweep
    preconditioned by the generalized Jacobian, with unit damping.  The
    clamped set C holds the nodes with P(u) != u and every infeasible
    window (P clamps those to a - under); with the clamp values c_C the
    step solves A11[I, I] u_I = r_I - A11[I, C] c_C on the free rest I by
    ``a11_factor`` (an OrderedFactor of A11), starting CG at the current
    u_I, and sets u_C = c_C + S1_C^{-1} (r - A11 P(u))_C.  The loop stops
    at the first step whose result has the same clamped set and clamp
    values as the step used: that result solves Step 1 exactly
    (Hintermueller, Ito & Kunisch, SIAM J. Optim. 13(3), 2002).

    Returns (u1_new, step_count, step_sizes, converged), step sizes in the
    L2 norm; converged is False if _MAX_INNER steps did not settle C.
    """
    rhs = system.b1 - system.A10 @ w0
    lo = spec.bounds[0] - extremes.under
    hi = spec.bounds[1] - extremes.over

    def clamp_values(u):  # c on C, NaN on I
        return np.where((u < lo) | (lo > hi), lo, np.where(u > hi, hi, np.nan))

    u = np.asarray(u1, dtype=float)
    c = clamp_values(u)
    increments = []
    for _ in range(_MAX_INNER):
        free = np.isnan(c)
        clamped = ~free
        if np.any(system.S1[clamped] <= 0.0):
            raise SolverError("Step 1 is singular: a clamped node has no stabilizer (alpha = 0)")
        p = np.where(free, 0.0, c)
        p[free] = a11_factor.solve((rhs - system.A11 @ p)[free], free, u[free])
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

    Solves A00 u0 = b0 - A10^T w1p by ``a00_factor``, an OrderedFactor of
    A00 solving on its all-true free set, where w1p is the truncation of
    u1_new against ``extremes``, the patch extremes of the frozen constants.
    """
    w1p = truncate_values(np.asarray(u1_new, dtype=float), extremes, spec.bounds)
    rhs = system.b0 - system.A10.T @ w1p
    return a00_factor.solve(rhs, a00_factor.free)


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

    Factors only A00, unless the mesh kept an equal factor (see
    _a00_factor), and, unless A11 is mass-dominated, A11 once, whose
    factor preconditions every Step-1 free set (see OrderedFactor).
    Jacobi-CG takes the place of the A11 factor where
    _jacobi_pays: its step costs a mat-vec, about nnz(A11) flops, and a
    nested-dissection factor of a planar mesh's matrix about nnz(A11)^{3/2}
    (George 1973; Lipton, Rose & Tarjan, SIAM J. Numer. Anal. 16(2), 1979).
    Starts from one decoupled sweep u1 = A11^{-1} b1,
    u0 = A00^{-1} (b0 - A10^T u1), alternates the Step-1 Newton solve with
    the decoupled constant-part solve, and stops when the L2 increment of
    the constants drops below spec.tol_outer.
    """
    system = _prepare(mesh, spec, dofs, system, lift)
    kappa, nnz = _kappa_bound(system.A11, spec.mu * system.M1.diagonal()), system.A11.nnz
    jacobi = _jacobi_pays(kappa, nnz, nnz**1.5)
    a11 = OrderedFactor(system.A11, "A11", None if jacobi else _order(mesh, system.dofs, "vertex"))
    a00, a00_reused = _a00_factor(mesh, system)
    a00_steps = a00.cg_steps

    u1 = a11.solve(system.b1, a11.free)
    u0 = a00.solve(system.b0 - system.A10.T @ u1, a00.free)

    path = "jacobi" if jacobi else "factor"
    trace = SolveTrace(
        stop_reason="max_outer", a11_path=path, kappa_bound=kappa, initial_cg_steps=a11.cg_steps, a00_reused=a00_reused
    )
    for _ in range(_MAX_OUTER):
        extremes = patch_extremes(mesh, u0, system.dofs)
        slack = feasibility_check(extremes, spec.bounds)
        cg_steps = a11.cg_steps
        u1, _, incs, inner_ok = inner_richardson(u1, u0, system, spec, extremes, a11)
        u0_new = outer_constant_solve(u1, system, spec, extremes, a00)
        d = u0_new - u0
        u0 = u0_new
        outer_inc = float(np.sqrt(d @ (mesh.area * d)))
        trace.inner_residual_histories.append(incs)
        trace.outer_increments.append(outer_inc)
        trace.worst_slack_per_outer.append(slack)
        trace.clamped_per_outer.append(int(np.count_nonzero(~a11.free)))
        trace.cg_steps_per_outer.append(a11.cg_steps - cg_steps)
        if not inner_ok:
            trace.stop_reason = "inner_stalled"
            break
        if outer_inc <= spec.tol_outer:
            trace.stop_reason = "converged"
            break

    trace.fill_nnz = a11.fill_nnz + (0 if a00_reused else a00.fill_nnz)
    trace.triangular_solves = a00.cg_steps - a00_steps + (0 if jacobi else a11.cg_steps)
    u = _compose(system, u1, u0)
    u_plus = apply_P(mesh, system.dofs, u0, u, spec.bounds)
    solution = EGSolution(u=u, u_plus=u_plus, trace=trace)
    trace.nonlinear_residual = nonlinear_residual(system, solution)
    return solution

