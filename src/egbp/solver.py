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
_jacobi_pays).  Otherwise the factor of the full A11 lives for the whole
solve and preconditions while few nodes are clamped; many clamped nodes
have the submatrix factored.  Each Step-1 solve is one CG on the free
rows of A11, started at the current Newton iterate, and its free set
picks only the preconditioner (see OrderedFactor).  Every matrix is
factored in the nested-dissection order of its unknowns' mesh positions:
interior vertices for A11, element centroids for A00.  Each mesh keeps
its first factor of A00, for every later solve whose A00 equals it bit
for bit, and lends its order to every other A00 of its pattern
(see _a00_factor).  Every linear solve is one routine, CG (_pcg) to
normwise backward error _CG_TOL; a factor enters only as its
preconditioner.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import assemble_system, penalty_stiffness
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
    min_i (b - over_i) - (a - under_i), the number of A11-class
    factorizations the sweep made and its Step-1 CG steps, whatever
    preconditions them (see OrderedFactor); a solve whose start, the
    current iterate, already meets the backward error adds 0.
    ``initial_cg_steps`` is those of the initial sweep's A11 solve, before
    the first outer sweep.
    ``a00_reused`` is True if the solve took the factor of A00 its mesh
    kept from an earlier solve (see _a00_factor), False if it factored A00:
    as the mesh's first factor, which the mesh keeps, or as one of its own,
    freed when the solve returns.
    ``fill_nnz`` is the stored L and U entries summed over the
    factorizations this solve made, of A00 unless reused and of the A11
    class (none on the Jacobi path), and ``triangular_solves`` this solve's
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
    a11_factorizations_per_outer: list = field(default_factory=list)
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


# Nested-dissection leaves hold about this many unknowns.
_ND_LEAF = 32


def _nested_dissection(points, A):
    """Nested-dissection order of the unknowns at ``points`` (n, 2) for the graph of A.

    The unknowns are bisected by position; the separator of each split holds
    one end of every entry of A across it, see _bisection_tree.  Each
    separator is ordered after both halves it separates (George, SIAM J.
    Numer. Anal. 10(2), 1973), so an elimination in this order makes no
    fill between sibling halves.  Ties keep the input order: the result is
    deterministic.
    """
    n = np.shape(points)[0]
    if n <= _ND_LEAF:
        return np.arange(n)
    code, level, depth = _bisection_tree(points, A)
    # post-order of the bisection tree: a tree node sorts by the largest
    # code beneath it, after the deeper nodes that share that code
    below = depth - level
    last = (((code >> below) + 1) << below) - 1
    return np.lexsort((-level, last))


def _bisection_tree(points, A):
    """Morton code, separator level and tree depth of the n > _ND_LEAF unknowns at ``points``.

    The bounding box is bisected at its midpoint, longer axis first, down to
    leaves of about _ND_LEAF unknowns: one code of ``depth`` bits per
    unknown, whose first s bits name its tree node at depth s.  Two codes
    split at the depth of their common prefix.  Every off-diagonal entry of
    the structurally symmetric A whose ends fall in the two halves of a
    split makes its end in the lower half a separator of that split, and an
    unknown's level is the shallowest split it separates (``depth`` if
    none): every entry between sibling halves has an end whose level is at
    most the depth of their split.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
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
    cut = ci < cj  # each crossing entry once, from its lower-half end
    level = np.full(n, depth)
    np.minimum.at(level, A.row[cut], depth - np.frexp(ci[cut] ^ cj[cut])[1])
    return code, level, depth


# Normwise backward error of every solve: factors, Step-1 CG, the Schur CG and
# the standard solve's check.  At 1e-12 the layer comparator's extremes moved by 2e-12.
_CG_TOL = 1e-15
# Newton steps per Step-1 solve and outer sweeps per bound-preserving solve.
_MAX_INNER = 500
_MAX_OUTER = 200


class SpdFactor:
    """Sparse LU factorization of an SPD matrix, in the order given, and CG preconditioned with it.

    The caller orders the matrix (see _nested_dissection): SuperLU adds no
    fill-reducing column order of its own.  ``A`` is held in CSR, so that
    OrderedFactor can cut rows from it.  The solvers use the factor only
    as a preconditioner, ``lu_solve``, inside their own CG; ``solves``
    counts the right-hand sides passed to it so far.  ``lu_solve`` takes
    SuperLU's transposed solve, which presumes A exactly symmetric.
    ``solve`` has no caller in the package: perfbench's traced subclass
    wraps it.
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
        self.A = csc.tocsr()
        self.norm = _inf_norm(self.A)
        self.solves = 0

    def lu_solve(self, b):
        """The triangular solves with the factor, b one vector or one per column.

        They solve A^T x = b, the same system: every matrix factored here
        (A11, A00, K_gamma and each A11[I, I], in nested-dissection order) is
        exactly symmetric.  SuperLU's transposed solve is the faster one: on
        the 18,432-element layer mesh an A00 solve takes 1.5 ms against 2.1
        ms, a K_gamma solve (9,025 unknowns) 1.0 ms against 1.4 ms (medians
        of 1,000 interleaved solves, one thread, 2-vCPU VM).
        """
        self.solves += 1 if b.ndim == 1 else b.shape[1]
        return self.lu.solve(b, trans="T")

    def solve(self, b):
        """A^{-1} b by _pcg preconditioned with the factor, which is iterative
        refinement with an optimal step length: one step, one triangular
        solve, unless round-off leaves it short of _CG_TOL."""
        return _pcg(self.A.dot, self.lu_solve, b, self.norm, self.name)[0]


def _inf_norm(A):
    return float(np.asarray(abs(A).sum(axis=1)).max(initial=0.0))


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
    u1), checked once against the monolithic system: SolverError unless its
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
    f^2 / n1 of a factor of A11 (as OrderedFactor counts a refactorization),
    which has K_gamma's pattern and order and so its fill.  The A00 factor
    is the mesh's kept one if equal (see _a00_factor).  Returns the full
    discrete solution including the Dirichlet lift.
    """
    system = _prepare(mesh, spec, dofs, system, lift)
    n1 = system.dofs.n_interior
    p1 = _nested_dissection(mesh.vertices[system.dofs.interior_vertex_ids], system.A11)
    a00 = _a00_factor(mesh, system.A00)[0]
    k_gamma = SpdFactor(penalty_stiffness(mesh, spec, system.dofs)[p1][:, p1], name="K_gamma")
    A11 = sp.csc_matrix(sp.csr_matrix(system.A11)[p1][:, p1])
    A10 = sp.csr_matrix(system.A10)[p1][:, a00.p]
    A01 = A10.T
    kappa, fill = _kappa_bound(system.A11, spec.mu * system.M1.diagonal()), k_gamma.lu.nnz
    if _jacobi_pays(kappa, fill, fill**2 / max(n1, 1)):
        inv_diag = 1.0 / A11.diagonal()
        a11_inverse = lambda r: inv_diag * r
    else:
        a11_inverse = SpdFactor(A11, name="A11").lu_solve

    schur = lambda p: A11 @ p - A10 @ a00.full.lu_solve(A01 @ p)  # ||S||_2 <= ||A11||_inf
    precond = lambda r: a11_inverse(r) + k_gamma.lu_solve(r)

    def matvec(x, M11, M10, M01, M00):  # the monolithic matrix, in the factors' orders
        return np.concatenate([M11 @ x[:n1] + M10 @ x[n1:], M01 @ x[:n1] + M00 @ x[n1:]])

    blocks = (A11, A10, A01, a00.A)
    p = np.concatenate([p1, n1 + a00.p])
    o1, o0 = np.ones(n1), np.ones(p.size - n1)  # ||A||_inf, one block's |.| alive at a time
    norm = np.concatenate([abs(A11) @ o1 + abs(A10) @ o0, abs(A01) @ o1 + abs(a00.A) @ o0]).max()
    b = np.concatenate([system.b1, system.b0])[p]
    u1 = _pcg(schur, precond, b[:n1] - A10 @ a00.full.lu_solve(b[n1:]), _inf_norm(A11), "S")[0]
    y = np.concatenate([u1, a00.full.lu_solve(b[n1:] - A01 @ u1)])
    res, scale = np.abs(b - matvec(y, *blocks)).max(), norm * np.abs(y).max() + np.abs(b).max()
    if not res <= _CG_TOL * scale:
        raise SolverError("standard EG system missed backward error %.0e: residual %.3e, scale %.3e" % (_CG_TOL, res, scale))
    x = np.empty_like(b)
    x[p] = y
    return _compose(system, x[:n1], x[n1:])


class OrderedFactor:
    """Solves with the principal submatrices A[I, I] of an SPD A, I the free set.

    Every solve is one CG (_pcg) on A[I, I], from a start given on the
    free nodes or from zero, and the free set picks only its
    preconditioner M.  A is held once in CSR.  A CG step multiplies A
    itself while every node is free, else only the rows A[I, :], cut from
    A when I changes, by x~ = x padded with zeros on the clamped set C;
    each row keeps its stored entries in their order, so the product is the
    free part of the full one, bit for bit.  With ``jacobi`` M is
    diag(A)_I^{-1} and nothing is factored: _kappa_bound bounds the
    condition number for every I at once.  Otherwise A is held in the
    order ``p``, by default the nested-dissection order of its unknowns at
    ``points`` (an order given is not checked against A), and the factor
    ``full`` of all of A lives for the whole solve.  With every node free M
    is its solve, and CG is iterative refinement with an optimal step.
    While 2 |C| n <= fill of that factor (n the size of A), M is
    r -> (A^{-1} r~)_I: (A^{-1})[I, I] and A[I, I]^{-1} differ by a term of
    rank |C|, so in exact arithmetic CG takes at most |C| + 1 steps (Saad,
    Iterative Methods for Sparse Linear Systems, 2003), each a triangular
    solve of about 2 fill flops, against at least fill^2 / n for a
    refactorization.  A larger C has M the factor of A[I, I], cut from the
    row block in the order p restricted to I, a nested-dissection order of
    its subgraph; it replaces the previous one, and it is cut when I
    changes, even if the start then meets the backward error and CG takes
    no step.  An empty I factors nothing and takes no step.  ``count`` is
    the factorizations, ``fill_nnz`` their stored L and U entries and
    ``cg_steps`` the CG steps, off the Jacobi path one triangular solve
    each.
    """

    def __init__(self, A, points, name, jacobi=False, p=None):
        A = sp.csr_matrix(A)
        self.name = name
        if jacobi:
            self.p, self.A, self.full = np.arange(A.shape[0]), A, None
            self.norm, self.count, self.fill_nnz = _inf_norm(A), 0, 0
            self.inv_diag = 1.0 / A.diagonal()
        else:
            self.p = _nested_dissection(points, A) if p is None else p
            self.full = SpdFactor(A[self.p][:, self.p], name=name)
            self.A, self.norm = self.full.A, self.full.norm
            self.count, self.fill_nnz = 1, int(self.full.lu.nnz)
        self.free = np.ones(self.A.shape[0], dtype=bool)
        self.ids = np.arange(self.A.shape[0])  # I = self.free, in factor order
        self.rows = self.A  # A[I, :], A itself while every node is free
        self.order = self.p  # b[order] is b, given on the free nodes, in factor order
        self.factor = self.full  # preconditions on self.free; None: Jacobi
        self.cg_steps = 0

    def solve(self, b, free, x0=None):
        """A[free][:, free]^{-1} b by CG from ``x0`` (zero if None), b and x0 given on the free nodes."""
        if not np.array_equal(free, self.free):
            self.factor, self.free, self.ids = self.full, free, np.flatnonzero(free[self.p])
            self.order = (np.cumsum(free) - 1)[self.p[self.ids]]
            self.rows = self.A if free.all() else self.A[self.ids]
            k = int(np.count_nonzero(~free))
            if self.full is not None and k < free.size and 2 * k * free.size > self.full.lu.nnz:
                self.factor = SpdFactor(self.rows[:, self.ids], name=self.name)
                self.count += 1
                self.fill_nnz += int(self.factor.lu.nnz)
        factor, full, ids, rows = self.factor, self.full, self.ids, self.rows
        padded = np.zeros(free.size)  # stays zero on C

        def pad(v):
            padded[ids] = v
            return padded

        if factor is None:
            inv_diag = self.inv_diag[ids]
            precond = lambda r: inv_diag * r
        elif factor is full and not free.all():
            precond = lambda r: full.lu_solve(pad(r))[ids]
        else:
            precond = factor.lu_solve
        matvec = self.A.dot if free.all() else lambda v: rows @ pad(v)
        name = self.name if free.all() else "%s[I, I]" % self.name
        norm = self.norm if factor is None else factor.norm
        x = np.empty_like(b)
        start = None if x0 is None else x0[self.order]
        x[self.order], steps = _pcg(matvec, precond, b[self.order], norm, name, start)
        self.cg_steps += steps
        return x


# The first A00 factor of each live mesh, (a copy of A00, its OrderedFactor);
# an entry dies with its mesh, as the value holds no reference to it.
_A00_FACTORS = weakref.WeakKeyDictionary()


def _a00_factor(mesh, A00):
    """(OrderedFactor of A00 at ``mesh``'s centroids, reused): the factor the
    mesh keeps if its A00 equals this one bit for bit, else a new one.

    A Mesh is immutable and hashed by identity; a system's A00 is neither,
    so shape, indptr, indices and data are compared with the copy kept
    beside the factor.  A00 depends on the mesh, mu, gamma and beta: solves
    of one problem on one mesh share a factor whatever their tol_inner, and
    so does a standard solve on a bound-preserving solve's system.  The
    mesh keeps the first factor it makes.  Another A00, such as the layer
    comparator's at beta = 1, gets a factor of its own, which dies with the
    solve; if it has the kept one's pattern, it takes the kept order and
    only its numbers are factored.  So each live mesh keeps one factor, and
    on a refinement hierarchy the coarser meshes' factors add at most about
    1/3 of the finest one's; a solve with another A00 holds its own beside
    it.  Solves that share the factor share its ``cg_steps``, which a solve
    reads as a difference: concurrent solves on one mesh would mix their
    counts.
    """
    A00 = sp.csr_matrix(A00)
    kept = _A00_FACTORS.get(mesh)
    same = kept is not None and kept[0].shape == A00.shape
    same = same and all(np.array_equal(getattr(kept[0], a), getattr(A00, a)) for a in ("indptr", "indices"))
    if same and np.array_equal(kept[0].data, A00.data):
        return kept[1], True
    factor = OrderedFactor(A00, mesh.centroid, "A00", p=kept[1].p if same else None)
    if kept is None:  # the copy shares the assembly's read-only index arrays
        index = [a.copy() if a.flags.writeable else a for a in (A00.indices, A00.indptr)]
        _A00_FACTORS[mesh] = (sp.csr_matrix((A00.data.copy(), *index), shape=A00.shape), factor)
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
    _a00_factor), and, unless A11 is mass-dominated, the full A11 once
    and principal submatrices of A11 when many nodes are clamped (see
    OrderedFactor).  Jacobi-CG takes the place of the A11 factor where
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
    a11 = OrderedFactor(system.A11, mesh.vertices[system.dofs.interior_vertex_ids], "A11", jacobi=jacobi)
    a00, a00_reused = _a00_factor(mesh, system.A00)
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
        factorizations, cg_steps = a11.count, a11.cg_steps
        u1, _, incs, inner_ok = inner_richardson(u1, u0, system, spec, extremes, a11)
        u0_new = outer_constant_solve(u1, system, spec, extremes, a00)
        d = u0_new - u0
        u0 = u0_new
        outer_inc = float(np.sqrt(d @ (mesh.area * d)))
        trace.inner_residual_histories.append(incs)
        trace.outer_increments.append(outer_inc)
        trace.worst_slack_per_outer.append(slack)
        trace.clamped_per_outer.append(int(np.count_nonzero(~a11.free)))
        trace.a11_factorizations_per_outer.append(a11.count - factorizations)
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

