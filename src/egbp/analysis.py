"""Error norms, convergence rates, condition numbers, and diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import TRI_QP, TRI_QW, _grads_and_areas, _jump_csr
from .fespace import _eval_field

__all__ = [
    "LevelRecord",
    "error_l2",
    "error_h1_linear",
    "jump_norm",
    "eoc",
    "fit_rate",
    "comparison_bound",
    "condition_number",
    "conservation_report",
    "bound_violation",
    "broken_poincare_constant",
]


@dataclass
class LevelRecord:
    """Per-refinement-level summary of a study."""

    n_elements: int
    h: float
    err_l2: float = np.nan
    err_h1: float = np.nan
    jump_norm: float = np.nan
    const_l2: float = np.nan
    outer_iters: int = 0
    min_val: float = np.nan
    max_val: float = np.nan
    max_conservation_residual: float = np.nan
    b_norm: float = np.nan
    nonlinear_residual: float = np.nan
    wall_clock: float = 0.0


def _quad_values(mesh, uh):
    """uh at the degree-4 quadrature points, plus physical points/weights."""
    x = TRI_QP @ mesh.vertices[mesh.triangles]
    vals = uh.linear_coeffs[mesh.triangles] @ TRI_QP.T
    vals = vals + uh.const_coeffs[:, None]
    _, area = _grads_and_areas(mesh)
    w = TRI_QW * area[:, None]
    return x, vals, w


def error_l2(mesh, u_exact, uh):
    """L2 error by element-wise degree-4 quadrature (constants included)."""
    x, vals, w = _quad_values(mesh, uh)
    ue = _eval_field(u_exact, x[..., 0], x[..., 1])
    return float(np.sqrt(np.sum(w * (ue - vals) ** 2)))


def error_h1_linear(mesh, grad_exact, uh):
    """Broken H1 seminorm error of the linear part only.

    grad_exact(x, y) must return the pair (du/dx, du/dy); the constant
    part of uh has zero gradient and does not contribute.
    """
    grads, area = _grads_and_areas(mesh)
    gh = np.einsum("tk,tkd->td", uh.linear_coeffs[mesh.triangles], grads)
    x = TRI_QP @ mesh.vertices[mesh.triangles]
    gx, gy = grad_exact(x[..., 0], x[..., 1])
    w = TRI_QW * area[:, None]
    err2 = np.sum(w * ((gx - gh[:, None, 0]) ** 2 + (gy - gh[:, None, 1]) ** 2))
    return float(np.sqrt(err2))


def jump_norm(mesh, spec, v0, include_boundary=True):
    """Weighted facet jump norm of a piecewise-constant field.

    Uses the weight (eps + mu h_F^2) / h_F; with |[v]|^2 integrated over a
    facet this gives (eps + mu h_F^2) * (jump)^2 per facet.  Boundary
    facets see the element's own constant.
    """
    v0 = np.asarray(v0, dtype=float)
    h = mesh.facet_length
    weight = spec.epsilon + spec.mu * h**2
    interior = mesh.facet_right >= 0
    jumps2 = np.zeros(mesh.num_facets)
    jumps2[interior] = (
        v0[mesh.facet_left[interior]] - v0[mesh.facet_right[interior]]
    ) ** 2
    if include_boundary:
        jumps2[~interior] = v0[mesh.facet_left[~interior]] ** 2
    return float(np.sqrt(np.sum(weight * jumps2)))


def eoc(coarse_err, fine_err):
    """Estimated order of convergence under mesh halving."""
    if coarse_err <= 0.0 or fine_err <= 0.0:
        return np.nan
    return float(np.log2(coarse_err / fine_err))


def fit_rate(values, last=3):
    """Least-squares decay rate over the final `last` halving steps.

    Fits log2(value) against the level index for the last `last + 1`
    entries; the negated slope is the rate.
    """
    vals = np.asarray(values, dtype=float)
    vals = vals[np.isfinite(vals)]
    if vals.size < 2 or np.any(vals <= 0.0):
        return np.nan
    tail = vals[-(last + 1) :]
    x = np.arange(tail.size)
    slope = np.polyfit(x, np.log2(tail), 1)[0]
    return float(-slope)


def comparison_bound(spec, domain=(0.0, 0.0, 1.0, 1.0), n=256, f_sup=None, uD_sup=None):
    """Invariant interval from the comparison principle.

    U = max(sup|f| / mu, sup|u_D|); returns [0, U] when both data are
    nonnegative and [-U, U] otherwise.  Suprema are sampled on an n-by-n
    grid unless supplied analytically.
    """
    x0, y0, x1, y1 = domain
    X, Y = np.meshgrid(np.linspace(x0, x1, n + 1), np.linspace(y0, y1, n + 1))
    if spec.f is None:
        fvals = np.zeros(1)
    else:
        fvals = _eval_field(spec.f, X, Y).ravel()
    fmax = float(np.max(np.abs(fvals))) if f_sup is None else float(f_sup)
    f_nonneg = np.all(fvals >= 0.0)

    if spec.u_D is None:
        dvals = np.zeros(1)
    else:
        t = np.linspace(0.0, 1.0, n + 1)
        bx = np.concatenate([x0 + (x1 - x0) * t, np.full(n + 1, x1), x1 - (x1 - x0) * t, np.full(n + 1, x0)])
        by = np.concatenate([np.full(n + 1, y0), y0 + (y1 - y0) * t, np.full(n + 1, y1), y1 - (y1 - y0) * t])
        dvals = _eval_field(spec.u_D, bx, by)
    dmax = float(np.max(np.abs(dvals))) if uD_sup is None else float(uD_sup)
    d_nonneg = np.all(dvals >= 0.0)

    U = max(fmax / spec.mu, dmax)
    if f_nonneg and d_nonneg:
        return (0.0, U)
    return (-U, U)


def condition_number(A, dense_cutoff=2000, tol=1e-6):
    """Spectral condition number |lambda|_max / |lambda|_min of a
    symmetric matrix (equals lambda_max / lambda_min for SPD input).

    The magnitude-based definition keeps the number well defined for the
    weakly penalized interior-penalty matrices, which can lose positive
    definiteness below the coercivity threshold of the penalty factor.
    Dense symmetric eigendecomposition below the cutoff; Lanczos with
    shift-invert (sparse factorization at sigma = 0) above.
    """
    A = sp.csr_matrix(A)
    n = A.shape[0]
    if n == 0:
        raise ValueError("empty matrix")
    if n == 1:
        if A[0, 0] == 0.0:
            raise ValueError("matrix is singular")
        return 1.0
    if n <= dense_cutoff:
        eig = np.abs(scipy.linalg.eigvalsh(A.toarray()))
        lmin, lmax = eig.min(), eig.max()
    else:
        # A fixed start vector makes the Lanczos runs, and so the result,
        # deterministic; a generic one cannot be orthogonal to the extreme
        # eigenvectors by a symmetry of the mesh, as a constant vector can.
        v0 = np.random.default_rng(0).uniform(0.5, 1.5, n)
        lmax = abs(
            spla.eigsh(A, k=1, which="LM", tol=tol, v0=v0, return_eigenvectors=False)[0]
        )
        lmin = abs(
            spla.eigsh(
                A.tocsc(), k=1, sigma=0.0, which="LM", tol=tol, v0=v0,
                return_eigenvectors=False,
            )[0]
        )
    if lmin <= lmax * 1e-14:
        raise ValueError("matrix is numerically singular")
    return float(lmax / lmin)


def conservation_report(mesh, system, solution):
    """Per-element residual b_h(1_T) - a_h(u+, 1_T).

    Accepts an EGSolution (uses u+) or a plain EGFunction (e.g. the
    standard EG solution).  The nodal stabilizer never contributes since
    1_T has no linear part.
    """
    u = getattr(solution, "u_plus", solution)
    dofs = system.dofs
    p = u.linear_coeffs[dofs.interior_vertex_ids]
    u0 = u.const_coeffs
    return system.b0 - system.A10.T @ p - system.A00 @ u0


def bound_violation(mesh, v, bounds, tol=0.0):
    """Extremes over all per-element vertex evaluations plus violation count.

    Piecewise linear plus constant attains its extremes at element
    vertices, so scanning those is exact.
    """
    a, b = bounds
    vals = v.linear_coeffs[mesh.triangles] + v.const_coeffs[:, None]
    count = int(np.sum((vals < a - tol) | (vals > b + tol)))
    return float(vals.min()), float(vals.max()), count


def broken_poincare_constant(mesh):
    """Best constant in ||v0||_0 <= C (sum_F h_F^-1 ||[v0]||^2_F)^(1/2).

    Computed exactly as the square root of the largest generalized
    eigenvalue of M0 v = lambda Jw v, with Jw the unit-weight jump matrix
    (h_F^-1 and the facet integral cancel to weight one per facet).
    """
    _, area = _grads_and_areas(mesh)
    Jw = _jump_csr(mesh, np.ones(mesh.num_facets), 0.0).toarray()
    lam = scipy.linalg.eigvalsh(np.diag(area), Jw)
    return float(np.sqrt(lam[-1]))
