"""Error norms, convergence rates, condition numbers, and diagnostics."""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import TRI_QP, TRI_QW, _grads_and_areas
from .fespace import _eval_field

__all__ = [
    "error_l2",
    "error_h1_linear",
    "jump_norm",
    "eoc",
    "fit_rate",
    "condition_number",
    "conservation_report",
    "bound_violation",
]


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


def jump_norm(mesh, spec, v0):
    """Weighted facet jump norm of a piecewise-constant field.

    Uses the weight (eps + mu h_F^2) / h_F; with |[v]|^2 integrated over a
    facet this gives (eps + mu h_F^2) * (jump)^2 per facet.  Boundary
    facets see the element's own constant.
    """
    v0 = np.asarray(v0, dtype=float)
    h = mesh.facet_length
    weight = spec.epsilon + spec.mu * h**2
    interior = mesh.facet_right >= 0
    jumps2 = v0[mesh.facet_left] ** 2
    jumps2[interior] = (
        v0[mesh.facet_left[interior]] - v0[mesh.facet_right[interior]]
    ) ** 2
    return float(np.sqrt(np.sum(weight * jumps2)))


def eoc(coarse_err, fine_err):
    """Estimated order of convergence under mesh halving."""
    if coarse_err <= 0.0 or fine_err <= 0.0:
        return np.nan
    return float(np.log2(coarse_err / fine_err))


def fit_rate(values):
    """Least-squares decay rate over the final 3 halving steps.

    Fits log2(value) against the level index for the last 4 entries; the
    negated slope is the rate.
    """
    vals = np.asarray(values, dtype=float)
    vals = vals[np.isfinite(vals)]
    if vals.size < 2 or np.any(vals <= 0.0):
        return np.nan
    tail = vals[-4:]
    x = np.arange(tail.size)
    slope = np.polyfit(x, np.log2(tail), 1)[0]
    return float(-slope)


# Matrices up to this size get a dense eigendecomposition in
# condition_number; larger ones Lanczos iterations to this tolerance.
_DENSE_CUTOFF = 2000
_LANCZOS_TOL = 1e-6


def condition_number(A):
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
    if n <= _DENSE_CUTOFF:
        eig = np.abs(scipy.linalg.eigvalsh(A.toarray()))
        lmin, lmax = eig.min(), eig.max()
    else:
        # A fixed start vector makes the Lanczos runs, and so the result,
        # deterministic; a generic one cannot be orthogonal to the extreme
        # eigenvectors by a symmetry of the mesh, as a constant vector can.
        v0 = np.random.default_rng(0).uniform(0.5, 1.5, n)
        kwargs = dict(k=1, which="LM", tol=_LANCZOS_TOL, v0=v0, return_eigenvectors=False)
        lmax = abs(spla.eigsh(A, **kwargs)[0])
        lmin = abs(spla.eigsh(A.tocsc(), sigma=0.0, **kwargs)[0])
    if lmin <= lmax * 1e-14:
        raise ValueError("matrix is numerically singular")
    return float(lmax / lmin)


def conservation_report(mesh, system, u):
    """Per-element residual b_h(1_T) - a_h(u, 1_T) of an EGFunction u.

    The nodal stabilizer never contributes since 1_T has no linear part.
    """
    p = u.linear_coeffs[system.dofs.interior_vertex_ids]
    return system.b0 - system.A10.T @ p - system.A00 @ u.const_coeffs


def bound_violation(mesh, v, bounds, tol):
    """Extremes over all per-element vertex evaluations plus the count of
    those outside [a - tol, b + tol].

    Piecewise linear plus constant attains its extremes at element
    vertices, so scanning those is exact.
    """
    a, b = bounds
    vals = v.linear_coeffs[mesh.triangles] + v.const_coeffs[:, None]
    count = int(np.sum((vals < a - tol) | (vals > b + tol)))
    return float(vals.min()), float(vals.max()), count

