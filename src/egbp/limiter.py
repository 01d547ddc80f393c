"""Nodal truncation machinery for bound preservation.

Interior nodal values of the continuous part are clamped to the window
[a - under_i, b - over_i], where under_i/over_i are the extremes of the
frozen constant part over the node patch omega_i.  The outer max is
applied after the inner min, so in infeasible cases the lower clamp wins;
the operator stays total and callers flag the violation instead of
aborting.  Dirichlet boundary nodes are never truncated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fespace import EGFunction

__all__ = [
    "PatchExtremes",
    "patch_extremes",
    "truncate_values",
    "apply_P",
    "feasibility_check",
]


@dataclass(frozen=True)
class PatchExtremes:
    """Per-interior-vertex min/max of a constant field over omega_i."""

    under: np.ndarray
    over: np.ndarray


def patch_extremes(mesh, w0, dofs):
    """Exact extremes of the element constants over each node patch of the
    dofs' interior vertices, in dof order."""
    w0 = np.asarray(w0, dtype=float)
    if w0.shape[0] != mesh.num_elements:
        raise ValueError(
            "constant vector length %d != element count %d"
            % (w0.shape[0], mesh.num_elements)
        )
    iv = dofs.interior_vertex_ids
    values = w0[mesh.patch_elements]
    starts = mesh.patch_indptr[:-1]
    under = np.minimum.reduceat(values, starts)[iv]
    over = np.maximum.reduceat(values, starts)[iv]
    return PatchExtremes(under=under, over=over)


def truncate_values(v1, extremes, bounds):
    """Vectorized clamp over nodal values (outer max after inner min)."""
    a, b = bounds
    return np.maximum(a - extremes.under, np.minimum(v1, b - extremes.over))


def apply_P(mesh, dofs, w0, v, bounds):
    """Truncation map P: clamp the linear part, replace constants by w0.

    Linear coefficients at Dirichlet vertices are left unchanged; the
    output's constant part is w0 regardless of v's constants.
    """
    w0 = np.asarray(w0, dtype=float)
    extremes = patch_extremes(mesh, w0, dofs)
    lin = v.linear_coeffs.copy()
    iv = dofs.interior_vertex_ids
    lin[iv] = truncate_values(v.linear_coeffs[iv], extremes, bounds)
    return EGFunction(lin, w0.copy())


def feasibility_check(extremes, bounds):
    """Worst slack min_i (b - over_i) - (a - under_i); the windows are all
    feasible iff it is >= 0.  +inf without interior vertices."""
    a, b = bounds
    return float(np.min((b - extremes.over) - (a - extremes.under), initial=np.inf))
