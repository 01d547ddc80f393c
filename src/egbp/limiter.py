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
    "apply_Q",
    "feasibility_check",
]


@dataclass(frozen=True)
class PatchExtremes:
    """Per-interior-vertex min/max of a constant field over omega_i."""

    under: np.ndarray
    over: np.ndarray


def patch_extremes(mesh, w0, dofs=None):
    """Exact extremes of the element constants over each node patch.

    With a DofMap the result covers the interior vertices in dof order;
    without one it covers all vertices.
    """
    w0 = np.asarray(w0, dtype=float)
    if w0.shape[0] != mesh.num_elements:
        raise ValueError(
            "constant vector length %d != element count %d"
            % (w0.shape[0], mesh.num_elements)
        )
    if dofs is None:
        vertex_ids = np.arange(mesh.num_vertices)
    else:
        vertex_ids = dofs.interior_vertex_ids
    values = w0[mesh.patch_elements]
    starts = mesh.patch_indptr[:-1]
    under = np.minimum.reduceat(values, starts)[vertex_ids]
    over = np.maximum.reduceat(values, starts)[vertex_ids]
    return PatchExtremes(under=under, over=over)


def truncate_values(v1, extremes, bounds):
    """Vectorized clamp over nodal values (outer max after inner min)."""
    a, b = bounds
    return np.maximum(a - extremes.under, np.minimum(v1, b - extremes.over))


def apply_P(mesh, dofs, w0, v, bounds, extremes=None):
    """Truncation map P: clamp the linear part, replace constants by w0.

    Linear coefficients at Dirichlet vertices are left unchanged; the
    output's constant part is w0 regardless of v's constants.  A
    precomputed ``extremes`` (for the same w0) may be passed to avoid
    rescanning the patches.
    """
    w0 = np.asarray(w0, dtype=float)
    if extremes is None:
        extremes = patch_extremes(mesh, w0, dofs)
    lin = v.linear_coeffs.copy()
    iv = dofs.interior_vertex_ids
    lin[iv] = truncate_values(v.linear_coeffs[iv], extremes, bounds)
    return EGFunction(lin, w0.copy())


def apply_Q(mesh, dofs, w0, v, bounds, extremes=None):
    """Complement Q: v1 minus the truncated linear part, zero constants."""
    p = apply_P(mesh, dofs, w0, v, bounds, extremes)
    return EGFunction(v.linear_coeffs - p.linear_coeffs, np.zeros(mesh.num_elements))


def feasibility_check(extremes, bounds):
    """True iff a - under_i <= b - over_i everywhere, plus worst-node report.

    Returns (feasible, worst_index, worst_slack) where worst_index is the
    argmin of the slack (b - over) - (a - under).
    """
    a, b = bounds
    slack = (b - extremes.over) - (a - extremes.under)
    if slack.size == 0:
        return True, -1, np.inf
    worst = int(np.argmin(slack))
    return bool(np.all(slack >= 0.0)), worst, float(slack[worst])
