"""Degree-of-freedom management and enriched Galerkin functions.

An :class:`EGFunction` stores one nodal value per mesh vertex (continuous
piecewise-linear part) plus one constant per element.  Linear coefficients
are kept for *all* vertices; the Dirichlet constraint is applied through
the :class:`DofMap` at solve time, so the boundary lift is one value per
vertex, like the linear part of the solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["EGFunction", "DofMap", "dirichlet_lift"]


@dataclass
class EGFunction:
    """Coefficients of v = v1 + v0: nodal values plus element constants."""

    linear_coeffs: np.ndarray
    const_coeffs: np.ndarray


@dataclass(frozen=True)
class DofMap:
    """Stable ordering of the interior-vertex unknowns; the element unknowns
    are numbered as the elements."""

    interior_vertex_ids: np.ndarray
    vertex_to_interior: np.ndarray  # -1 for boundary vertices

    @classmethod
    def from_mesh(cls, mesh):
        interior = np.flatnonzero(~mesh.boundary_vertex)
        lookup = np.full(mesh.num_vertices, -1, dtype=np.int64)
        lookup[interior] = np.arange(interior.size)
        return cls(interior_vertex_ids=interior, vertex_to_interior=lookup)

    @property
    def n_interior(self):
        return self.interior_vertex_ids.size


def _eval_field(f, X, Y):
    """f at the points (X, Y); f must accept and return numpy arrays."""
    out = np.asarray(f(X, Y), dtype=float)
    if out.shape != X.shape:
        out = np.broadcast_to(out, X.shape).astype(float)
    return out


def dirichlet_lift(mesh, u_D):
    """Vertex values (nv,): the boundary data at boundary vertices, zero inside.

    u_D is evaluated once on the arrays of boundary-vertex coordinates;
    u_D = None is zero boundary data.
    """
    vals = np.zeros(mesh.num_vertices)
    if u_D is not None:
        bdry = mesh.boundary_vertex
        vals[bdry] = _eval_field(u_D, *mesh.vertices[bdry].T)
        if not np.all(np.isfinite(vals)):
            raise ValueError("non-finite Dirichlet value")
    return vals
