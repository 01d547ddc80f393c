"""Degree-of-freedom management and enriched Galerkin functions.

An :class:`EGFunction` stores one nodal value per mesh vertex (continuous
piecewise-linear part) plus one constant per element.  Linear coefficients
are kept for *all* vertices; the Dirichlet constraint is applied through
the :class:`DofMap` at solve time, so the boundary lift and the solution
share a single representation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

__all__ = ["EGFunction", "DofMap", "dirichlet_lift", "write_egfunction"]


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


def zero_function(mesh):
    return EGFunction(np.zeros(mesh.num_vertices), np.zeros(mesh.num_elements))


def _eval_field(f, X, Y):
    """f at the points (X, Y); f must accept and return numpy arrays."""
    out = np.asarray(f(X, Y), dtype=float)
    if out.shape != X.shape:
        out = np.broadcast_to(out, X.shape).astype(float)
    return out


def dirichlet_lift(mesh, u_D):
    """Boundary data at boundary vertices, extended by zero inside.

    u_D is evaluated once on the arrays of boundary-vertex coordinates.
    """
    vals = np.zeros(mesh.num_vertices)
    bdry = mesh.boundary_vertex
    vals[bdry] = _eval_field(u_D, *mesh.vertices[bdry].T)
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite Dirichlet value")
    return EGFunction(vals, np.zeros(mesh.num_elements))


def write_egfunction(f, path):
    """CSV serialization with header "kind,index,value"."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "index", "value"])
        for i, v in enumerate(f.linear_coeffs):
            writer.writerow(["vertex", i, "%.17g" % v])
        for i, v in enumerate(f.const_coeffs):
            writer.writerow(["element", i, "%.17g" % v])

