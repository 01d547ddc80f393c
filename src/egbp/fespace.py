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

__all__ = [
    "EGFunction",
    "DofMap",
    "interpolate_lagrange",
    "dirichlet_lift",
    "evaluate",
    "write_egfunction",
    "read_egfunction",
]


@dataclass
class EGFunction:
    """Coefficients of v = v1 + v0: nodal values plus element constants."""

    linear_coeffs: np.ndarray
    const_coeffs: np.ndarray

    def copy(self):
        return EGFunction(self.linear_coeffs.copy(), self.const_coeffs.copy())

    def __add__(self, other):
        return EGFunction(
            self.linear_coeffs + other.linear_coeffs,
            self.const_coeffs + other.const_coeffs,
        )

    def __sub__(self, other):
        return EGFunction(
            self.linear_coeffs - other.linear_coeffs,
            self.const_coeffs - other.const_coeffs,
        )


@dataclass(frozen=True)
class DofMap:
    """Stable orderings of the interior-vertex and element unknowns."""

    interior_vertex_ids: np.ndarray
    element_ids: np.ndarray
    vertex_to_interior: np.ndarray  # -1 for boundary vertices

    @classmethod
    def from_mesh(cls, mesh):
        interior = np.flatnonzero(~mesh.boundary_vertex)
        lookup = np.full(mesh.num_vertices, -1, dtype=np.int64)
        lookup[interior] = np.arange(interior.size)
        return cls(
            interior_vertex_ids=interior,
            element_ids=np.arange(mesh.num_elements, dtype=np.int64),
            vertex_to_interior=lookup,
        )

    @property
    def n_interior(self):
        return self.interior_vertex_ids.size

    @property
    def n_elements(self):
        return self.element_ids.size


def zero_function(mesh):
    return EGFunction(np.zeros(mesh.num_vertices), np.zeros(mesh.num_elements))


def interpolate_lagrange(mesh, g):
    """Nodal interpolant of a scalar field: linear part only."""
    vals = np.array([g(x, y) for x, y in mesh.vertices], dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = int(np.flatnonzero(~np.isfinite(vals))[0])
        raise ValueError("non-finite value at vertex %d %r" % (bad, tuple(mesh.vertices[bad])))
    return EGFunction(vals, np.zeros(mesh.num_elements))


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


def evaluate(mesh, f, element, point, tol=1e-12):
    """Evaluate an EGFunction at a point of the given element.

    Uses barycentric interpolation of the linear part plus the element
    constant; raises if the point lies outside the element (barycentric
    coordinate below -tol).
    """
    tri = mesh.triangles[element]
    p = mesh.vertices[tri]
    T = np.column_stack((p[1] - p[0], p[2] - p[0]))
    lam12 = np.linalg.solve(T, np.asarray(point, dtype=float) - p[0])
    lam = np.array([1.0 - lam12.sum(), lam12[0], lam12[1]])
    if np.any(lam < -tol):
        raise ValueError("point %r lies outside element %d" % (tuple(point), element))
    return float(lam @ f.linear_coeffs[tri] + f.const_coeffs[element])


def element_vertex_values(mesh, f):
    """(nt, 3) array of f evaluated at each element's vertices."""
    return f.linear_coeffs[mesh.triangles] + f.const_coeffs[:, None]


def write_egfunction(f, path):
    """CSV serialization with header "kind,index,value"."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "index", "value"])
        for i, v in enumerate(f.linear_coeffs):
            writer.writerow(["vertex", i, "%.17g" % v])
        for i, v in enumerate(f.const_coeffs):
            writer.writerow(["element", i, "%.17g" % v])


def read_egfunction(path):
    rows = {"vertex": {}, "element": {}}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["kind", "index", "value"]:
            raise ValueError("unexpected header %r in %s" % (header, path))
        for kind, idx, val in reader:
            rows[kind][int(idx)] = float(val)
    lin = np.array([rows["vertex"][i] for i in range(len(rows["vertex"]))])
    con = np.array([rows["element"][i] for i in range(len(rows["element"]))])
    return EGFunction(lin, con)
