"""Conforming triangulations of axis-aligned rectangles.

Meshes are immutable after construction and carry their element geometry
(areas, barycentric gradients, centroids), computed once per mesh, and the
points of the degree-4 triangle rule, computed once on first use.  Every
facet stores a fixed owner ("left") element together with the unit normal
pointing out of that owner; all jump and average formulas elsewhere in the
package are expressed relative to this owner, which removes any sign
ambiguity from assembly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = ["Mesh", "build_structured", "refine_uniform"]

# Degree-4 triangle rule (6 points) in barycentric coordinates.
_W1, _A1, _B1 = 0.223381589678011, 0.108103018168070, 0.445948490915965
_W2, _A2, _B2 = 0.109951743655322, 0.816847572980459, 0.091576213509771
TRI_QW = np.array([_W1, _W1, _W1, _W2, _W2, _W2])
TRI_QP = np.array(
    [
        [_A1, _B1, _B1],
        [_B1, _A1, _B1],
        [_B1, _B1, _A1],
        [_A2, _B2, _B2],
        [_B2, _A2, _B2],
        [_B2, _B2, _A2],
    ]
)


@dataclass(frozen=True, eq=False)
class Mesh:
    """Triangle mesh with full facet and patch connectivity.

    Attributes
    ----------
    vertices : (nv, 2) float array of vertex coordinates.
    triangles : (nt, 3) int array, counter-clockwise vertex triples.
    facet_vertices : (nf, 2) int array, endpoint indices of each facet.
    facet_left : (nf,) owner element of each facet.
    facet_right : (nf,) neighbor element, -1 for boundary facets.
    facet_length : (nf,) facet lengths h_F.
    facet_normal : (nf, 2) unit normals, outward with respect to the owner.
    element_facets : (nt, 3) int array, the facet of each local edge
        (k, k + 1) of each triangle.
    boundary_vertex : (nv,) bool flags.
    patch_indptr : (nv + 1,) int array, vertex->element CSR row pointer.
    patch_elements : (3 * nt,) int array; the node patch omega_i is
        patch_elements[patch_indptr[i]:patch_indptr[i + 1]], ascending.
    h_elem : (nt,) element diameters h_T, the longest facet of each element.
    h_vertex : (nv,) h_i = max h_T over the node patch.
    area : (nt,) element areas |T|.
    grads : (nt, 3, 2) gradient of the barycentric coordinate of each
        element's local vertex k, constant on the element.
    centroid : (nt, 2) element centroids.
    quad_points : (nt, 6, 2) points of the degree-4 rule TRI_QP on each
        element, computed on first use.

    Facets are numbered in ascending order of their sorted endpoint pair.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    facet_vertices: np.ndarray = field(repr=False)
    facet_left: np.ndarray = field(repr=False)
    facet_right: np.ndarray = field(repr=False)
    facet_length: np.ndarray = field(repr=False)
    facet_normal: np.ndarray = field(repr=False)
    element_facets: np.ndarray = field(repr=False)
    boundary_vertex: np.ndarray = field(repr=False)
    patch_indptr: np.ndarray = field(repr=False)
    patch_elements: np.ndarray = field(repr=False)
    h_elem: np.ndarray = field(repr=False)
    h_vertex: np.ndarray = field(repr=False)
    area: np.ndarray = field(repr=False)
    grads: np.ndarray = field(repr=False)
    centroid: np.ndarray = field(repr=False)
    h: float = 0.0

    @cached_property
    def quad_points(self):
        return _freeze(TRI_QP @ self.vertices[self.triangles])

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_elements(self):
        return self.triangles.shape[0]

    @property
    def num_facets(self):
        return self.facet_vertices.shape[0]


def _freeze(a):
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _build_mesh(vertices, triangles):
    """Derive all connectivity metadata from vertices and CCW triangles."""
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=np.int64)
    nv = vertices.shape[0]
    nt = triangles.shape[0]

    if not np.all(np.isfinite(vertices)):
        raise ValueError("mesh has a non-finite vertex")
    p = vertices[triangles]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves a non-finite area, rejected below
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        area = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    if not np.all((area > 0.0) & np.isfinite(area)):  # NaN compares false
        raise ValueError("mesh contains degenerate, clockwise or non-finite triangles")
    # grad phi_k: the edge opposite vertex k turned by -90 degrees, over 2 |T|
    nxt, prv = [1, 2, 0], [2, 0, 1]
    grads = np.stack((p[:, nxt, 1] - p[:, prv, 1], p[:, prv, 0] - p[:, nxt, 0]), axis=-1)
    grads /= 2.0 * area[:, None, None]

    # Undirected facets from the 3*nt directed edges (t, a, b), grouped by
    # the key of their sorted endpoint pair.  The stable sort keeps each
    # group's elements ascending, so its first edge belongs to the owner
    # (the smallest element), whose CCW order gives (a, b) and the normal.
    elem = np.repeat(np.arange(nt), 3)
    a = triangles.ravel()
    b = triangles[:, [1, 2, 0]].ravel()
    key = np.minimum(a, b) * nv + np.maximum(a, b)
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    count = np.diff(np.r_[first, key.size])
    if np.any(count > 2):
        pair = divmod(int(key[first[np.argmax(count > 2)]]), nv)
        raise ValueError("facet %s has more than two incident elements" % (pair,))
    owner = order[first]
    element_facets = np.empty(3 * nt, dtype=np.int64)
    element_facets[order] = np.repeat(np.arange(first.size), count)
    element_facets = element_facets.reshape(nt, 3)
    facet_vertices = np.column_stack((a[owner], b[owner]))
    facet_left = elem[owner]
    facet_right = np.full(first.size, -1, dtype=np.int64)
    shared = count == 2
    facet_right[shared] = elem[order[first[shared] + 1]]

    tang = vertices[facet_vertices[:, 1]] - vertices[facet_vertices[:, 0]]
    facet_length = np.hypot(tang[:, 0], tang[:, 1])
    facet_normal = np.column_stack((tang[:, 1], -tang[:, 0])) / facet_length[:, None]

    boundary_vertex = np.zeros(nv, dtype=bool)
    bmask = facet_right < 0
    boundary_vertex[facet_vertices[bmask].ravel()] = True

    # Vertex->element CSR; the stable sort keeps each patch ascending.
    patch_size = np.bincount(a, minlength=nv)
    if np.any(patch_size == 0):
        raise ValueError("vertex %d belongs to no triangle" % np.argmin(patch_size))
    patch_indptr = np.concatenate(([0], np.cumsum(patch_size)))
    patch_elements = elem[np.argsort(a, kind="stable")]

    h_elem = facet_length[element_facets].max(axis=1)
    h_vertex = np.maximum.reduceat(h_elem[patch_elements], patch_indptr[:-1])

    return Mesh(
        vertices=_freeze(vertices),
        triangles=_freeze(triangles),
        facet_vertices=_freeze(facet_vertices),
        facet_left=_freeze(facet_left),
        facet_right=_freeze(facet_right),
        facet_length=_freeze(facet_length),
        facet_normal=_freeze(facet_normal),
        element_facets=_freeze(element_facets),
        boundary_vertex=_freeze(boundary_vertex),
        patch_indptr=_freeze(patch_indptr),
        patch_elements=_freeze(patch_elements),
        h_elem=_freeze(h_elem),
        h_vertex=_freeze(h_vertex),
        area=_freeze(area),
        grads=_freeze(grads),
        centroid=_freeze((p[:, 0] + p[:, 1] + p[:, 2]) / 3.0),
        h=float(h_elem.max()),
    )


def build_structured(nx, ny, rect=(0.0, 0.0, 1.0, 1.0)):
    """Structured triangulation of a rectangle.

    Each of the nx*ny congruent cells is split by the diagonal running from
    its lower-left to its upper-right corner, giving 2*nx*ny triangles.
    Vertices are numbered lexicographically by (y, x).
    """
    if not all(np.isfinite(n) and int(n) == n for n in (nx, ny)):
        raise ValueError("subdivision counts must be integers, got (%s, %s)" % (nx, ny))
    nx, ny = int(nx), int(ny)
    if nx < 1 or ny < 1:
        raise ValueError("subdivision counts must be >= 1, got (%s, %s)" % (nx, ny))
    x0, y0, x1, y1 = rect
    if not (x1 > x0 and y1 > y0):
        raise ValueError("degenerate rectangle %r" % (rect,))

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves a non-finite vertex, which _build_mesh rejects
        xs = x0 + (x1 - x0) * np.arange(nx + 1) / nx
        ys = y0 + (y1 - y0) * np.arange(ny + 1) / ny
    X, Y = np.meshgrid(xs, ys)
    vertices = np.column_stack((X.ravel(), Y.ravel()))

    iy, ix = np.divmod(np.arange(nx * ny), nx)
    ll = iy * (nx + 1) + ix
    ul = ll + nx + 1
    triangles = np.column_stack((ll, ll + 1, ul + 1, ll, ul + 1, ul)).reshape(-1, 3)
    return _build_mesh(vertices, triangles)


def refine_uniform(mesh):
    """Red refinement: split every triangle into four via edge midpoints.

    The parent vertices keep their indices, so nested vertex sets come for
    free; midpoints are appended in facet (sorted-edge) order for determinism.
    """
    nv = mesh.num_vertices
    mids = mesh.vertices[mesh.facet_vertices].mean(axis=1)
    a, b, c = mesh.triangles.T
    mab, mbc, mca = (nv + mesh.element_facets).T
    triangles = np.column_stack(
        (a, mab, mca, mab, b, mbc, mca, mbc, c, mab, mbc, mca)
    ).reshape(-1, 3)
    return _build_mesh(np.vstack((mesh.vertices, mids)), triangles)

