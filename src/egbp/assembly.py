"""Assembly of the interior-penalty bilinear form, stabilizer, and RHS.

Each block is written straight into its stencil on the mesh (cf.
Cuvelier, Japhet & Scarella, BIT 56, 2016): A11 is a vertex diagonal plus
one value per facet, A00 an element diagonal plus one penalty value per
interior facet, and A10 holds, per element, its own three vertices and the
vertex across each interior edge.  Because the linear part of the space is
continuous, interior facets couple only the element constants: their
penalty term and the consistency terms against the linear part's gradient
averages.  Boundary facets see the full trace.  Values are summed by
np.bincount in a fixed order (deterministic), and each off-diagonal value
is stored once for both of its entries (exactly symmetric).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .fespace import DofMap, _eval_field, dirichlet_lift

__all__ = ["ProblemSpec", "BlockSystem", "assemble_s", "assemble_system"]

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

@dataclass
class ProblemSpec:
    """Coefficients, data, penalty parameters, and solver controls.

    The solve reads tol_outer, max_inner and max_outer.  ``omega`` and
    ``tol_inner`` are read by no solve: Step 1 is solved exactly, without
    damping or a tolerance.  They are accepted (and omega validated) so
    that existing callers keep working.
    """

    epsilon: float
    mu: float
    gamma: float = 10.0
    beta: int = 4
    alpha: float = 1.0
    omega: float = 0.5
    bounds: tuple = (0.0, 1.0)
    f: object = None
    u_D: object = None
    tol_inner: float = 1e-9
    tol_outer: float = 1e-12
    max_inner: int = 500
    max_outer: int = 200
    f_quadrature: str = "degree4"  # "degree4" or "centroid"

    def __post_init__(self):
        if not np.all(np.isfinite([self.epsilon, self.mu, self.gamma, self.beta, self.alpha])):
            raise ValueError("epsilon, mu, gamma, beta and alpha must be finite")
        if self.epsilon <= 0 or self.mu <= 0:
            raise ValueError("epsilon and mu must be positive")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if int(self.beta) != self.beta or self.beta < 1:
            raise ValueError("beta must be an integer >= 1")
        self.beta = int(self.beta)
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if not 0.0 < self.omega <= 1.0:
            raise ValueError("omega must lie in (0, 1]")
        a, b = self.bounds
        if not a <= b:
            raise ValueError("bounds must satisfy a <= b")
        if self.f_quadrature not in ("degree4", "centroid"):
            raise ValueError("unknown f_quadrature %r" % self.f_quadrature)
        if not 0.0 <= self.tol_outer < np.inf:
            raise ValueError("tol_outer must be finite and >= 0")
        if self.max_inner < 1 or self.max_outer < 1:
            raise ValueError("max_inner and max_outer must be >= 1")


@dataclass
class BlockSystem:
    """Assembled blocks of a_h, the stabilizer diagonal, and the RHS.

    A11 couples interior-vertex dofs, A10 interior vertices to element
    constants, A00 element constants; b1 and b0 carry the action of
    ``lift``, the (nv,) vertex values of the Dirichlet lift, which the
    solves add back to the unknowns numbered by ``dofs``.  ``M1`` is the
    interior P1 mass matrix and ``M0_diag`` the element areas, both used
    for L2 norms of increments.
    """

    A11: sp.csr_matrix
    A10: sp.csr_matrix
    A00: sp.csr_matrix
    S1: np.ndarray
    b1: np.ndarray
    b0: np.ndarray
    M1: sp.csr_matrix = field(repr=False)
    M0_diag: np.ndarray = field(repr=False)
    dofs: DofMap = field(repr=False)
    lift: np.ndarray = field(repr=False)

    def full_matrix(self):
        """Constrained operator [[A11, A10], [A10^T, A00]] as CSR."""
        return sp.bmat([[self.A11, self.A10], [self.A10.T, self.A00]], format="csr")


def _grads_and_areas(mesh):
    """Per-element barycentric gradients (nt, 3, 2) and areas (nt,)."""
    x, y = mesh.vertices[:, 0][mesh.triangles.T], mesh.vertices[:, 1][mesh.triangles.T]
    area = 0.5 * ((x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0]))
    # grad phi_k: the edge opposite vertex k turned by -90 degrees, over 2 |T|
    nxt, prv = [1, 2, 0], [2, 0, 1]
    g = np.empty((mesh.num_elements, 3, 2))
    g[..., 0] = ((y[nxt] - y[prv]) / (2.0 * area)).T
    g[..., 1] = ((x[prv] - x[nxt]) / (2.0 * area)).T
    return g, area


def _facet_penalty(mesh, spec):
    """c_F h_F per facet, c_F = gamma (eps + mu h_F^2) / h_F^beta."""
    hF = mesh.facet_length
    return spec.gamma * (spec.epsilon + spec.mu * hF**2) / hF**spec.beta * hF


def _form_values(mesh, spec, grads, area):
    """Values of a_h in the mesh stencil, each entry summed in place.

    Returns (p_diag, p_off, c_vert, c_val).  The P1 block has p_diag (nv,)
    on its diagonal and p_off[f] at (a, b) and (b, a) of each facet
    f = (a, b).  Column t of the vertex-element block holds c_val[t] (6,)
    at the vertices c_vert[t]: the element's own three, then for each
    local edge k the vertex of the neighbor across it that is not on it
    (-1 with value 0 on boundary edges).
    """
    eps, mu, nt = spec.epsilon, spec.mu, mesh.num_elements
    # (3, nt) arrays, row k for local vertex or local edge k (vertices
    # (k, k + 1)); long rows keep numpy's inner loops long.
    tri, ef = mesh.triangles.T.copy(), mesh.element_facets.T.copy()
    gx, gy = grads[..., 0].T.copy(), grads[..., 1].T.copy()
    h = mesh.facet_length[ef]
    inner = mesh.facet_right[ef] >= 0
    pen = np.where(inner, 0.0, _facet_penalty(mesh, spec)[ef])  # boundary edges only
    # Half-edge k nt + t is local edge k of element t; an interior facet's
    # two half-edges are each other's twin, and run in opposite directions.
    half = np.arange(3 * nt).reshape(3, nt)
    twin = np.bincount(ef.ravel(), half.ravel())[ef].astype(np.int64) - half
    twin_k, twin_t = np.divmod(twin, nt)

    # x[k, j] = -eps {grad phi_j . n} |F| on local edge k, n outward from
    # the element (the average halves it on interior facets); y holds it
    # at (edge start, edge end, opposite vertex), yb on boundary edges only.
    w = np.where(inner, -0.5 * eps, -eps) * h
    w *= np.where(mesh.facet_left[ef] == np.arange(nt), 1.0, -1.0)
    nx, ny = w * mesh.facet_normal[:, 0][ef], w * mesh.facet_normal[:, 1][ef]
    x = nx[:, None] * gx + ny[:, None] * gy
    y = x[np.arange(3)[:, None], (np.arange(3)[:, None] + np.arange(3)) % 3]
    yb = y * ~inner[:, None]

    # P1 block: volume terms (entry (k, k + 1) on the facet of local edge
    # k), and on a boundary edge (a, b) the penalty on the trace and the
    # consistency term of its owner's three vertices against a and b.
    diag = eps * area * (gx * gx + gy * gy) + mu * area / 6.0
    diag += pen / 3.0 + yb[:, 0] + np.roll(pen / 3.0 + yb[:, 1], 1, axis=0)
    off = eps * area * (gx * gx[[1, 2, 0]] + gy * gy[[1, 2, 0]]) + mu * area / 12.0
    off += pen / 6.0 + 0.5 * (yb[:, 0] + yb[:, 1])
    off += 0.5 * (np.roll(yb[:, 2], 1, axis=0) + np.roll(yb[:, 2], -1, axis=0))

    # Vertex-element block: the mass coupling, the penalty of the trace on
    # boundary edges, the element's own consistency terms, and the terms
    # of the twin's vertices against this element's constant.
    q = y[twin_k, np.arange(3)[:, None, None], twin_t] * inner
    own = mu * area / 3.0 + x[0] + x[1] + x[2] + 0.5 * (pen + np.roll(pen, 1, axis=0))
    own -= q[1] + np.roll(q[0], 1, axis=0)
    across = np.where(inner, tri[(twin_k + 2) % 3, twin_t], -1)
    return (
        np.bincount(tri.ravel(), diag.ravel(), minlength=mesh.num_vertices),
        np.bincount(ef.ravel(), off.ravel(), minlength=mesh.num_facets),
        np.concatenate((tri, across)).T,
        np.concatenate((own, -q[2])).T,
    )


def _p1_mass_values(mesh, area):
    """(diagonal, one value per facet) of the consistent P1 mass matrix."""
    nv, nf = mesh.num_vertices, mesh.num_facets
    return (
        np.bincount(mesh.triangles.ravel(), np.repeat(area / 6.0, 3), minlength=nv),
        np.bincount(mesh.element_facets.ravel(), np.repeat(area / 12.0, 3), minlength=nf),
    )


def _symmetric_csr(n, i, j, *values):
    """n x n CSR matrices on the pattern diagonal + (i, j), (j, i), i != j distinct
    pairs; one per (diagonal (n,), off-diagonal (len(i),)) pair in ``values``."""
    r = np.concatenate((i, j, np.arange(n)))
    c = np.concatenate((j, i, np.arange(n)))
    order = np.argsort(r * n + c)
    indices = c[order]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(r, minlength=n))))
    return [
        sp.csr_matrix((np.concatenate((off, off, d))[order], indices, indptr), shape=(n, n))
        for d, off in values
    ]


def _vertex_csr(mesh, dofs, *values):
    """Vertex blocks on the dofs' vertices, one per (p_diag, p_off)-style pair."""
    a, b = dofs.vertex_to_interior[mesh.facet_vertices].T
    both = (a >= 0) & (b >= 0)
    iv = dofs.interior_vertex_ids
    return _symmetric_csr(iv.size, a[both], b[both], *[(d[iv], off[both]) for d, off in values])


def _coupling_csr(c_vert, c_val, dofs):
    """The vertex-element block on the dofs' vertices as CSR, from its columns."""
    rows = np.where(c_vert >= 0, dofs.vertex_to_interior[c_vert], -1)
    stored = rows >= 0
    colptr = np.concatenate(([0], np.cumsum(stored.sum(axis=1))))
    C = sp.csc_matrix((c_val[stored], rows[stored], colptr), (dofs.n_interior, len(c_vert))).tocsr()
    C.sum_duplicates()  # a vertex opposite two of an element's edges
    return C


def _jump_csr(mesh, weight, diag):
    """diag + sum_F weight_F [w][v] on the element constants (on a boundary
    facet, [w] is the owner's constant)."""
    inner = mesh.facet_right >= 0
    L, R = mesh.facet_left[inner], mesh.facet_right[inner]
    diag = diag + weight[mesh.element_facets].sum(axis=1)
    return _symmetric_csr(mesh.num_elements, L, R, (diag, -weight[inner]))[0]


def assemble_s(mesh, spec, dofs):
    """Diagonal of the nodal stabilizer over interior vertices.

    S1[i] = alpha * (eps * h_i^(d-2) + mu * h_i^d) with d = 2 and
    h_i = max{h_T : T in omega_i}.
    """
    h_i = mesh.h_vertex[dofs.interior_vertex_ids]
    return spec.alpha * (spec.epsilon + spec.mu * h_i**2)


def _f_on_elements(mesh, spec, area):
    """(fvec over all vertex dofs, fvec over element dofs)."""
    nv = mesh.num_vertices
    nt = mesh.num_elements
    if spec.f is None:
        return np.zeros(nv), np.zeros(nt)
    tri = mesh.triangles
    p = mesh.vertices[tri]  # (nt, 3, 2)
    if spec.f_quadrature == "centroid":
        cen = p.mean(axis=1)
        f0 = area * _eval_field(spec.f, cen[:, 0], cen[:, 1])
        fv = np.bincount(tri.ravel(), np.repeat(f0 / 3.0, 3), minlength=nv)
    else:
        x = TRI_QP @ p  # (nt, nq, 2)
        wf = TRI_QW * area[:, None] * _eval_field(spec.f, x[..., 0], x[..., 1])
        fv = np.bincount(tri.ravel(), (wf @ TRI_QP).ravel(), minlength=nv)
        f0 = wf.sum(axis=1)
    if not (np.all(np.isfinite(fv)) and np.all(np.isfinite(f0))):
        raise ValueError("non-finite value in source-term quadrature")
    return fv, f0


def assemble_system(mesh, spec, dofs=None, lift=None):
    """Assemble all blocks of a_h, the stabilizer, and the RHS at once.

    Element dofs are numbered as the elements, as DofMap.from_mesh does.
    ``lift`` holds one value per vertex and defaults to
    dirichlet_lift(mesh, spec.u_D); the system keeps both dofs and lift.
    """
    if dofs is None:
        dofs = DofMap.from_mesh(mesh)
    if lift is None:
        lift = dirichlet_lift(mesh, spec.u_D)
    grads, area = _grads_and_areas(mesh)
    p_diag, p_off, c_vert, c_val = _form_values(mesh, spec, grads, area)
    A11, M1 = _vertex_csr(mesh, dofs, (p_diag, p_off), _p1_mass_values(mesh, area))

    # b - A [lift; 0] over all dofs; c_val is 0 where c_vert is -1
    fv, f0 = _f_on_elements(mesh, spec, area)
    a, b = mesh.facet_vertices.T
    fv = fv - p_diag * lift - np.bincount(a, p_off * lift[b], minlength=lift.size)
    fv -= np.bincount(b, p_off * lift[a], minlength=lift.size)
    f0 = f0 - (c_val * lift[c_vert]).sum(axis=1)

    iv = dofs.interior_vertex_ids
    return BlockSystem(
        A11=A11,
        A10=_coupling_csr(c_vert, c_val, dofs),
        A00=_jump_csr(mesh, _facet_penalty(mesh, spec), spec.mu * area),
        S1=assemble_s(mesh, spec, dofs),
        b1=fv[iv],
        b0=f0,
        M1=M1,
        M0_diag=area,
        dofs=dofs,
        lift=lift,
    )

