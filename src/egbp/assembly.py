"""Assembly of the interior-penalty bilinear form, stabilizer, and RHS.

The full operator is assembled once over all vertex dofs plus all element
dofs (no boundary condition applied); the Dirichlet blocks are extracted
through the :class:`~egbp.fespace.DofMap`.  Because the linear part of the
space is continuous, interior facets couple only the element constants:
their penalty term and the consistency terms against the linear part's
gradient averages.  Boundary facets see the full trace.

Symmetric term pairs are assembled entry-wise together with their
transposes, so the assembled matrix is symmetric exactly.  Accumulation
order is the fixed (elements, interior facets, boundary facets) triplet
order, making assembly deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .fespace import DofMap

__all__ = [
    "ProblemSpec",
    "BlockSystem",
    "assemble_s",
    "assemble_system",
    "assemble_M_J",
    "p1_mass_matrix",
    "export_matrix",
]

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

# 2-point Gauss rule on [0, 1]; exact for the cubic edge integrands here.
EDGE_QP = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
EDGE_QW = np.array([0.5, 0.5])


@dataclass
class ProblemSpec:
    """Coefficients, data, penalty parameters, and solver controls."""

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
    penalty_weight: str = "full"  # "full" = (eps + mu h^2); "epsilon" = plain eps
    drop_inner_coupling: bool = False
    raw_outer_update: bool = False

    def __post_init__(self):
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
        if self.penalty_weight not in ("full", "epsilon"):
            raise ValueError("unknown penalty_weight %r" % self.penalty_weight)


@dataclass
class BlockSystem:
    """Assembled blocks of a_h, the stabilizer diagonal, and the RHS.

    A11 couples interior-vertex dofs, A10 interior vertices to element
    constants, A00 element constants; b1 and b0 already carry the Dirichlet
    lift action.  ``M1`` is the interior P1 mass matrix and ``M0_diag`` the
    element areas, both used for L2 norms of increments.
    """

    A11: sp.csr_matrix
    A10: sp.csr_matrix
    A00: sp.csr_matrix
    S1: np.ndarray
    b1: np.ndarray = None
    b0: np.ndarray = None
    M1: sp.csr_matrix = field(default=None, repr=False)
    M0_diag: np.ndarray = field(default=None, repr=False)
    dofs: DofMap = field(default=None, repr=False)

    def full_matrix(self):
        """Constrained operator [[A11, A10], [A10^T, A00]] as CSR."""
        return sp.bmat([[self.A11, self.A10], [self.A10.T, self.A00]], format="csr")


def _grads_and_areas(mesh):
    """Per-element barycentric gradients (nt, 3, 2) and areas (nt,)."""
    p = mesh.vertices[mesh.triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    area = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    g = np.empty((mesh.num_elements, 3, 2))
    for i in range(3):
        e = p[:, (i + 2) % 3] - p[:, (i + 1) % 3]
        g[:, i, 0] = -e[:, 1]
        g[:, i, 1] = e[:, 0]
    g /= (2.0 * area)[:, None, None]
    return g, area


def _penalty_coefficient(mesh, spec):
    hF = mesh.facet_length
    if spec.penalty_weight == "full":
        weight = spec.epsilon + spec.mu * hF**2
    else:
        weight = spec.epsilon * np.ones_like(hF)
    return spec.gamma * weight / hF**spec.beta


def _assemble_full(mesh, spec, geometry=None):
    """a_h over (all vertices) + (all elements); geometry = _grads_and_areas(mesh)."""
    nv = mesh.num_vertices
    nt = mesh.num_elements
    grads, area = _grads_and_areas(mesh) if geometry is None else geometry
    tri = mesh.triangles

    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(np.asarray(r, dtype=np.int64).ravel())
        cols.append(np.asarray(c, dtype=np.int64).ravel())
        vals.append(np.asarray(v, dtype=float).ravel())

    # Volume terms: eps * stiffness, mu * (P1 mass, P1-P0 coupling, P0 mass).
    Ke = spec.epsilon * area[:, None, None] * np.einsum("tid,tjd->tij", grads, grads)
    Me = spec.mu * area[:, None, None] / 12.0 * (np.ones((3, 3)) + np.eye(3))
    local = Ke + Me
    r = np.repeat(tri, 3, axis=1)  # (nt, 9) row indices
    c = np.tile(tri, (1, 3))
    add(r, c, local.transpose(0, 2, 1))  # transpose irrelevant by symmetry
    cdof = nv + np.arange(nt)
    add(tri, np.repeat(cdof, 3).reshape(nt, 3), spec.mu * area[:, None] / 3.0 * np.ones((1, 3)))
    add(np.repeat(cdof, 3).reshape(nt, 3), tri, spec.mu * area[:, None] / 3.0 * np.ones((1, 3)))
    add(cdof, cdof, spec.mu * area)

    cF = _penalty_coefficient(mesh, spec)
    hF = mesh.facet_length
    normal = mesh.facet_normal
    interior = mesh.facet_right >= 0

    # Interior facets: the continuous linear part has no jump, so only the
    # constants are penalized and only the gradient averages of the linear
    # part enter the consistency terms.
    if np.any(interior):
        L = mesh.facet_left[interior]
        R = mesh.facet_right[interior]
        n = normal[interior]
        h = hF[interior]
        c_pen = cF[interior] * h
        dl, dr = cdof[L], cdof[R]
        add(dl, dl, c_pen)
        add(dr, dr, c_pen)
        add(dl, dr, -c_pen)
        add(dr, dl, -c_pen)

        for side in (L, R):
            gn = np.einsum("fkd,fd->fk", grads[side], n)  # (nfi, 3)
            coef = -0.5 * spec.epsilon * h[:, None] * gn
            vdofs = tri[side]
            # -<{eps grad w}, [v]> : rows = vertex dofs, cols = constants
            add(vdofs, np.broadcast_to(dl[:, None], vdofs.shape), coef)
            add(vdofs, np.broadcast_to(dr[:, None], vdofs.shape), -coef)
            # symmetric counterpart -<{eps grad v}, [w]>
            add(np.broadcast_to(dl[:, None], vdofs.shape), vdofs, coef)
            add(np.broadcast_to(dr[:, None], vdofs.shape), vdofs, -coef)

    # Boundary facets: {v} = v and [v] = v n, so the full trace
    # (edge-linear part plus the owner's constant) enters.
    bnd = ~interior
    if np.any(bnd):
        T = mesh.facet_left[bnd]
        a_id = mesh.facet_vertices[bnd, 0]
        b_id = mesh.facet_vertices[bnd, 1]
        n = normal[bnd]
        h = hF[bnd]
        c_pen = cF[bnd]
        dT = cdof[T]

        # Penalty: exact edge integrals of (w1 + w0)(v1 + v0).
        add(a_id, a_id, c_pen * h / 3.0)
        add(b_id, b_id, c_pen * h / 3.0)
        add(a_id, b_id, c_pen * h / 6.0)
        add(b_id, a_id, c_pen * h / 6.0)
        for v_id in (a_id, b_id):
            add(v_id, dT, c_pen * h / 2.0)
            add(dT, v_id, c_pen * h / 2.0)
        add(dT, dT, c_pen * h)

        # Consistency: -eps (grad w . n) tested against the full trace.
        gn = np.einsum("fkd,fd->fk", grads[T], n)
        vdofs = tri[T]
        for target, weight in ((a_id, 0.5), (b_id, 0.5), (dT, 1.0)):
            coef = -spec.epsilon * weight * h[:, None] * gn
            add(vdofs, np.broadcast_to(target[:, None], vdofs.shape), coef)
            add(np.broadcast_to(target[:, None], vdofs.shape), vdofs, coef)

    ndof = nv + nt
    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(ndof, ndof),
    )
    return A.tocsr()


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
    fv = np.zeros(nv)
    f0 = np.zeros(nt)
    if spec.f is None:
        return fv, f0
    p = mesh.vertices[mesh.triangles]  # (nt, 3, 2)
    if spec.f_quadrature == "centroid":
        cen = p.mean(axis=1)
        fc = _eval_field(spec.f, cen[:, 0], cen[:, 1])
        np.add.at(fv, mesh.triangles, (area * fc / 3.0)[:, None] * np.ones(3))
        f0 = area * fc
    else:
        x = np.einsum("qk,tkd->tqd", TRI_QP, p)  # (nt, nq, 2)
        fq = _eval_field(spec.f, x[..., 0], x[..., 1])  # (nt, nq)
        wq = TRI_QW * area[:, None]
        np.add.at(fv, mesh.triangles, np.einsum("tq,qk->tk", wq * fq, TRI_QP))
        f0 = (wq * fq).sum(axis=1)
    if not (np.all(np.isfinite(fv)) and np.all(np.isfinite(f0))):
        raise ValueError("non-finite value in source-term quadrature")
    return fv, f0


def _eval_field(f, X, Y):
    """f at the points (X, Y); f must accept and return numpy arrays."""
    out = np.asarray(f(X, Y), dtype=float)
    if out.shape != X.shape:
        out = np.broadcast_to(out, X.shape).astype(float)
    return out


def p1_mass_matrix(mesh):
    """Consistent P1 mass matrix over all vertices."""
    return _p1_mass(mesh, _grads_and_areas(mesh)[1])


def _p1_mass(mesh, area):
    tri = mesh.triangles
    Me = area[:, None, None] / 12.0 * (np.ones((3, 3)) + np.eye(3))
    r = np.repeat(tri, 3, axis=1)
    c = np.tile(tri, (1, 3))
    nv = mesh.num_vertices
    return sp.coo_matrix(
        (Me.ravel(), (r.ravel(), c.ravel())), shape=(nv, nv)
    ).tocsr()


def assemble_system(mesh, spec, dofs=None, lift=None):
    """Assemble all blocks of a_h, the stabilizer, and the RHS at once."""
    if dofs is None:
        dofs = DofMap.from_mesh(mesh)
    grads, area = _grads_and_areas(mesh)
    A_all = _assemble_full(mesh, spec, (grads, area))
    nv = mesh.num_vertices
    iv = dofs.interior_vertex_ids
    ev = nv + dofs.element_ids
    A11 = A_all[np.ix_(iv, iv)].tocsr()
    A10 = A_all[np.ix_(iv, ev)].tocsr()
    A00 = A_all[np.ix_(ev, ev)].tocsr()

    fv, f0 = _f_on_elements(mesh, spec, area)
    bfull = np.concatenate([fv, f0])
    if lift is not None:
        if np.any(lift.const_coeffs != 0.0):
            raise ValueError("Dirichlet lift must have zero constant part")
        lvec = np.concatenate([lift.linear_coeffs, np.zeros(mesh.num_elements)])
        bfull = bfull - A_all @ lvec

    Mfull = _p1_mass(mesh, area)
    return BlockSystem(
        A11=A11,
        A10=A10,
        A00=A00,
        S1=assemble_s(mesh, spec, dofs),
        b1=bfull[iv],
        b0=bfull[ev],
        M1=Mfull[np.ix_(iv, iv)].tocsr(),
        M0_diag=area,
        dofs=dofs,
    )


def assemble_M_J(mesh, dofs=None):
    """Element mass matrix (diagonal of areas) and unweighted jump matrix.

    J0 accumulates h_F * [w][v] couplings over all facets; boundary facets
    contribute the owner's own constant.
    """
    _, area = _grads_and_areas(mesh)
    nt = mesh.num_elements
    M0 = sp.diags(area).tocsr()

    rows, cols, vals = [], [], []
    interior = mesh.facet_right >= 0
    L = mesh.facet_left[interior]
    R = mesh.facet_right[interior]
    h = mesh.facet_length[interior]
    rows += [L, R, L, R]
    cols += [L, R, R, L]
    vals += [h, h, -h, -h]
    Tb = mesh.facet_left[~interior]
    hb = mesh.facet_length[~interior]
    rows.append(Tb)
    cols.append(Tb)
    vals.append(hb)
    J0 = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nt, nt),
    ).tocsr()
    return M0, J0


def export_matrix(A, path):
    """Coordinate text export "row col value", sorted by (row, col)."""
    coo = sp.coo_matrix(A)
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w") as fh:
        for i in order:
            fh.write("%d %d %.17g\n" % (coo.row[i], coo.col[i], coo.data[i]))
