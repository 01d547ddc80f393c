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
is stored once for both of its entries (exactly symmetric).  Dirichlet data
are imposed weakly (Nitsche): the right-hand side keeps the penalty and the
symmetric consistency term of the data, taken as the trace of the lift, and
subtracts the rest of a_h(lift, v).

The stencil's index structure depends only on the mesh and the interior
vertices, so each mesh keeps it while it lives (see _Stencil): the first
assembly on a mesh builds it from the arrays that assembly needs anyway,
and every assembly, the first included, computes values only and places
them into it.  The blocks of all assemblies on one mesh share its
read-only index arrays and own their values.  A stencil takes about 175
bytes per element: 2.7 MB at 16,384 elements, 3.1 MB at 18,432.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .fespace import DofMap, _eval_field, dirichlet_lift
from .mesh import TRI_QP, TRI_QW, _freeze

__all__ = ["ProblemSpec", "BlockSystem", "assemble_s", "assemble_system", "penalty_stiffness"]


@dataclass
class ProblemSpec:
    """Coefficients, data, penalty parameters, and solver controls.

    The solve reads tol_outer.  ``omega`` and
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
    f_quadrature: str = "degree4"  # "degree4" or "centroid"

    def __post_init__(self):
        if not np.all(np.isfinite([self.epsilon, self.mu, self.gamma, self.beta, self.alpha])):
            raise ValueError("epsilon, mu, gamma, beta and alpha must be finite")
        if self.epsilon <= 0 or self.mu <= 0:
            raise ValueError("epsilon and mu must be positive")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
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
        if not int(self.beta) == self.beta >= 1:
            raise ValueError("beta must be an integer >= 1")
        self.beta = int(self.beta)


@dataclass
class BlockSystem:
    """Assembled blocks of a_h, the stabilizer diagonal, and the RHS.

    A11 couples interior-vertex dofs, A10 interior vertices to element
    constants, A00 element constants; b1 and b0 carry the action of
    ``lift``, the (nv,) vertex values of the Dirichlet lift, which the
    solves add back to the unknowns numbered by ``dofs``.  ``M1`` is the
    interior P1 mass matrix, used for L2 norms of Step-1 increments; the
    element constants' mass is the mesh's ``area``.
    """

    A11: sp.csr_matrix
    A10: sp.csr_matrix
    A00: sp.csr_matrix
    S1: np.ndarray
    b1: np.ndarray
    b0: np.ndarray
    M1: sp.csr_matrix = field(repr=False)
    dofs: DofMap = field(repr=False)
    lift: np.ndarray = field(repr=False)

    def full_matrix(self):
        """Constrained operator [[A11, A10], [A10^T, A00]] as CSR."""
        return sp.bmat([[self.A11, self.A10], [self.A10.T, self.A00]], format="csr")


def _facet_penalty(mesh, spec):
    """c_F h_F per facet, c_F = gamma (eps + mu h_F^2) / h_F^beta."""
    hF = mesh.facet_length
    return spec.gamma * (spec.epsilon + spec.mu * hF**2) / hF**spec.beta * hF


@dataclass(frozen=True, eq=False)
class _Pattern:
    """A CSR pattern and the source of each stored value: the matrix of
    ``values`` holds values[src[e]] at entry e, plus values[add_src[k]] at
    entry add_at[k]."""

    shape: tuple
    src: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    add_at: np.ndarray
    add_src: np.ndarray

    @classmethod
    def of(cls, M):
        """The pattern of M, a CSR matrix of sources with sorted indices; an
        entry with the row and column of the one before it is summed into it."""
        dup = 1 + np.flatnonzero(M.indices[1:] == M.indices[:-1])
        dup = dup[M.indptr[np.searchsorted(M.indptr, dup)] != dup]  # not at a row's start
        indptr = (M.indptr - np.searchsorted(dup, M.indptr)).astype(M.indptr.dtype)
        src, indices = (np.delete(M.data, dup), np.delete(M.indices, dup)) if dup.size else (M.data, M.indices)
        at = dup - 1 - np.arange(dup.size)  # the entry each duplicate is summed into
        return cls(M.shape, _ints(src), _freeze(indices), _freeze(indptr), _ints(at), _ints(M.data[dup]))

    def matrix(self, values):
        """The matrix of ``values``: its own data on the shared, read-only pattern."""
        data = np.take(values, self.src)
        if self.add_at.size:
            np.add.at(data, self.add_at, values[self.add_src])
        return sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)


def _ints(a):
    """``a`` read-only, as int32 if its values allow: the stencil's index
    arrays live as long as their mesh."""
    return _freeze(a.astype(np.int32) if a.size == 0 or a.max() < 2**31 else a)


def _symmetric_pattern(n, i, j, diag_src, off_src):
    """The n x n pattern diagonal + (i, j), (j, i), i != j distinct pairs,
    whose diagonal takes its values from diag_src and each pair's two
    entries from off_src."""
    r = np.concatenate((i, j, np.arange(n)))
    c = np.concatenate((j, i, np.arange(n)))
    src = np.concatenate((off_src, off_src, diag_src))
    return _Pattern.of(sp.csr_matrix((src, (r, c)), shape=(n, n)))  # no duplicates: nothing summed


@dataclass(frozen=True, eq=False)
class _Stencil:
    """The index work of assemble_system on one mesh and interior vertex set.

    ``corners`` (6, nt) holds each element's own three vertices, then for
    each local edge k (vertices (k, k + 1)) the vertex of the neighbor
    across it that is not on it, -1 on boundary edges.  ``inner`` (3, nt)
    says whether local edge k is interior and ``owned`` whether the element
    owns its facet; ``twin`` (3, nt) is the half-edge k' nt + t' across
    local edge k of element t (0 on boundary edges).  ``vertex`` (A11, M1,
    K_gamma) takes its values from (one per vertex, one per facet),
    ``element`` (A00) from (one per element, one per facet) and
    ``coupling`` (A10) from the (6, nt) values at ``corners``.  ``mass``
    holds the P1 mass matrix's values, M1 = vertex.matrix(mass).
    """

    interior_vertex_ids: np.ndarray
    corners: np.ndarray
    inner: np.ndarray
    owned: np.ndarray
    twin: np.ndarray
    vertex: _Pattern
    element: _Pattern
    coupling: _Pattern
    mass: np.ndarray


# The stencil of each live mesh, for one interior vertex set; an entry dies
# with its mesh, as the stencil holds no reference to it.
_STENCILS = weakref.WeakKeyDictionary()


def _stencil(mesh, dofs):
    """The stencil ``mesh`` keeps, built anew if it keeps none or one for
    other interior vertices than the dofs'."""
    iv = dofs.interior_vertex_ids
    kept = _STENCILS.get(mesh)
    if kept is not None and np.array_equal(kept.interior_vertex_ids, iv):
        return kept
    nv, nt = mesh.num_vertices, mesh.num_elements
    # Half-edge k nt + t is local edge k of element t, in the (3, nt) layout
    # of tri; an interior facet's two half-edges are each other's twin, and
    # run in opposite directions, so the vertex across half-edge h is the
    # twin's third, at (twin + 2 nt) mod 3 nt.
    tri, ef = mesh.triangles.T.ravel(), mesh.element_facets.T
    inner = mesh.facet_right[ef] >= 0
    half = np.arange(3 * nt).reshape(3, nt)
    twin = np.bincount(ef.ravel(), half.ravel())[ef].astype(np.int64) - half
    corners = np.concatenate((tri.reshape(3, nt), np.where(inner, tri[(twin + 2 * nt) % (3 * nt)], -1)))

    v2i = dofs.vertex_to_interior
    a, b = v2i[mesh.facet_vertices].T
    both = np.flatnonzero((a >= 0) & (b >= 0))
    vertex = _symmetric_pattern(iv.size, a[both], b[both], iv, nv + both)
    shared = np.flatnonzero(mesh.facet_right >= 0)
    element = _symmetric_pattern(nt, mesh.facet_left[shared], mesh.facet_right[shared], np.arange(nt), nt + shared)
    # column t of A10 holds the dofs among corners[:, t], in that order
    rows = np.append(v2i, -1)[corners].T
    stored = rows >= 0
    colptr = np.concatenate(([0], np.cumsum(stored.sum(axis=1))))
    src = np.arange(6 * nt).reshape(6, nt).T[stored]
    coupling = _Pattern.of(sp.csc_matrix((src, rows[stored], colptr), (iv.size, nt)).tocsr())

    kept = _STENCILS[mesh] = _Stencil(
        _freeze(iv.copy()), _ints(corners), _freeze(inner), _freeze(mesh.facet_left[ef] == np.arange(nt)),
        _ints(twin), vertex, element, coupling, _freeze(_p1_mass_values(mesh)),
    )
    return kept


def _form_values(mesh, spec, st, pen, lift):
    """Values of a_h in the stencil ``st``, each entry summed in place, and its action on ``lift``.

    Returns (p_diag, p_off, c_val, l1, l0).  The P1 block has p_diag (nv,)
    on its diagonal and p_off[f] at (a, b) and (b, a) of each facet f =
    (a, b).  Column t of the vertex-element block holds c_val[:, t] (6,)
    at the vertices st.corners[:, t] (value 0 at -1).  ``pen`` is
    _facet_penalty.  l1 (nv,) and l0 (nt,) are a_h(lift, v) for each
    vertex and element basis function v, less Nitsche's data terms
    c_F int_F lift v - eps int_F (grad v . n) lift on the boundary facets,
    which the right-hand side keeps with u_D taken as the lift's trace:
    the boundary trace is penalized toward the lift, not toward 0.  Each is
    summed from the terms that remain, so none cancels a penalty term.
    """
    eps, mu, area = spec.epsilon, spec.mu, mesh.area
    # (3, nt) arrays, row k for local vertex or local edge k (vertices
    # (k, k + 1)); long rows keep numpy's inner loops long.
    tri, ef, inner = st.corners[:3], mesh.element_facets.T.copy(), st.inner
    gx, gy = mesh.grads[..., 0].T.copy(), mesh.grads[..., 1].T.copy()
    h = mesh.facet_length[ef]
    pen = np.where(inner, 0.0, pen[ef])  # boundary edges only

    # x[k, j] = -eps {grad phi_j . n} |F| on local edge k, n outward from
    # the element (the average halves it on interior facets); y[i, k] holds
    # it at (edge start, edge end, opposite vertex) for i = 0, 1, 2, yb on
    # boundary edges only.
    w = np.where(inner, -0.5 * eps, -eps) * h
    w *= np.where(st.owned, 1.0, -1.0)
    nx, ny = w * mesh.facet_normal[:, 0][ef], w * mesh.facet_normal[:, 1][ef]
    x = nx[:, None] * gx + ny[:, None] * gy
    y = x[np.arange(3), (np.arange(3)[:, None] + np.arange(3)) % 3]
    yb = y * ~inner

    # P1 block: volume terms (entry (k, k + 1) on the facet of local edge
    # k), and on a boundary edge (a, b) the penalty on the trace and the
    # consistency term of its owner's three vertices against a and b.
    diag, off = _stiffness(gx, gy, eps * area)
    diag += mu * area / 6.0
    off += mu * area / 12.0
    # a_h(lift, phi) of the volume terms and, on a boundary edge, of
    # -eps int (grad lift . n) phi, a half to each of its two vertices, on
    # the elements where some corner's lift value is nonzero: the others
    # add 0 (for a Dirichlet lift, the elements at the boundary)
    touched = np.flatnonzero(np.append(lift != 0.0, False)[st.corners].any(axis=0))
    lv, d, o = lift[tri[:, touched]], diag[:, touched], off[:, touched]
    flux = np.einsum("kjt,jt->kt", x[..., touched], lv) * np.where(inner[:, touched], 0.0, 0.5)
    l1 = d * lv + o * np.roll(lv, -1, axis=0) + flux + np.roll(o * lv + flux, 1, axis=0)
    diag += pen / 3.0 + yb[0] + np.roll(pen / 3.0 + yb[1], 1, axis=0)
    off += pen / 6.0 + 0.5 * (yb[0] + yb[1])
    off += 0.5 * (np.roll(yb[2], 1, axis=0) + np.roll(yb[2], -1, axis=0))

    # Vertex-element block: the mass coupling, the penalty of the trace on
    # boundary edges, the element's own consistency terms, and the terms
    # of the twin's vertices against this element's constant.
    # The lift sees all of it but the penalty.
    q = np.take(y.reshape(3, -1), st.twin, axis=1) * inner
    twins = q[1] + np.roll(q[0], 1, axis=0)
    unpenalized = mu * area / 3.0 + x[0] + x[1] + x[2]
    own = unpenalized + 0.5 * (pen + np.roll(pen, 1, axis=0))
    own -= twins
    l0 = np.zeros(mesh.num_elements)
    l0[touched] = np.einsum("jt,jt->t", unpenalized[:, touched] - twins[:, touched], lv)
    l0[touched] -= np.einsum("jt,jt->t", q[2][:, touched], lift[st.corners[3:, touched]])
    return (
        np.bincount(tri.ravel(), diag.ravel(), minlength=mesh.num_vertices),
        np.bincount(ef.ravel(), off.ravel(), minlength=mesh.num_facets),
        np.concatenate((own, -q[2])),
        np.bincount(tri[:, touched].ravel(), l1.ravel(), minlength=mesh.num_vertices),
        l0,
    )


def _stiffness(gx, gy, wa):
    """(diag, off), each (3, nt): w_T |T| grad phi_k . grad phi_j, with wa =
    w_T |T| for the element weight w_T and gx, gy (3, nt) the components of
    grad phi_k, at j = k for local vertex k and j = k + 1 for local edge k."""
    return wa * (gx * gx + gy * gy), wa * (gx * gx[[1, 2, 0]] + gy * gy[[1, 2, 0]])


def penalty_stiffness(mesh, spec, dofs):
    """K_gamma, the P1 stiffness on the dofs' vertices with element weight
    w_T = gamma (eps + mu h_T^2) h_T^(1 - beta) / 2: constants sampling a P1
    v jump by about h_T |grad v|, so this is the jump penalty's own scale."""
    h = mesh.h_elem
    w = spec.gamma * (spec.epsilon + spec.mu * h**2) * h ** (1 - spec.beta) / 2.0
    diag, off = _stiffness(mesh.grads[..., 0].T, mesh.grads[..., 1].T, w * mesh.area)
    st = _stencil(mesh, dofs)
    d = np.bincount(st.corners[:3].ravel(), diag.ravel(), minlength=mesh.num_vertices)
    o = np.bincount(mesh.element_facets.T.ravel(), off.ravel(), minlength=mesh.num_facets)
    return st.vertex.matrix(np.concatenate((d, o)))


def _p1_mass_values(mesh):
    """The consistent P1 mass matrix's values: its diagonal, then one value per facet."""
    nv, nf, area = mesh.num_vertices, mesh.num_facets, mesh.area
    return np.concatenate((
        np.bincount(mesh.triangles.ravel(), np.repeat(area / 6.0, 3), minlength=nv),
        np.bincount(mesh.element_facets.ravel(), np.repeat(area / 12.0, 3), minlength=nf),
    ))


def _jump_matrix(mesh, st, weight, diag):
    """diag + sum_F weight_F [w][v] on the element constants of the stencil
    ``st`` (on a boundary facet, [w] is the owner's constant)."""
    return st.element.matrix(np.concatenate((diag + weight[mesh.element_facets].sum(axis=1), -weight)))


def assemble_s(mesh, spec, dofs):
    """Diagonal of the nodal stabilizer over interior vertices.

    S1[i] = alpha * (eps * h_i^(d-2) + mu * h_i^d) with d = 2 and
    h_i = max{h_T : T in omega_i}.
    """
    h_i = mesh.h_vertex[dofs.interior_vertex_ids]
    return spec.alpha * (spec.epsilon + spec.mu * h_i**2)


def _f_on_elements(mesh, spec):
    """(fvec over all vertex dofs, fvec over element dofs)."""
    nv, tri, area = mesh.num_vertices, mesh.triangles, mesh.area
    if spec.f is None:
        return np.zeros(nv), np.zeros(mesh.num_elements)
    if spec.f_quadrature == "centroid":
        cen = mesh.centroid
        f0 = area * _eval_field(spec.f, cen[:, 0], cen[:, 1])
        fv = np.bincount(tri.ravel(), np.repeat(f0 / 3.0, 3), minlength=nv)
    else:
        x = mesh.quad_points
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
    st = _stencil(mesh, dofs)
    pen = _facet_penalty(mesh, spec)
    p_diag, p_off, c_val, l1, l0 = _form_values(mesh, spec, st, pen, lift)
    fv, f0 = _f_on_elements(mesh, spec)

    return BlockSystem(
        A11=st.vertex.matrix(np.concatenate((p_diag, p_off))),
        A10=st.coupling.matrix(c_val.ravel()),
        A00=_jump_matrix(mesh, st, pen, spec.mu * mesh.area),
        S1=assemble_s(mesh, spec, dofs),
        b1=(fv - l1)[dofs.interior_vertex_ids],
        b0=f0 - l0,
        M1=st.vertex.matrix(st.mass),
        dofs=dofs,
        lift=lift,
    )
