"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately slow and literal: dense matrices, explicit
loops over elements and facets, and high-order quadrature refined until
stable.  Nothing is shared with the package's vectorized mesh, limiter and
assembly paths.  The exception is ``coo_assembly_oracle``, the package's
former vectorized COO assembly, kept as the reference for the stencil
assembly; it shares only the quadrature rule and the field evaluation.
Another is ``padded_restricted_solve``, the Step-1 CG of OrderedFactor
with its former padded full product, kept as the bit-for-bit reference
for the free-row product; it shares the CG routine and the factors'
``inverse``.

The last section holds helpers that no study, CLI path or benchmark runs:
the sheared and stretched mesh transforms, point evaluation,
interpolation, the full operator over all dofs, the element mass and jump
matrices, the complement Q, the comparison bound, the broken Poincare
constant, the zero function, a recorder of the CLI's solves and the CSV
readers.  The tests use them as references or as
statements of the paper's theory; they build on the package's own
assembly and limiter.
"""

import csv

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from egbp.assembly import (
    TRI_QP,
    TRI_QW,
    _jump_matrix,
    _stencil,
    assemble_system,
)
import egbp.cli
from egbp.cli import CSV_HEADER
from egbp.fespace import DofMap, EGFunction, _eval_field
from egbp.limiter import apply_P
from egbp.mesh import _build_mesh
from egbp.solver import SpdFactor, _pcg

# 7-point Gauss-Legendre rule on [0, 1]; exact through degree 13, far more
# than needed for products of P1 traces and gradients.
_GP, _GW = np.polynomial.legendre.leggauss(7)
_GP = 0.5 * (_GP + 1.0)
_GW = 0.5 * _GW


def _cross2(a, b):
    """z-component of the cross product of 2D vectors (broadcasting)."""
    a = np.asarray(a)
    b = np.asarray(b)
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _tri_area_grads(pts):
    """Area and P1 shape gradients of a CCW triangle given as 3x2 array."""
    v0, v1, v2 = pts
    area = 0.5 * _cross2(v1 - v0, v2 - v0)
    grads = np.empty((3, 2))
    for k in range(3):
        e = pts[(k + 2) % 3] - pts[(k + 1) % 3]
        grads[k] = np.array([-e[1], e[0]]) / (2.0 * area)
    return area, grads


def _midpoint_integrate(func, pts, levels):
    """Composite midpoint rule on a triangle after `levels` red subdivisions."""
    tris = [pts]
    for _ in range(levels):
        nxt = []
        for t in tris:
            m01 = 0.5 * (t[0] + t[1])
            m12 = 0.5 * (t[1] + t[2])
            m20 = 0.5 * (t[2] + t[0])
            nxt += [
                np.array([t[0], m01, m20]),
                np.array([m01, t[1], m12]),
                np.array([m20, m12, t[2]]),
                np.array([m01, m12, m20]),
            ]
        tris = nxt
    total = 0.0
    for t in tris:
        c = t.mean(axis=0)
        area = 0.5 * _cross2(t[1] - t[0], t[2] - t[0])
        total += area * func(c[0], c[1])
    return total


def integrate_triangle(func, pts, rel_tol=1e-12, max_level=8):
    """Richardson-extrapolated midpoint integration over a triangle."""
    prev = _midpoint_integrate(func, np.asarray(pts, dtype=float), 0)
    prev_extrap = None
    for lvl in range(1, max_level + 1):
        cur = _midpoint_integrate(func, np.asarray(pts, dtype=float), lvl)
        # midpoint rule is second order: Richardson step removes the h^2 term
        extrap = cur + (cur - prev) / 3.0
        if prev_extrap is not None and abs(extrap - prev_extrap) <= rel_tol * max(
            1.0, abs(extrap)
        ):
            return extrap
        prev = cur
        prev_extrap = extrap
    return extrap


def _basis_on_element(mesh, dof, T):
    """Value/gradient callables of a global EG basis function on element T.

    dof < num_vertices refers to the hat function of that vertex; larger
    dofs refer to the indicator of element dof - num_vertices.
    """
    nv = mesh.num_vertices
    pts = mesh.vertices[mesh.triangles[T]]
    area, grads = _tri_area_grads(pts)
    if dof >= nv:
        if dof - nv == T:
            return (lambda x, y: 1.0), np.zeros(2)
        return (lambda x, y: 0.0), np.zeros(2)
    tri = list(mesh.triangles[T])
    if dof not in tri:
        return (lambda x, y: 0.0), np.zeros(2)
    k = tri.index(dof)
    vk = pts[k]

    def val(x, y, g=grads[k], vk=vk):
        return 1.0 + g @ (np.array([x, y]) - vk)

    return val, grads[k]


def dense_bilinear_oracle(mesh, spec):
    """Dense matrix of the penalized bilinear form over all nv + nt dofs.

    Volume terms by extrapolated midpoint quadrature; facet terms by
    Gauss-Legendre along each facet, evaluated from both incident sides.
    """
    nv, nt = mesh.num_vertices, mesh.num_elements
    n = nv + nt
    A = np.zeros((n, n))

    for T in range(nt):
        pts = mesh.vertices[mesh.triangles[T]]
        local = list(mesh.triangles[T]) + [nv + T]
        for a_ in local:
            fa, ga = _basis_on_element(mesh, a_, T)
            for b_ in local:
                fb, gb = _basis_on_element(mesh, b_, T)
                val = spec.epsilon * (ga @ gb) * abs(
                    0.5 * _cross2(pts[1] - pts[0], pts[2] - pts[0])
                )
                val += spec.mu * integrate_triangle(
                    lambda x, y: fa(x, y) * fb(x, y), pts
                )
                A[a_, b_] += val

    for F in range(mesh.num_facets):
        i, j = mesh.facet_vertices[F]
        p0, p1 = mesh.vertices[i], mesh.vertices[j]
        hF = mesh.facet_length[F]
        normal = mesh.facet_normal[F]
        TL = mesh.facet_left[F]
        TR = mesh.facet_right[F]
        pen = spec.gamma * (spec.epsilon + spec.mu * hF**2) / hF**spec.beta
        qpts = [p0 + t * (p1 - p0) for t in _GP]
        qw = _GW * hF
        sides = [TL] if TR < 0 else [TL, TR]
        for dof_w in range(n):
            for dof_v in range(n):
                acc = 0.0
                for pt, w in zip(qpts, qw):
                    # jump [v] = v_L n - v_R n (normal outward from left);
                    # average {g} = (g_L + g_R)/2; boundary: single side.
                    jw = 0.0
                    jv = 0.0
                    aw = np.zeros(2)
                    av = np.zeros(2)
                    for s, T in enumerate(sides):
                        sign = 1.0 if T == TL else -1.0
                        fw, gw = _basis_on_element(mesh, dof_w, T)
                        fv, gv = _basis_on_element(mesh, dof_v, T)
                        jw += sign * fw(pt[0], pt[1])
                        jv += sign * fv(pt[0], pt[1])
                        aw = aw + gw
                        av = av + gv
                    if TR >= 0:
                        aw = aw / 2.0
                        av = av / 2.0
                    acc += w * (
                        pen * jw * jv
                        - spec.epsilon * (aw @ normal) * jv
                        - spec.epsilon * (av @ normal) * jw
                    )
                A[dof_w, dof_v] += acc
    return A


def penalty_stiffness_oracle(mesh, spec, interior_vertex_ids):
    """Dense K_gamma on the interior vertices, element by element.

    Each element adds w_T |T| grad phi_a . grad phi_b with w_T =
    gamma (eps + mu h_T^2) h_T^(1 - beta) / 2, h_T its longest edge.
    """
    K = np.zeros((mesh.num_vertices, mesh.num_vertices))
    for T in range(mesh.num_elements):
        tri = mesh.triangles[T]
        pts = mesh.vertices[tri]
        area, grads = _tri_area_grads(pts)
        h = max(np.linalg.norm(pts[k] - pts[(k + 1) % 3]) for k in range(3))
        w = spec.gamma * (spec.epsilon + spec.mu * h**2) * h ** (1 - spec.beta) / 2.0
        for a in range(3):
            for b in range(3):
                K[tri[a], tri[b]] += w * area * (grads[a] @ grads[b])
    return K[np.ix_(interior_vertex_ids, interior_vertex_ids)]


def restrict_oracle(mesh, A_full, interior_vertex_ids):
    """Extract the solver-ordered block matrix (interior P1 dofs, constants)."""
    nv = mesh.num_vertices
    keep = np.concatenate(
        [np.asarray(interior_vertex_ids), nv + np.arange(mesh.num_elements)]
    )
    return A_full[np.ix_(keep, keep)]


def connectivity_oracle(vertices, triangles):
    """Facet and node-patch connectivity from per-triangle dict loops.

    Facets are keyed by their sorted endpoint pair and numbered in key
    order; the owner is the incident element of smallest index, and the
    facet's (a, b) follow the owner's CCW traversal.  Returns a dict with
    the facet arrays, the facet of each local edge (k, k + 1), boundary
    flags, the per-vertex patch lists, h_elem and h_vertex, and the
    element area (shoelace formula), barycentric gradients (from each
    element's 3x3 system [1, x, y]) and centroid, computed the way the
    package's Mesh documents them.
    """
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=np.int64)
    nv, nt = vertices.shape[0], triangles.shape[0]

    edge_map = {}
    for t in range(nt):
        tri = triangles[t]
        for k in range(3):
            a, b = int(tri[k]), int(tri[(k + 1) % 3])
            key = (a, b) if a < b else (b, a)
            edge_map.setdefault(key, []).append((t, a, b))
    keys = sorted(edge_map)
    nf = len(keys)
    facet_vertices = np.empty((nf, 2), dtype=np.int64)
    facet_left = np.empty(nf, dtype=np.int64)
    facet_right = np.full(nf, -1, dtype=np.int64)
    for i, key in enumerate(keys):
        incident = sorted(edge_map[key])
        assert len(incident) <= 2, key
        t, a, b = incident[0]
        facet_vertices[i] = (a, b)
        facet_left[i] = t
        if len(incident) == 2:
            facet_right[i] = incident[1][0]

    facet_of = {key: i for i, key in enumerate(keys)}
    element_facets = np.empty((nt, 3), dtype=np.int64)
    for t in range(nt):
        for k in range(3):
            a, b = int(triangles[t, k]), int(triangles[t, (k + 1) % 3])
            element_facets[t, k] = facet_of[(min(a, b), max(a, b))]

    tang = vertices[facet_vertices[:, 1]] - vertices[facet_vertices[:, 0]]
    facet_length = np.hypot(tang[:, 0], tang[:, 1])
    facet_normal = np.column_stack((tang[:, 1], -tang[:, 0])) / facet_length[:, None]

    boundary_vertex = np.zeros(nv, dtype=bool)
    for i in range(nf):
        if facet_right[i] < 0:
            boundary_vertex[facet_vertices[i]] = True

    patches = [[] for _ in range(nv)]
    for t in range(nt):
        for v in triangles[t]:
            patches[int(v)].append(t)
    patches = [np.array(pl, dtype=np.int64) for pl in patches]

    h_elem = np.empty(nt)
    for t in range(nt):
        p = vertices[triangles[t]]
        h_elem[t] = max(np.hypot(*(p[(k + 1) % 3] - p[k])) for k in range(3))
    h_vertex = np.array([h_elem[pl].max() for pl in patches])

    area = np.empty(nt)
    for t in range(nt):
        x, y = vertices[triangles[t]].T
        area[t] = 0.5 * sum(x[k] * y[(k + 1) % 3] - x[(k + 1) % 3] * y[k] for k in range(3))
    grads = np.empty((nt, 3, 2))
    for t in range(nt):
        # column k holds the coefficients (c, gx, gy) of phi_k = c + gx x + gy y
        V = np.column_stack((np.ones(3), vertices[triangles[t]]))
        grads[t] = np.linalg.solve(V, np.eye(3))[1:].T
    centroid = np.empty((nt, 2))
    for t in range(nt):
        centroid[t] = vertices[triangles[t]].sum(axis=0) / 3.0

    return {
        "facet_vertices": facet_vertices,
        "facet_left": facet_left,
        "facet_right": facet_right,
        "facet_length": facet_length,
        "facet_normal": facet_normal,
        "element_facets": element_facets,
        "boundary_vertex": boundary_vertex,
        "patches": patches,
        "h_elem": h_elem,
        "h_vertex": h_vertex,
        "area": area,
        "grads": grads,
        "centroid": centroid,
    }


def truncate_node(v1_at_i, under_i, over_i, bounds):
    """Clamped nodal value max[a - under, min(v, b - over)], one node at a time."""
    a, b = bounds
    return max(a - under_i, min(v1_at_i, b - over_i))


def richardson_step1_oracle(u1, w0, system, spec, extremes, tol, max_iter, state=None):
    """Damped Richardson loop for the continuous-part problem (Step 1).

    The sweep the package used before its active-set Newton solve, kept
    as the Step-1 reference: iterates A11 u_{n+1} = A11 u_n + omega * R_n
    with R_n = b1 - A11 P(u_n) - S1 Q(u_n) - A10 w0 until the L2 norm of
    the increment falls below tol.  The sweep is stable only while
    omega * lambda_max(A11^{-1} S1) < 2, so a safeguard halves the
    damping, down to omega / 32, whenever the increment fails to decrease;
    a mutable ``state`` dict (key "damping") carries it across calls.

    Returns (u1_new, iteration_count, increment_history, converged).
    """
    lu = spla.splu(sp.csc_matrix(system.A11))
    a, b = spec.bounds
    rhs = system.b1 - system.A10 @ w0

    if state is None:
        state = {"damping": spec.omega}
    damping = state["damping"]
    damping_floor = spec.omega / 32.0

    u = np.asarray(u1, dtype=float).copy()
    increments = []
    converged = False
    prev_inc = np.inf
    for _ in range(max_iter):
        p = np.maximum(a - extremes.under, np.minimum(u, b - extremes.over))
        q = u - p
        residual = rhs - system.A11 @ p - system.S1 * q
        step = damping * lu.solve(residual)
        u = u + step
        inc = float(np.sqrt(step @ (system.M1 @ step)))
        increments.append(inc)
        if inc <= tol:
            converged = True
            break
        if inc > 0.999 * prev_inc and damping > damping_floor:
            damping = max(0.5 * damping, damping_floor)
        prev_inc = inc
    state["damping"] = damping
    return u, len(increments), increments, converged


def solve_spd(A, b, name="system"):
    """SpdFactor.solve of an SPD system in its given (natural) order: CG preconditioned with its LU.

    Natural order fills far more than the solver's nested-dissection order
    on large meshes; use it on test-sized matrices only.
    """
    return SpdFactor(A, name=name).solve(np.asarray(b, dtype=float))


def padded_restricted_solve(factor, b, free, x0=None):
    """(A[I, I]^{-1} b, CG steps) of an OrderedFactor ``factor`` of A, I = ``free``, by the padded full product.

    The solve as OrderedFactor.solve made it before its CG multiplied only
    the free rows: every CG step multiplies the whole A, in A's numbering,
    by the vector padded with zeros on the clamped set C and keeps the free
    part of the product.  The preconditioner is ``factor.inverse`` of the
    vector padded alike, restricted to I.  An all-free set is solved by CG
    on A preconditioned with ``factor.inverse``.  CG starts at ``x0``,
    given on the free nodes like b, or at zero.  Reads ``factor``'s
    matrix, inverse, norm and name.
    """
    if not free.any():
        return np.zeros(0), 0
    if free.all():
        return _pcg(factor.A.dot, factor.inverse, b, factor.norm, factor.name, x0)
    padded = np.zeros(free.size)

    def restricted(v, apply=factor.A.dot):  # (apply(v padded by zeros on C))_I
        padded[free] = v
        return apply(padded)[free]

    precond = lambda r: restricted(r, factor.inverse)
    return _pcg(restricted, precond, b, factor.norm, "%s[I, I]" % factor.name, x0)


def _coo_f_on_elements(mesh, spec, area):
    """Source-term load vectors (over all vertices, over elements) with np.add.at."""
    fv = np.zeros(mesh.num_vertices)
    f0 = np.zeros(mesh.num_elements)
    if spec.f is None:
        return fv, f0
    p = mesh.vertices[mesh.triangles]
    if spec.f_quadrature == "centroid":
        cen = p.mean(axis=1)
        fc = _eval_field(spec.f, cen[:, 0], cen[:, 1])
        np.add.at(fv, mesh.triangles, (area * fc / 3.0)[:, None] * np.ones(3))
        f0 = area * fc
    else:
        x = np.einsum("qk,tkd->tqd", TRI_QP, p)
        fq = _eval_field(spec.f, x[..., 0], x[..., 1])
        wq = TRI_QW * area[:, None]
        np.add.at(fv, mesh.triangles, np.einsum("tq,qk->tk", wq * fq, TRI_QP))
        f0 = (wq * fq).sum(axis=1)
    return fv, f0


def coo_assembly_oracle(mesh, spec, dofs, lift):
    """The blocks A11, A10, A00, M1 and the loads b1, b0 from COO triplets.

    The package's assembly before it wrote each entry to its place in the
    mesh stencil: every element and facet term is a triplet (row, col,
    value) over all nv + nt dofs, duplicates are summed by the COO -> CSR
    conversion, and the blocks are cut out with np.ix_.  Returns a dict of
    the blocks and loads, and under "scale" each block summed from the
    absolute values of its terms: the size of each entry's rounding.
    ``lift`` holds the vertex values of the Dirichlet lift.  The loads are
    b = f - A_lift [lift; 0], A_lift summed from every term but Nitsche's
    boundary data terms, the penalty c_F int_F u v and -eps int_F
    (grad v . n) u on boundary facets, which the right-hand side keeps
    with u_D taken as the lift.
    """
    nv, nt = mesh.num_vertices, mesh.num_elements
    tri = mesh.triangles
    p = mesh.vertices[tri]
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    area = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    grads = np.empty((nt, 3, 2))
    for i in range(3):
        e = p[:, (i + 2) % 3] - p[:, (i + 1) % 3]
        grads[:, i, 0] = -e[:, 1]
        grads[:, i, 1] = e[:, 0]
    grads /= (2.0 * area)[:, None, None]

    rows, cols, vals, lifted = [], [], [], []

    def add(r, c, v, data=False):  # data: a term the lift leaves to the right-hand side
        rows.append(np.asarray(r, dtype=np.int64).ravel())
        cols.append(np.asarray(c, dtype=np.int64).ravel())
        vals.append(np.asarray(v, dtype=float).ravel())
        lifted.append(np.full(rows[-1].size, not data))

    Ke = spec.epsilon * area[:, None, None] * np.einsum("tid,tjd->tij", grads, grads)
    Me = spec.mu * area[:, None, None] / 12.0 * (np.ones((3, 3)) + np.eye(3))
    r = np.repeat(tri, 3, axis=1)
    c = np.tile(tri, (1, 3))
    add(r, c, (Ke + Me).transpose(0, 2, 1))
    cdof = nv + np.arange(nt)
    add(tri, np.repeat(cdof, 3).reshape(nt, 3), spec.mu * area[:, None] / 3.0 * np.ones((1, 3)))
    add(np.repeat(cdof, 3).reshape(nt, 3), tri, spec.mu * area[:, None] / 3.0 * np.ones((1, 3)))
    add(cdof, cdof, spec.mu * area)

    hF = mesh.facet_length
    cF = spec.gamma * (spec.epsilon + spec.mu * hF**2) / hF**spec.beta
    normal = mesh.facet_normal
    interior = mesh.facet_right >= 0

    L, R = mesh.facet_left[interior], mesh.facet_right[interior]
    n, h = normal[interior], hF[interior]
    c_pen = cF[interior] * h
    dl, dr = cdof[L], cdof[R]
    add(dl, dl, c_pen)
    add(dr, dr, c_pen)
    add(dl, dr, -c_pen)
    add(dr, dl, -c_pen)
    for side in (L, R):
        gn = np.einsum("fkd,fd->fk", grads[side], n)
        coef = -0.5 * spec.epsilon * h[:, None] * gn
        vdofs = tri[side]
        add(vdofs, np.broadcast_to(dl[:, None], vdofs.shape), coef)
        add(vdofs, np.broadcast_to(dr[:, None], vdofs.shape), -coef)
        add(np.broadcast_to(dl[:, None], vdofs.shape), vdofs, coef)
        add(np.broadcast_to(dr[:, None], vdofs.shape), vdofs, -coef)

    bnd = ~interior
    T = mesh.facet_left[bnd]
    a_id, b_id = mesh.facet_vertices[bnd, 0], mesh.facet_vertices[bnd, 1]
    n, h, c_pen = normal[bnd], hF[bnd], cF[bnd]
    dT = cdof[T]
    add(a_id, a_id, c_pen * h / 3.0, data=True)
    add(b_id, b_id, c_pen * h / 3.0, data=True)
    add(a_id, b_id, c_pen * h / 6.0, data=True)
    add(b_id, a_id, c_pen * h / 6.0, data=True)
    for v_id in (a_id, b_id):
        add(v_id, dT, c_pen * h / 2.0, data=True)
        add(dT, v_id, c_pen * h / 2.0, data=True)
    add(dT, dT, c_pen * h, data=True)
    gn = np.einsum("fkd,fd->fk", grads[T], n)
    vdofs = tri[T]
    for target, weight in ((a_id, 0.5), (b_id, 0.5), (dT, 1.0)):
        coef = -spec.epsilon * weight * h[:, None] * gn
        # -eps int (grad v . n) u, v the vertex functions, then -eps int (grad u . n) v
        add(vdofs, np.broadcast_to(target[:, None], vdofs.shape), coef, data=True)
        add(np.broadcast_to(target[:, None], vdofs.shape), vdofs, coef)

    index = (np.concatenate(rows), np.concatenate(cols))
    vals, lifted = np.concatenate(vals), np.concatenate(lifted)
    A, A_abs, A_lift = (
        sp.coo_matrix((v, index), shape=(nv + nt, nv + nt)).tocsr() for v in (vals, np.abs(vals), vals * lifted)
    )
    Mloc = area[:, None, None] / 12.0 * (np.ones((3, 3)) + np.eye(3))
    M = sp.coo_matrix((Mloc.ravel(), (r.ravel(), c.ravel())), shape=(nv, nv)).tocsr()

    bfull = np.concatenate(_coo_f_on_elements(mesh, spec, area))
    bfull = bfull - A_lift @ np.concatenate([lift, np.zeros(nt)])
    iv = dofs.interior_vertex_ids
    ev = nv + np.arange(nt)
    blocks = {"A11": (iv, iv), "A10": (iv, ev), "A00": (ev, ev)}
    out = {name: A[np.ix_(*ix)].tocsr() for name, ix in blocks.items()}
    out["scale"] = {name: A_abs[np.ix_(*ix)].tocsr() for name, ix in blocks.items()}
    out["M1"] = out["scale"]["M1"] = M[np.ix_(iv, iv)].tocsr()
    out.update(b1=bfull[iv], b0=bfull[ev])
    return out


# ---------------------------------------------------------------------------
# Helpers the package does not run, built on its assembly and limiter
# ---------------------------------------------------------------------------


def sheared(mesh, s):
    """The mesh under x -> x + s y: for s = 2, obtuse triangles."""
    vertices = mesh.vertices.copy()
    vertices[:, 0] += s * vertices[:, 1]
    return _build_mesh(vertices, mesh.triangles)


def stretched(mesh):
    """The mesh under y -> y^2: cells flatten toward y = 0.  On the 16 x 16
    structured mesh the diagonal of a mass-dominated A11 spans a factor 8."""
    return _build_mesh(np.column_stack([mesh.vertices[:, 0], mesh.vertices[:, 1] ** 2]), mesh.triangles)


def all_vertices(mesh):
    """A DofMap whose 'interior' vertices are all vertices."""
    every = np.arange(mesh.num_vertices)
    return DofMap(every, every)


def assemble_full(mesh, spec):
    """a_h over (all vertices) + (all elements), no boundary condition applied."""
    return assemble_system(mesh, spec, all_vertices(mesh)).full_matrix()


def p1_mass_matrix(mesh):
    """Consistent P1 mass matrix over all vertices."""
    st = _stencil(mesh, all_vertices(mesh))
    return st.vertex.matrix(st.mass)


def assemble_M_J(mesh):
    """Element mass matrix (diagonal of areas) and unweighted jump matrix.

    J0 accumulates h_F * [w][v] couplings over all facets; boundary facets
    contribute the owner's own constant.
    """
    return sp.diags(mesh.area).tocsr(), _jump_matrix(mesh, _stencil(mesh, all_vertices(mesh)), mesh.facet_length, 0.0)


def zero_function(mesh):
    """The zero EG function on the mesh."""
    return EGFunction(np.zeros(mesh.num_vertices), np.zeros(mesh.num_elements))


def interpolate_lagrange(mesh, g):
    """Nodal interpolant of a scalar field: linear part only."""
    vals = np.array([g(x, y) for x, y in mesh.vertices], dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = int(np.flatnonzero(~np.isfinite(vals))[0])
        raise ValueError("non-finite value at vertex %d %r" % (bad, tuple(mesh.vertices[bad])))
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


def apply_Q(mesh, dofs, w0, v, bounds):
    """Complement Q: v1 minus the truncated linear part, zero constants."""
    p = apply_P(mesh, dofs, w0, v, bounds)
    return EGFunction(v.linear_coeffs - p.linear_coeffs, np.zeros(mesh.num_elements))


def comparison_bound(spec, domain=(0.0, 0.0, 1.0, 1.0), n=256, f_sup=None, uD_sup=None):
    """Invariant interval from the comparison principle.

    U = max(sup|f| / mu, sup|u_D|); returns [0, U] when both data are
    nonnegative and [-U, U] otherwise.  Suprema are sampled on an n-by-n
    grid unless supplied analytically.
    """
    x0, y0, x1, y1 = domain
    X, Y = np.meshgrid(np.linspace(x0, x1, n + 1), np.linspace(y0, y1, n + 1))
    if spec.f is None:
        fvals = np.zeros(1)
    else:
        fvals = _eval_field(spec.f, X, Y).ravel()
    fmax = float(np.max(np.abs(fvals))) if f_sup is None else float(f_sup)
    f_nonneg = np.all(fvals >= 0.0)

    if spec.u_D is None:
        dvals = np.zeros(1)
    else:
        t = np.linspace(0.0, 1.0, n + 1)
        bx = np.concatenate([x0 + (x1 - x0) * t, np.full(n + 1, x1), x1 - (x1 - x0) * t, np.full(n + 1, x0)])
        by = np.concatenate([np.full(n + 1, y0), y0 + (y1 - y0) * t, np.full(n + 1, y1), y1 - (y1 - y0) * t])
        dvals = _eval_field(spec.u_D, bx, by)
    dmax = float(np.max(np.abs(dvals))) if uD_sup is None else float(uD_sup)
    d_nonneg = np.all(dvals >= 0.0)

    U = max(fmax / spec.mu, dmax)
    if f_nonneg and d_nonneg:
        return (0.0, U)
    return (-U, U)


def broken_poincare_constant(mesh):
    """Best constant in ||v0||_0 <= C (sum_F h_F^-1 ||[v0]||^2_F)^(1/2).

    Computed exactly as the square root of the largest generalized
    eigenvalue of M0 v = lambda Jw v, with Jw the unit-weight jump matrix
    (h_F^-1 and the facet integral cancel to weight one per facet).
    """
    Jw = _jump_matrix(mesh, _stencil(mesh, all_vertices(mesh)), np.ones(mesh.num_facets), 0.0).toarray()
    lam = scipy.linalg.eigvalsh(np.diag(mesh.area), Jw)
    return float(np.sqrt(lam[-1]))


def record_cli_solves(monkeypatch):
    """List that collects the EGSolution of each bound-preserving solve the CLI runs."""
    solutions = []
    solve = egbp.cli.solve_bound_preserving

    def recording(*args, **kwargs):
        solutions.append(solve(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(egbp.cli, "solve_bound_preserving", recording)
    return solutions


def read_egfunction(path):
    """EGFunction of an ``--emit-fields`` coefficient file ("kind,index,value")."""
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


def parse_report_csv(path, columns=CSV_HEADER):
    """Re-parse a table CSV into a list of numeric dicts ("--" -> nan).

    The header must be exactly ``columns``; the count columns parse as int.
    """
    out = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != list(columns):
            raise ValueError("unexpected CSV header in %s" % path)
        for row in reader:
            parsed = {}
            for key, val in row.items():
                if val == "--":
                    parsed[key] = np.nan
                elif key in ("beta", "elements", "iters", "violations"):
                    parsed[key] = int(val)
                else:
                    parsed[key] = float(val)
            out.append(parsed)
    return out
