"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately slow and literal: dense matrices, explicit
loops over elements and facets, and high-order quadrature refined until
stable.  Nothing is shared with the package's vectorized mesh, limiter and
assembly paths.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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
    the facet arrays, boundary flags, the per-vertex patch lists, h_elem
    and h_vertex, computed the way the package's Mesh documents them.
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

    return {
        "facet_vertices": facet_vertices,
        "facet_left": facet_left,
        "facet_right": facet_right,
        "facet_length": facet_length,
        "facet_normal": facet_normal,
        "boundary_vertex": boundary_vertex,
        "patches": patches,
        "h_elem": h_elem,
        "h_vertex": h_vertex,
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
