import numpy as np
import pytest

from egbp.fespace import DofMap, EGFunction
from egbp.limiter import apply_P, feasibility_check, patch_extremes, truncate_values
from egbp.mesh import _build_mesh, build_structured, refine_uniform
from oracles import all_vertices, apply_Q, element_vertex_values, truncate_node, zero_function


def random_function(mesh, rng, scale=1.0):
    return EGFunction(
        scale * rng.normal(size=mesh.num_vertices),
        scale * rng.normal(size=mesh.num_elements),
    )


def test_truncate_node_formula():
    bounds = (0.0, 1.0)
    # inside the window: unchanged
    assert truncate_node(0.4, 0.1, 0.5, bounds) == pytest.approx(0.4)
    # above: clamps to b - over
    assert truncate_node(0.9, 0.1, 0.5, bounds) == pytest.approx(0.5)
    # below: clamps to a - under
    assert truncate_node(-0.7, 0.1, 0.5, bounds) == pytest.approx(-0.1)
    # infeasible window (a - under > b - over): lower clamp wins
    assert truncate_node(0.2, -0.5, 0.9, bounds) == pytest.approx(0.5)


def test_truncate_values_matches_scalar():
    rng = np.random.default_rng(11)
    mesh = build_structured(4, 4)
    dofs = DofMap.from_mesh(mesh)
    w0 = rng.normal(size=mesh.num_elements)
    ext = patch_extremes(mesh, w0, dofs)
    v1 = rng.normal(size=dofs.n_interior)
    out = truncate_values(v1, ext, (-0.5, 0.5))
    for k in range(dofs.n_interior):
        assert out[k] == truncate_node(v1[k], ext.under[k], ext.over[k], (-0.5, 0.5))


def _refined_shuffled_mesh():
    rng = np.random.default_rng(8)
    mesh = refine_uniform(build_structured(3, 4))
    tri = mesh.triangles[rng.permutation(mesh.num_elements)]
    return _build_mesh(mesh.vertices, np.roll(tri, 1, axis=1))


def test_patch_extremes_bruteforce():
    rng = np.random.default_rng(5)
    for mesh in (build_structured(3, 4), _refined_shuffled_mesh()):
        dofs = DofMap.from_mesh(mesh)
        w0 = rng.normal(size=mesh.num_elements)
        every = patch_extremes(mesh, w0, all_vertices(mesh))
        for i in range(mesh.num_vertices):
            patch = np.flatnonzero((mesh.triangles == i).any(axis=1))
            assert every.under[i] == w0[patch].min()
            assert every.over[i] == w0[patch].max()
        ext = patch_extremes(mesh, w0, dofs)
        assert np.array_equal(ext.under, every.under[dofs.interior_vertex_ids])
        assert np.array_equal(ext.over, every.over[dofs.interior_vertex_ids])


def test_patch_extremes_length_mismatch():
    mesh = build_structured(2, 2)
    with pytest.raises(ValueError):
        patch_extremes(mesh, np.zeros(mesh.num_elements + 1), DofMap.from_mesh(mesh))


def test_apply_P_idempotent():
    rng = np.random.default_rng(2)
    mesh = build_structured(4, 3)
    dofs = DofMap.from_mesh(mesh)
    w0 = 0.3 * rng.normal(size=mesh.num_elements)
    v = random_function(mesh, rng)
    bounds = (-1.0, 1.0)
    p1 = apply_P(mesh, dofs, w0, v, bounds)
    p2 = apply_P(mesh, dofs, w0, p1, bounds)
    assert np.array_equal(p1.linear_coeffs, p2.linear_coeffs)
    assert np.array_equal(p1.const_coeffs, p2.const_coeffs)


def test_P_plus_Q_identity_on_linear_part():
    rng = np.random.default_rng(3)
    mesh = build_structured(5, 5)
    dofs = DofMap.from_mesh(mesh)
    w0 = rng.normal(size=mesh.num_elements)
    v = random_function(mesh, rng)
    bounds = (-0.2, 0.7)
    p = apply_P(mesh, dofs, w0, v, bounds)
    q = apply_Q(mesh, dofs, w0, v, bounds)
    assert np.allclose(p.linear_coeffs + q.linear_coeffs, v.linear_coeffs, atol=1e-15)
    assert np.all(q.const_coeffs == 0.0)
    assert np.array_equal(p.const_coeffs, w0)


def test_dirichlet_nodes_untouched():
    rng = np.random.default_rng(9)
    mesh = build_structured(4, 4)
    dofs = DofMap.from_mesh(mesh)
    w0 = rng.normal(size=mesh.num_elements)
    v = random_function(mesh, rng, scale=10.0)
    p = apply_P(mesh, dofs, w0, v, (0.0, 1.0))
    bdry = mesh.boundary_vertex
    assert np.array_equal(p.linear_coeffs[bdry], v.linear_coeffs[bdry])


def test_interior_vertex_values_bounded_when_feasible():
    rng = np.random.default_rng(17)
    mesh = build_structured(4, 4)
    dofs = DofMap.from_mesh(mesh)
    a, b = 0.0, 1.0
    # constants well inside the window guarantee feasibility
    w0 = 0.5 + 0.2 * rng.uniform(-1.0, 1.0, size=mesh.num_elements)
    ext = patch_extremes(mesh, w0, dofs)
    feasible, _, slack = feasibility_check(ext, (a, b))
    assert feasible and slack >= 0.0
    v = random_function(mesh, rng, scale=5.0)
    p = apply_P(mesh, dofs, w0, v, (a, b))
    vals = element_vertex_values(mesh, p)
    interior = ~mesh.boundary_vertex[mesh.triangles]
    assert np.all(vals[interior] >= a - 1e-14)
    assert np.all(vals[interior] <= b + 1e-14)


def test_feasibility_when_constants_small():
    # |w0|_inf < (b - a)/2 around the midpoint always leaves a nonempty window
    rng = np.random.default_rng(23)
    mesh = build_structured(5, 3)
    dofs = DofMap.from_mesh(mesh)
    a, b = -1.0, 1.0
    for _ in range(50):
        w0 = rng.uniform(-0.99, 0.99, size=mesh.num_elements)
        feasible, _, slack = feasibility_check(patch_extremes(mesh, w0, dofs), (a, b))
        assert feasible
        assert slack >= 0.0


def test_feasibility_reports_worst_node():
    mesh = build_structured(2, 2)
    dofs = DofMap.from_mesh(mesh)
    w0 = np.zeros(mesh.num_elements)
    # a spread wider than the window makes the (single interior) node infeasible
    w0[0] = -2.0
    w0[1] = 2.0
    feasible, worst, slack = feasibility_check(
        patch_extremes(mesh, w0, dofs), (0.0, 1.0)
    )
    assert not feasible
    assert worst == 0
    assert slack == pytest.approx(1.0 - 4.0)


def test_feasibility_empty():
    ext = patch_extremes(build_structured(1, 1), np.zeros(2), DofMap.from_mesh(build_structured(1, 1)))
    feasible, worst, slack = feasibility_check(ext, (0.0, 1.0))
    assert feasible and worst == -1 and slack == np.inf


def test_zero_function_fixed_point_of_P():
    mesh = build_structured(3, 3)
    dofs = DofMap.from_mesh(mesh)
    z = zero_function(mesh)
    p = apply_P(mesh, dofs, np.zeros(mesh.num_elements), z, (-1.0, 1.0))
    assert np.all(p.linear_coeffs == 0.0)
    assert np.all(p.const_coeffs == 0.0)
