import math

import numpy as np
import pytest

from egbp.cli import main
from egbp.fespace import DofMap, EGFunction, dirichlet_lift
from egbp.mesh import build_structured, refine_uniform
from oracles import (
    element_vertex_values,
    evaluate,
    interpolate_lagrange,
    read_egfunction,
    record_cli_solves,
    zero_function,
)


def test_dofmap_counts():
    mesh = build_structured(4, 3)
    dofs = DofMap.from_mesh(mesh)
    assert dofs.n_interior == 3 * 2
    assert not np.any(mesh.boundary_vertex[dofs.interior_vertex_ids])
    for k, i in enumerate(dofs.interior_vertex_ids):
        assert dofs.vertex_to_interior[i] == k


def test_zero_function():
    mesh = build_structured(2, 2)
    z = zero_function(mesh)
    assert np.all(z.linear_coeffs == 0.0)
    assert np.all(z.const_coeffs == 0.0)
    assert z.linear_coeffs.shape == (9,)
    assert z.const_coeffs.shape == (8,)


def test_interpolation_reproduces_linears():
    mesh = refine_uniform(build_structured(3, 2, (0.0, 0.0, 2.0, 1.0)))
    g = lambda x, y: 3.0 * x - 2.0 * y + 0.5
    f = interpolate_lagrange(mesh, g)
    assert np.allclose(f.linear_coeffs, g(mesh.vertices[:, 0], mesh.vertices[:, 1]))
    assert np.all(f.const_coeffs == 0.0)
    # point evaluation is exact for an interpolated linear
    for T in [0, 3, 7]:
        centroid = mesh.vertices[mesh.triangles[T]].mean(axis=0)
        assert evaluate(mesh, f, T, centroid) == pytest.approx(
            g(*centroid), rel=1e-13
        )


def test_interpolation_rejects_nonfinite():
    mesh = build_structured(2, 2)
    with pytest.raises(ValueError):
        interpolate_lagrange(mesh, lambda x, y: np.where(x > 0.4, np.nan, 1.0))


def test_dirichlet_lift_zero_interior():
    mesh = build_structured(4, 4)
    lift = dirichlet_lift(mesh, lambda x, y: x + y)
    interior = ~mesh.boundary_vertex
    assert np.all(lift.linear_coeffs[interior] == 0.0)
    bx = mesh.vertices[mesh.boundary_vertex]
    assert np.allclose(
        lift.linear_coeffs[mesh.boundary_vertex], bx[:, 0] + bx[:, 1]
    )
    assert np.all(lift.const_coeffs == 0.0)
    # one array call equals the vertex-by-vertex scalar calls it replaced
    g = lambda x, y: 1.0 + 2.0 * x - 3.0 * x * y**2
    loop = [g(*mesh.vertices[i]) for i in np.flatnonzero(mesh.boundary_vertex)]
    assert np.array_equal(dirichlet_lift(mesh, g).linear_coeffs[mesh.boundary_vertex], loop)


def test_dirichlet_lift_rejects_scalar_only_data():
    # u_D is evaluated on arrays of boundary vertices, like the source f
    with pytest.raises(TypeError):
        dirichlet_lift(build_structured(2, 2), lambda x, y: math.sin(x) + math.cos(y))


def test_evaluate_includes_constants():
    mesh = build_structured(1, 1)
    f = EGFunction(np.zeros(4), np.array([2.5, -1.0]))
    c0 = mesh.vertices[mesh.triangles[0]].mean(axis=0)
    c1 = mesh.vertices[mesh.triangles[1]].mean(axis=0)
    assert evaluate(mesh, f, 0, c0) == pytest.approx(2.5)
    assert evaluate(mesh, f, 1, c1) == pytest.approx(-1.0)


def test_evaluate_outside_element_raises():
    mesh = build_structured(2, 2)
    f = zero_function(mesh)
    outside = mesh.vertices[mesh.triangles[0]].mean(axis=0) + np.array([10.0, 0.0])
    with pytest.raises(ValueError):
        evaluate(mesh, f, 0, outside)


def test_element_vertex_values():
    mesh = build_structured(2, 1)
    rng = np.random.default_rng(0)
    f = EGFunction(rng.normal(size=mesh.num_vertices), rng.normal(size=mesh.num_elements))
    vals = element_vertex_values(mesh, f)
    assert vals.shape == (mesh.num_elements, 3)
    for T in range(mesh.num_elements):
        for k, v in enumerate(mesh.triangles[T]):
            assert vals[T, k] == pytest.approx(f.linear_coeffs[v] + f.const_coeffs[T])


def test_function_io_roundtrip(monkeypatch, tmp_path):
    # the --emit-fields coefficients of a solve read back bit for bit
    solutions = record_cli_solves(monkeypatch)
    assert main(["custom", "--levels", "1", "--emit-fields", "--out", str(tmp_path)]) == 0
    path = tmp_path / "custom_level0.csv"
    assert b"\r" not in path.read_bytes()
    f, g = solutions[0].u_plus, read_egfunction(path)
    assert np.array_equal(f.linear_coeffs, g.linear_coeffs)
    assert np.array_equal(f.const_coeffs, g.const_coeffs)
