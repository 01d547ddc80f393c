import math

import numpy as np
import pytest
import scipy.linalg

from egbp.assembly import (
    ProblemSpec,
    _assemble_full,
    _grads_and_areas,
    assemble_M_J,
    assemble_system,
    export_matrix,
    p1_mass_matrix,
)
from egbp.fespace import DofMap, dirichlet_lift
from egbp.mesh import _build_mesh, build_structured, refine_uniform

from oracles import dense_bilinear_oracle


def make_spec(**kw):
    base = dict(epsilon=1.0, mu=1.0, gamma=10.0, beta=4, alpha=1.0)
    base.update(kw)
    return ProblemSpec(**base)


def test_reference_triangle_stiffness():
    mesh = _build_mesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]])
    )
    grads, area = _grads_and_areas(mesh)
    K = area[0] * grads[0] @ grads[0].T
    expected = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    assert np.allclose(K, expected, atol=1e-14)


def test_reference_triangle_mass():
    mesh = _build_mesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]])
    )
    M = p1_mass_matrix(mesh).toarray()
    expected = 0.5 / 12.0 * (np.ones((3, 3)) + np.eye(3))
    assert np.allclose(M, expected, atol=1e-15)


@pytest.mark.parametrize(
    "eps,mu,gamma,beta",
    [(1.0, 1.0, 1.0, 1), (1.0, 1.0, 10.0, 4), (1e-3, 2.0, 5.0, 2), (1e-6, 1.0, 10.0, 3)],
)
def test_assembly_matches_dense_oracle_two_triangles(eps, mu, gamma, beta):
    mesh = build_structured(1, 1)
    spec = make_spec(epsilon=eps, mu=mu, gamma=gamma, beta=beta)
    A = _assemble_full(mesh, spec).toarray()
    O = dense_bilinear_oracle(mesh, spec)
    assert np.abs(A - O).max() <= 1e-12 * np.abs(O).max()


def test_assembly_matches_dense_oracle_2x2():
    mesh = build_structured(2, 2)
    spec = make_spec(gamma=3.0, beta=2)
    A = _assemble_full(mesh, spec).toarray()
    O = dense_bilinear_oracle(mesh, spec)
    assert np.abs(A - O).max() <= 1e-12 * np.abs(O).max()


def test_M_J_example_two_triangles():
    mesh = build_structured(1, 1)
    M, J = assemble_M_J(mesh)
    assert np.allclose(M.toarray(), np.diag([0.5, 0.5]), atol=1e-15)
    s = np.sqrt(2.0)
    expected = np.array([[s + 2.0, -s], [-s, s + 2.0]])
    assert np.allclose(J.toarray(), expected, atol=1e-14)


def test_penalty_linear_in_gamma():
    mesh = build_structured(2, 2)
    A10 = _assemble_full(mesh, make_spec(gamma=10.0)).toarray()
    A20 = _assemble_full(mesh, make_spec(gamma=20.0)).toarray()
    A30 = _assemble_full(mesh, make_spec(gamma=30.0)).toarray()
    assert np.allclose(A30 - A20, A20 - A10, atol=1e-12)


def test_matrix_symmetric():
    mesh = refine_uniform(build_structured(3, 2))
    A = _assemble_full(mesh, make_spec(epsilon=1e-3, gamma=7.0, beta=3))
    diff = (A - A.T).toarray()
    assert np.abs(diff).max() <= 1e-14 * np.abs(A.toarray()).max()


@pytest.mark.parametrize("beta", [1, 2, 3, 4])
def test_constrained_system_spd_gamma10(beta):
    mesh = build_structured(4, 4)
    spec = make_spec(epsilon=1e-2, gamma=10.0, beta=beta)
    system = assemble_system(mesh, spec, DofMap.from_mesh(mesh))
    eig = scipy.linalg.eigvalsh(system.full_matrix().toarray())
    assert eig[0] > 0.0


def test_a11_independent_of_beta():
    mesh = build_structured(4, 4)
    mats = []
    for beta in (1, 2, 4):
        system = assemble_system(mesh, make_spec(beta=beta), DofMap.from_mesh(mesh))
        mats.append(system.A11.toarray())
    assert np.array_equal(mats[0], mats[1])
    assert np.array_equal(mats[0], mats[2])


def test_stabilizer_diagonal_formula():
    mesh = build_structured(3, 2, (0.0, 0.0, 3.0, 1.0))
    dofs = DofMap.from_mesh(mesh)
    spec = make_spec(epsilon=1e-4, mu=2.0, alpha=0.5)
    system = assemble_system(mesh, spec, dofs)
    h_i = mesh.h_vertex[dofs.interior_vertex_ids]
    assert np.allclose(system.S1, 0.5 * (1e-4 + 2.0 * h_i**2), rtol=1e-14)


def test_rhs_constant_source():
    mesh = build_structured(2, 2)
    dofs = DofMap.from_mesh(mesh)
    spec = make_spec(f=lambda x, y: 2.0 + 0.0 * x)
    system = assemble_system(mesh, spec, dofs)
    areas = mesh.element_areas()
    assert np.allclose(system.b0, 2.0 * areas, rtol=1e-13)
    for k, i in enumerate(dofs.interior_vertex_ids):
        patch = np.flatnonzero((mesh.triangles == i).any(axis=1))
        assert system.b1[k] == pytest.approx(2.0 * areas[patch].sum() / 3.0, rel=1e-13)


def test_rhs_lift_action():
    mesh = build_structured(3, 3)
    dofs = DofMap.from_mesh(mesh)
    g = lambda x, y: 1.0 + 2.0 * x - y
    spec = make_spec(f=lambda x, y: 0.0 * x, u_D=g)
    lift = dirichlet_lift(mesh, g)
    system = assemble_system(mesh, spec, dofs, lift)
    # b = -A (lift), restricted: reproduce by hand from the full operator
    lvec = np.concatenate([lift.linear_coeffs, np.zeros(mesh.num_elements)])
    full = _assemble_full(mesh, spec) @ lvec
    nv = mesh.num_vertices
    assert np.allclose(system.b1, -full[dofs.interior_vertex_ids], atol=1e-13)
    assert np.allclose(system.b0, -full[nv + dofs.element_ids], atol=1e-13)


def test_centroid_quadrature_constant_source_exact():
    mesh = build_structured(2, 2)
    sys_a = assemble_system(mesh, make_spec(f=lambda x, y: 3.0 + 0.0 * x))
    sys_b = assemble_system(
        mesh, make_spec(f=lambda x, y: 3.0 + 0.0 * x, f_quadrature="centroid")
    )
    assert np.allclose(sys_a.b0, sys_b.b0, rtol=1e-13)
    assert np.allclose(sys_a.b1, sys_b.b1, rtol=1e-13)


def test_nonfinite_source_rejected():
    mesh = build_structured(2, 2)
    with pytest.raises(ValueError):
        assemble_system(mesh, make_spec(f=lambda x, y: np.full_like(x, np.nan)))


def test_non_vectorized_source_fails_loudly():
    # scalar-only data is an error, not a reason to evaluate point by point
    mesh = build_structured(2, 2)
    with pytest.raises(TypeError):
        assemble_system(mesh, make_spec(f=lambda x, y: math.sin(x) * math.sin(y)))


@pytest.mark.parametrize(
    "kw",
    [
        dict(epsilon=0.0),
        dict(mu=-1.0),
        dict(gamma=0.0),
        dict(beta=0),
        dict(beta=1.5),
        dict(alpha=-0.1),
        dict(omega=0.0),
        dict(omega=1.5),
        dict(bounds=(1.0, 0.0)),
        dict(f_quadrature="bogus"),
    ],
)
def test_spec_validation(kw):
    with pytest.raises(ValueError):
        make_spec(**kw)


def test_export_matrix_roundtrip(tmp_path):
    mesh = build_structured(2, 2)
    system = assemble_system(mesh, make_spec())
    path = tmp_path / "A.txt"
    export_matrix(system.A11, path)
    rows = np.loadtxt(path)
    dense = np.zeros(system.A11.shape)
    for r, c, v in np.atleast_2d(rows):
        dense[int(r), int(c)] = v
    assert np.array_equal(dense, system.A11.toarray())
    export_matrix(system.A11, tmp_path / "B.txt")
    assert (tmp_path / "A.txt").read_bytes() == (tmp_path / "B.txt").read_bytes()
