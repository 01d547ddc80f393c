import numpy as np
import pytest
import scipy.sparse as sp

import egbp.analysis
from egbp.analysis import (
    bound_violation,
    condition_number,
    conservation_report,
    eoc,
    error_h1_linear,
    error_l2,
    fit_rate,
    jump_norm,
)
from egbp.assembly import ProblemSpec, assemble_system
from egbp.fespace import DofMap, EGFunction
from egbp.mesh import build_structured, refine_uniform
from egbp.solver import solve_standard_eg
from oracles import broken_poincare_constant, comparison_bound, interpolate_lagrange, zero_function


def make_spec(**kw):
    base = dict(epsilon=1.0, mu=1.0, gamma=10.0, beta=2, alpha=1.0)
    base.update(kw)
    return ProblemSpec(**base)


def test_error_l2_zero_for_interpolated_linear():
    mesh = refine_uniform(build_structured(3, 2))
    g = lambda x, y: 2.0 * x - y + 0.25
    uh = interpolate_lagrange(mesh, g)
    assert error_l2(mesh, g, uh) <= 1e-14


def test_error_l2_against_hand_integral():
    # ||x^2||_L2 on the unit square: sqrt(1/5); degree-4 quadrature is exact
    mesh = build_structured(4, 4)
    uh = zero_function(mesh)
    assert error_l2(mesh, lambda x, y: x**2, uh) == pytest.approx(
        np.sqrt(0.2), rel=1e-13
    )


def test_error_l2_includes_constants():
    mesh = build_structured(2, 2)
    uh = EGFunction(np.zeros(9), np.full(8, 3.0))
    # ||3||_L2 over the unit square = 3
    assert error_l2(mesh, lambda x, y: 0.0 * x, uh) == pytest.approx(3.0, rel=1e-13)


def test_error_h1_constant_gradient():
    mesh = build_structured(3, 3)
    uh = zero_function(mesh)
    grad = lambda x, y: (1.0 + 0.0 * x, 2.0 + 0.0 * x)
    assert error_h1_linear(mesh, grad, uh) == pytest.approx(np.sqrt(5.0), rel=1e-13)


def test_error_h1_ignores_constants():
    mesh = build_structured(3, 3)
    rng = np.random.default_rng(0)
    a = zero_function(mesh)
    b = EGFunction(np.zeros(mesh.num_vertices), rng.normal(size=mesh.num_elements))
    grad = lambda x, y: (x, y)
    assert error_h1_linear(mesh, grad, a) == error_h1_linear(mesh, grad, b)


def test_jump_norm_hand_oracle_two_triangles():
    mesh = build_structured(1, 1)
    eps, mu = 1e-2, 2.0
    spec = make_spec(epsilon=eps, mu=mu)
    v0 = np.zeros(2)
    left = int(np.argmin(mesh.vertices[mesh.triangles].mean(axis=1)[:, 0]))
    v0[left] = 1.0
    # diagonal facet h=sqrt(2): weight eps + 2 mu, jump 1;
    # two boundary facets of the unit-valued element, h=1: weight eps + mu
    expected = np.sqrt((eps + 2.0 * mu) + 2.0 * (eps + mu))
    assert jump_norm(mesh, spec, v0) == pytest.approx(expected, rel=1e-13)
    # a global constant jumps only on the four boundary facets
    assert jump_norm(mesh, spec, np.ones(2)) == pytest.approx(
        np.sqrt(4.0 * (eps + mu)), rel=1e-13
    )


def test_jump_norm_zero_for_global_constant():
    # no interior facet contributes: only the 12 boundary facets (h = 1/3)
    mesh = build_structured(3, 3)
    spec = make_spec()
    v0 = np.full(mesh.num_elements, 4.0)
    boundary = 12 * (spec.epsilon + spec.mu / 9.0)
    assert jump_norm(mesh, spec, v0) == pytest.approx(4.0 * np.sqrt(boundary), rel=1e-13)


def test_eoc_values():
    assert eoc(4.0, 1.0) == pytest.approx(2.0)
    assert eoc(1.0, 0.5) == pytest.approx(1.0)
    assert np.isnan(eoc(0.0, 1.0))
    assert np.isnan(eoc(1.0, 0.0))


def test_fit_rate_exact_geometric():
    vals = [1.0, 0.25, 0.0625, 0.015625, 0.00390625]
    assert fit_rate(vals) == pytest.approx(2.0, abs=1e-12)
    assert fit_rate([8.0, 1.0]) == pytest.approx(3.0, abs=1e-12)
    assert np.isnan(fit_rate([1.0]))
    assert np.isnan(fit_rate([1.0, -1.0, 0.5]))


def test_comparison_bound_nonnegative_data():
    spec = make_spec(mu=2.0, f=lambda x, y: 4.0 + 0.0 * x)
    assert comparison_bound(spec) == (0.0, 2.0)


def test_comparison_bound_signed_data():
    spec = make_spec(mu=1.0, f=lambda x, y: -1.0 + 0.0 * x)
    assert comparison_bound(spec) == (-1.0, 1.0)


def test_comparison_bound_dirichlet_dominates():
    spec = make_spec(mu=1.0, f=lambda x, y: 0.5 + 0.0 * x, u_D=lambda x, y: 3.0 + 0.0 * x)
    assert comparison_bound(spec) == (0.0, 3.0)


def test_comparison_bound_zero_data():
    spec = make_spec(f=lambda x, y: 0.0 * x)
    assert comparison_bound(spec) == (0.0, 0.0)


def test_condition_number_identity_and_diagonal():
    assert condition_number(sp.eye(10, format="csr")) == pytest.approx(1.0)
    A = sp.diags([1.0, 9.0]).tocsr()
    assert condition_number(A) == pytest.approx(9.0, rel=1e-12)


def test_condition_number_sparse_path(monkeypatch):
    A = sp.diags([1.0, 2.0, 3.0, 4.0, 100.0]).tocsr()
    monkeypatch.setattr(egbp.analysis, "_DENSE_CUTOFF", 1)
    assert condition_number(A) == pytest.approx(100.0, rel=1e-5)


def test_condition_number_sparse_path_deterministic(monkeypatch):
    n = 400
    lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    A = (lap + sp.diags(np.linspace(0.01, 1.0, n))).tocsr()
    dense = condition_number(A)
    monkeypatch.setattr(egbp.analysis, "_DENSE_CUTOFF", 1)
    first = condition_number(A)
    assert all(condition_number(A) == first for _ in range(3))
    assert first == pytest.approx(dense, rel=1e-5)


def test_condition_number_uses_magnitudes():
    A = sp.diags([-0.5, 1.0, 8.0]).tocsr()
    assert condition_number(A) == pytest.approx(16.0, rel=1e-12)


def test_condition_number_singular_raises():
    with pytest.raises(ValueError):
        condition_number(sp.diags([0.0, 1.0]).tocsr())


def test_conservation_report_standard_eg():
    mesh = build_structured(4, 4)
    spec = make_spec(epsilon=1e-3, f=lambda x, y: 1.0 + 0.0 * x)
    dofs = DofMap.from_mesh(mesh)
    system = assemble_system(mesh, spec, dofs)
    u = solve_standard_eg(mesh, spec, dofs, system)
    r = conservation_report(mesh, system, u)
    assert np.abs(r).max() <= 1e-10 * np.linalg.norm(system.b0)


def test_conservation_report_zero_solution():
    mesh = build_structured(3, 3)
    spec = make_spec(f=lambda x, y: 0.0 * x)
    dofs = DofMap.from_mesh(mesh)
    system = assemble_system(mesh, spec, dofs)
    r = conservation_report(mesh, system, zero_function(mesh))
    assert np.all(r == 0.0)


def test_bound_violation_counts():
    mesh = build_structured(1, 1)
    v = EGFunction(np.array([0.5, 0.5, 0.5, 1.2]), np.array([0.0, -0.6]))
    # element containing vertex 3 (value 1.2) violates the upper bound once;
    # the element with constant -0.6 pushes its three vertex values below 0
    mn, mx, count = bound_violation(mesh, v, (0.0, 1.0), tol=0.0)
    vals = v.linear_coeffs[mesh.triangles] + v.const_coeffs[:, None]
    assert mn == pytest.approx(vals.min())
    assert mx == pytest.approx(vals.max())
    assert count == int(np.sum((vals < 0.0) | (vals > 1.0)))
    assert count > 0


def test_bound_violation_tolerance():
    mesh = build_structured(1, 1)
    v = EGFunction(np.zeros(4), np.array([-1e-12, 1.0 + 1e-12 - 1.0]))
    _, _, strict = bound_violation(mesh, v, (0.0, 1.0), tol=0.0)
    _, _, lax = bound_violation(mesh, v, (0.0, 1.0), tol=1e-10)
    assert strict >= 1
    assert lax == 0


def test_broken_poincare_positive_and_stable():
    coarse = build_structured(2, 2)
    fine = refine_uniform(coarse)
    c0 = broken_poincare_constant(coarse)
    c1 = broken_poincare_constant(fine)
    assert c0 > 0.0 and np.isfinite(c0)
    assert c1 <= 1.1 * c0
