import gc
import itertools
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import egbp.assembly
from egbp.assembly import ProblemSpec, assemble_system, penalty_stiffness
from egbp.cli import StudyConfig, layer_source, run_study, smooth_exact
from egbp.fespace import DofMap, dirichlet_lift
from egbp.mesh import _build_mesh, build_structured, refine_uniform

from oracles import (
    all_vertices,
    assemble_full,
    assemble_M_J,
    coo_assembly_oracle,
    dense_bilinear_oracle,
    p1_mass_matrix,
)


def make_spec(**kw):
    base = dict(epsilon=1.0, mu=1.0, gamma=10.0, beta=4, alpha=1.0)
    base.update(kw)
    return ProblemSpec(**base)


def test_reference_triangle_stiffness():
    mesh = _build_mesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]])
    )
    K = mesh.area[0] * mesh.grads[0] @ mesh.grads[0].T
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
    A = assemble_full(mesh, spec).toarray()
    O = dense_bilinear_oracle(mesh, spec)
    assert np.abs(A - O).max() <= 1e-12 * np.abs(O).max()


def test_assembly_matches_dense_oracle_2x2():
    mesh = build_structured(2, 2)
    spec = make_spec(gamma=3.0, beta=2)
    A = assemble_full(mesh, spec).toarray()
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
    A10 = assemble_full(mesh, make_spec(gamma=10.0)).toarray()
    A20 = assemble_full(mesh, make_spec(gamma=20.0)).toarray()
    A30 = assemble_full(mesh, make_spec(gamma=30.0)).toarray()
    assert np.allclose(A30 - A20, A20 - A10, atol=1e-12)


def test_matrix_symmetric():
    mesh = refine_uniform(build_structured(3, 2))
    A = assemble_full(mesh, make_spec(epsilon=1e-3, gamma=7.0, beta=3))
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
    # The penalty (gamma, beta) and the stabilizer (alpha) act only on the
    # discontinuous part: of the blocks, only A00 and S1 depend on them.
    # Each system is assembled on a fresh mesh, so none reuses kept values.
    u, _, make_f = smooth_exact()
    spec = make_spec(epsilon=1e-3, f=make_f(1e-3, 1.0), u_D=lambda x, y: 1.0 + x * y)
    systems = {
        (beta, alpha): assemble_system(_perturbed_mesh(10), replace(spec, beta=beta, alpha=alpha))
        for beta in (1, 4)
        for alpha in (0.0, 1.0)
    }
    first = systems[1, 0.0]
    for (beta, alpha), system in systems.items():
        for name in ("A11", "A10", "M1"):
            assert getattr(system, name).data.tobytes() == getattr(first, name).data.tobytes(), name
        for name in ("b1", "b0"):
            assert getattr(system, name).tobytes() == getattr(first, name).tobytes(), name
        assert (system.A00.data.tobytes() == first.A00.data.tobytes()) == (beta == 1)
        assert (system.S1.tobytes() == first.S1.tobytes()) == (alpha == 0.0)


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
    areas = mesh.area
    assert np.allclose(system.b0, 2.0 * areas, rtol=1e-13)
    for k, i in enumerate(dofs.interior_vertex_ids):
        patch = np.flatnonzero((mesh.triangles == i).any(axis=1))
        assert system.b1[k] == pytest.approx(2.0 * areas[patch].sum() / 3.0, rel=1e-13)


def test_rhs_lift_action():
    # The scheme is consistent with nonzero Dirichlet data: for a linear g,
    # -eps lap g + mu g = mu g, and the P1 interpolant of g with zero
    # constants solves the system.  Its boundary trace is the lift, which
    # the penalty and the symmetric consistency term leave to the
    # right-hand side: a_h([g_I; 0], v) = b(v) for every basis function v.
    mesh = _perturbed_mesh(4)
    dofs = DofMap.from_mesh(mesh)
    g = lambda x, y: 1.0 + 2.0 * x - y
    lift = dirichlet_lift(mesh, g)
    g_I = g(*mesh.vertices[dofs.interior_vertex_ids].T)
    for epsilon in (1.0, 1e-5):
        spec = make_spec(epsilon=epsilon, f=g, u_D=g)
        system = assemble_system(mesh, spec, dofs, lift)
        assert system.lift is lift and system.dofs is dofs
        # lift=None is the lift of spec.u_D
        assert np.array_equal(assemble_system(mesh, spec, dofs).lift, lift)
        r1, r0 = system.A11 @ g_I - system.b1, system.A10.T @ g_I - system.b0
        scale = abs(system.full_matrix()).max() * np.abs(g_I).max()
        assert np.abs(np.concatenate([r1, r0])).max() <= 1e-13 * scale


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
        dict(epsilon=np.nan),
        dict(mu=np.inf),
        dict(gamma=np.inf),
        dict(alpha=np.nan),
        dict(tol_outer=-1.0),
        dict(tol_outer=np.nan),
        dict(tol_outer=np.inf),
        dict(beta=2.5),
        dict(epsilon=-1.0),
        dict(mu=0.0),
        dict(omega=np.nan),
        dict(bounds=(np.nan, 1.0)),
        dict(bounds=(0.0, np.nan)),
        dict(beta=np.inf),
        dict(beta=np.nan),
    ],
)
def test_spec_validation(kw):
    with pytest.raises(ValueError):
        make_spec(**kw)


def test_spec_coerces_integral_counts_to_int():
    for beta in (2.0, np.float64(4.0)):
        spec = make_spec(beta=beta)
        assert spec.beta == beta and type(spec.beta) is int


def _levels(mesh, n):
    meshes = [mesh]
    for _ in range(n - 1):
        meshes.append(refine_uniform(meshes[-1]))
    return meshes


def _perturbed_mesh(seed):
    """12x12 mesh with randomly moved interior vertices, triangle rows
    permuted and each row rotated, built through _build_mesh."""
    rng = np.random.default_rng(seed)
    mesh = build_structured(12, 12)
    move = rng.uniform(-0.15, 0.15, mesh.vertices.shape) / 12.0
    vertices = mesh.vertices + np.where(mesh.boundary_vertex[:, None], 0.0, move)
    tri = mesh.triangles[rng.permutation(mesh.num_elements)]
    shift = rng.integers(3, size=tri.shape[0])
    tri = tri[np.arange(tri.shape[0])[:, None], (np.arange(3) + shift[:, None]) % 3]
    return _build_mesh(vertices, tri)


def _benchmark_cases():
    """(name, mesh, spec): the meshes and data of the smooth, layer and
    tol_sweep benchmark workloads (tol_sweep solves on layer's finest two)
    and a perturbed mesh."""
    u, _, make_f = smooth_exact()
    smooth = make_spec(epsilon=1e-5, beta=4, f=make_f(1e-5, 1.0), u_D=u)
    zero = lambda x, y: 0.0 * x
    layer = make_spec(epsilon=1e-7, beta=4, f=layer_source, u_D=zero, f_quadrature="centroid")
    coarse = build_structured(8, 4, (-1.0, 0.0, 1.0, 1.0))
    cases = [("smooth", m, smooth) for m in _levels(coarse, 5)]
    cases += [("layer", m, layer) for m in _levels(build_structured(12, 12), 4)]
    cases.append(("perturbed", _perturbed_mesh(7), replace(smooth, u_D=lambda x, y: 1.0 + x * y)))
    return [pytest.param(m, spec, id="%s-%d" % (name, m.num_elements)) for name, m, spec in cases]


@pytest.mark.parametrize("mesh, spec", _benchmark_cases())
def test_blocks_match_coo_oracle(mesh, spec):
    # Same pattern entry for entry; values differ only by summation order,
    # so each lies within 1e-14 of the sum of its terms' absolute values.
    # All-vertex dofs too: the boundary-facet terms of the P1 and coupling
    # blocks sit in boundary-vertex rows, which the interior blocks leave out.
    # An explicit zero lift leaves the load of f alone in b.
    lift = dirichlet_lift(mesh, spec.u_D)
    comparator = replace(spec, beta=1, alpha=0.0)
    for dofs, (spec_, lift_) in itertools.product(
        (DofMap.from_mesh(mesh), all_vertices(mesh)),
        ((spec, np.zeros(mesh.num_vertices)), (spec, lift), (comparator, lift)),
    ):
        system = assemble_system(mesh, spec_, dofs, lift_)
        ref = coo_assembly_oracle(mesh, spec_, dofs, lift_)
        for name in ("A11", "A10", "A00", "M1"):
            got, want, scale = getattr(system, name), ref[name], ref["scale"][name]
            assert got.shape == want.shape, name
            assert np.array_equal(got.indptr, want.indptr), name
            assert np.array_equal(got.indices, want.indices), name
            assert np.all(np.abs(got.data - want.data) <= 1e-14 * scale.data), name
        # the quadrature points move by an ulp (TRI_QP @ p): relative to ||b||
        for name in ("b1", "b0"):
            got, want = getattr(system, name), ref[name]
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), name


def _same_system(a, b):
    """True if the blocks, S1 and the right-hand sides of a and b agree byte for byte."""
    for name in ("A11", "A10", "A00", "M1"):
        x, y = getattr(a, name), getattr(b, name)
        if x.shape != y.shape:
            return False
        for part in ("data", "indices", "indptr"):
            u, v = getattr(x, part), getattr(y, part)
            if u.dtype != v.dtype or u.tobytes() != v.tobytes():
                return False
    return all(getattr(a, name).tobytes() == getattr(b, name).tobytes() for name in ("b1", "b0", "S1"))


def test_assembly_is_deterministic():
    mesh = _perturbed_mesh(3)
    u, _, make_f = smooth_exact()
    spec = make_spec(epsilon=1e-3, f=make_f(1e-3, 1.0), u_D=u)
    dofs = DofMap.from_mesh(mesh)
    first, second = (assemble_system(mesh, spec, dofs, dirichlet_lift(mesh, u)) for _ in range(2))
    assert _same_system(first, second)


def _split_triangle():
    """A triangle split at an inner point into three elements."""
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.9], [0.4, 0.3]])
    return _build_mesh(vertices, np.array([[0, 1, 3], [1, 2, 3], [2, 0, 3]]))


def test_vertex_opposite_two_edges_of_an_element():
    # element (0, 1, 3) meets vertex 2 across both of its edges at 3, so its
    # A10 column holds vertex 2 twice before the two values are summed into one entry
    mesh = _split_triangle()
    spec = make_spec(epsilon=0.1, gamma=3.0, beta=2)
    every = all_vertices(mesh)
    system = assemble_system(mesh, spec, every)
    ref = coo_assembly_oracle(mesh, spec, every, system.lift)
    for name in ("A11", "A10", "A00"):
        got, want = getattr(system, name), ref[name]
        assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)
        assert np.all(np.abs(got.data - want.data) <= 1e-14 * ref["scale"][name].data)
    O = dense_bilinear_oracle(mesh, spec)
    A = assemble_full(mesh, spec).toarray()
    assert np.abs(A - O).max() <= 1e-12 * np.abs(O).max()


@pytest.mark.parametrize("every", [False, True], ids=["interior", "all-vertices"])
@pytest.mark.parametrize("make_mesh", [lambda: _perturbed_mesh(5), _split_triangle], ids=["perturbed", "split"])
def test_stencil_reuse_matches_a_fresh_mesh(make_mesh, every):
    # The first assembly on a mesh builds its stencil and every later one
    # reuses it; each equals, byte for byte, an assembly on a fresh copy of
    # the mesh, whatever the coefficients, quadrature and lift.  So does
    # K_gamma, which reads the same vertex pattern.
    mesh = make_mesh()
    dofs = (all_vertices if every else DofMap.from_mesh)(mesh)
    u, _, make_f = smooth_exact()
    grid = itertools.product((1.0, 1e-6), (1.0, 0.25), (10.0, 3.0), (1, 4), (1.0, 0.0), ("degree4", "centroid"), (None, u))
    for eps, mu, gamma, beta, alpha, quadrature, u_D in grid:
        spec = make_spec(epsilon=eps, mu=mu, gamma=gamma, beta=beta, alpha=alpha, f=make_f(eps, mu), u_D=u_D, f_quadrature=quadrature)
        fresh = make_mesh()
        assert _same_system(assemble_system(mesh, spec, dofs), assemble_system(fresh, spec, dofs))
        K, K_fresh = penalty_stiffness(mesh, spec, dofs), penalty_stiffness(fresh, spec, dofs)
        assert all(getattr(K, p).tobytes() == getattr(K_fresh, p).tobytes() for p in ("data", "indices", "indptr"))


def test_a_custom_dofmap_gets_its_own_stencil():
    # Alternating interior and all-vertex dofs on one mesh: each assembly
    # equals one on a fresh copy of the mesh with the same dofs
    mesh, spec = _perturbed_mesh(2), make_spec(epsilon=1e-3, gamma=4.0, beta=3)
    interior, every = DofMap.from_mesh(mesh), all_vertices(mesh)
    for dofs in (interior, every, interior, every):
        system = assemble_system(mesh, spec, dofs)
        assert system.A11.shape == (dofs.n_interior,) * 2
        assert _same_system(system, assemble_system(_perturbed_mesh(2), spec, dofs))


def _count_value_passes(monkeypatch):
    """The list of the meshes that _form_values runs on from now on."""
    form_values, meshes = egbp.assembly._form_values, []

    def counted(mesh, *args):
        meshes.append(mesh)
        return form_values(mesh, *args)

    monkeypatch.setattr(egbp.assembly, "_form_values", counted)
    return meshes


@pytest.mark.parametrize("every", [False, True], ids=["interior", "all-vertices"])
def test_another_penalty_reuses_the_kept_values(every, monkeypatch):
    # beta = 4, another alpha, the comparator's beta = 1, then another gamma:
    # each system equals one on a fresh mesh, byte for byte.  The penalty
    # reaches the kept values only on boundary facets: interior dofs store
    # none of those entries and run one value pass, all-vertex dofs store
    # them and run one per (gamma, beta).
    mesh = _perturbed_mesh(8)
    dofs = (all_vertices if every else DofMap.from_mesh)(mesh)
    u, _, make_f = smooth_exact()
    spec = make_spec(epsilon=1e-3, f=make_f(1e-3, 1.0), u_D=lambda x, y: 1.0 + x * y)
    changes = (dict(), dict(alpha=0.0), dict(beta=1, alpha=0.0), dict(gamma=3.0, alpha=0.5))
    specs = [replace(spec, **change) for change in changes]
    fresh = [assemble_system(_perturbed_mesh(8), spec_, dofs) for spec_ in specs]
    runs = _count_value_passes(monkeypatch)
    for spec_, want in zip(specs, fresh):
        assert _same_system(assemble_system(mesh, spec_, dofs), want)
    assert len(runs) == (3 if every else 1)


def test_other_data_or_lift_run_the_value_pass_anew(monkeypatch):
    # epsilon, mu, the f object, the quadrature or the lift changed, the
    # lift also in place, in the caller's array: each is a new value pass,
    # and each system equals one on a fresh mesh, byte for byte
    mesh = _perturbed_mesh(9)
    u, _, make_f = smooth_exact()
    spec = make_spec(epsilon=1e-3, f=make_f(1e-3, 1.0))
    lift = dirichlet_lift(mesh, lambda x, y: 1.0 + x * y)
    i = np.flatnonzero(mesh.boundary_vertex)[5]
    moved = lift.copy()
    moved[i] += 0.5
    changes = [
        (replace(spec, epsilon=1e-2), lift),
        (replace(spec, mu=0.5), lift),
        (replace(spec, f=make_f(1e-3, 1.0)), lift),
        (replace(spec, f_quadrature="centroid"), lift),
        (spec, moved),
    ]
    fresh = [assemble_system(_perturbed_mesh(9), spec_, None, lift_) for spec_, lift_ in changes]
    runs = _count_value_passes(monkeypatch)
    for (spec_, lift_), want in zip(changes, fresh):
        assemble_system(mesh, spec, None, lift)
        before = len(runs)
        assert _same_system(assemble_system(mesh, spec_, None, lift_), want)
        assert len(runs) == before + 1
    caller = lift.copy()
    assemble_system(mesh, spec, None, caller)
    caller[i] += 0.5
    before = len(runs)
    assert _same_system(assemble_system(mesh, spec, None, caller), fresh[-1])
    assert len(runs) == before + 1


def test_a_layer_level_runs_one_value_pass(monkeypatch):
    # the bound-preserving solve and the comparator (beta = 1, alpha = 0) on one mesh
    runs = _count_value_passes(monkeypatch)
    report = run_study(StudyConfig(experiment="layer", levels=1))
    assert len(report.tables["layer"][1]) == len(report.tables["layer_standard"][1]) == 1
    assert len(runs) == 1


def test_blocks_changed_in_place_leave_the_next_assembly_alone(monkeypatch):
    # A system owns its values: scaling them in place changes no later
    # assembly, nor one at another beta that reuses the kept values.  The
    # index arrays it shares with the stencil are read-only.
    mesh, spec = _perturbed_mesh(4), make_spec(epsilon=1e-2)
    first = assemble_system(mesh, spec)
    for name in ("A11", "A10", "A00", "M1"):
        getattr(first, name).data *= 2.0
    for name in ("b1", "b0", "S1"):
        getattr(first, name)[:] *= 2.0
    assert _same_system(assemble_system(mesh, spec), assemble_system(_perturbed_mesh(4), spec))
    other = replace(spec, beta=1)
    want = assemble_system(_perturbed_mesh(4), other)
    runs = _count_value_passes(monkeypatch)
    assert _same_system(assemble_system(mesh, other), want)
    assert len(runs) == 0
    for name in ("A11", "A10", "A00"):
        with pytest.raises(ValueError):
            getattr(first, name).indices[0] = 0


def test_the_stencil_dies_with_its_mesh():
    # No reference cycle holds a stencil: with the cyclic collector off it
    # is freed once its mesh goes, while a system assembled on it lives on
    mesh = _perturbed_mesh(6)
    gc.disable()
    try:
        system = assemble_system(mesh, make_spec())
        stencil = weakref.ref(egbp.assembly._STENCILS[mesh])
        del mesh
        alive = stencil() is not None
    finally:
        gc.enable()
    assert not alive and system.A00.nnz > 0
