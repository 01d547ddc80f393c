"""Randomized property suites (>= 1000 trials each) on small meshes."""

from types import SimpleNamespace

import numpy as np
import pytest

from egbp.assembly import ProblemSpec, _grads_and_areas, assemble_system
from egbp.fespace import DofMap, EGFunction
from egbp.limiter import apply_P, patch_extremes, truncate_values
from egbp.mesh import build_structured, refine_uniform

from oracles import apply_Q, assemble_full, dense_bilinear_oracle, element_vertex_values

N_TRIALS = 1000

MESH = build_structured(4, 4)
DOFS = DofMap.from_mesh(MESH)
MESHES = [build_structured(2, 2), build_structured(4, 3), build_structured(8, 8)]


def _rand_setting(rng, mesh, dofs):
    w0 = rng.normal(scale=rng.uniform(0.01, 10.0), size=mesh.num_elements)
    bounds = tuple(sorted(rng.normal(scale=2.0, size=2)))
    ext = patch_extremes(mesh, w0, dofs)
    return w0, bounds, ext


def test_limiter_identity_suite():
    rng = np.random.default_rng(100)
    for trial in range(N_TRIALS):
        mesh, dofs = MESH, DOFS
        w0, bounds, _ = _rand_setting(rng, mesh, dofs)
        v = EGFunction(
            rng.normal(scale=3.0, size=mesh.num_vertices),
            rng.normal(size=mesh.num_elements),
        )
        p = apply_P(mesh, dofs, w0, v, bounds)
        q = apply_Q(mesh, dofs, w0, v, bounds)
        assert np.allclose(
            p.linear_coeffs + q.linear_coeffs, v.linear_coeffs, atol=1e-13
        ), "identity failed at trial %d" % trial


def test_limiter_idempotence_suite():
    rng = np.random.default_rng(101)
    for trial in range(N_TRIALS):
        mesh, dofs = MESH, DOFS
        w0, bounds, ext = _rand_setting(rng, mesh, dofs)
        v1 = rng.normal(scale=5.0, size=dofs.n_interior)
        once = truncate_values(v1, ext, bounds)
        twice = truncate_values(once, ext, bounds)
        assert np.array_equal(once, twice), "idempotence failed at trial %d" % trial


def test_limiter_lipschitz_suite():
    rng = np.random.default_rng(102)
    for trial in range(N_TRIALS):
        mesh, dofs = MESH, DOFS
        w0, bounds, ext = _rand_setting(rng, mesh, dofs)
        v = rng.normal(scale=5.0, size=dofs.n_interior)
        r = rng.normal(scale=5.0, size=dofs.n_interior)
        pv = truncate_values(v, ext, bounds)
        pr = truncate_values(r, ext, bounds)
        assert np.all(
            np.abs(pv - pr) <= np.abs(v - r) + 1e-15
        ), "1-Lipschitz failed at trial %d" % trial


def test_stabilizer_sign_suite():
    # s_h([Qr] - [Qv], [Pr] - [Pv]) >= 0 for the diagonal stabilizer
    spec = ProblemSpec(epsilon=1e-3, mu=1.0, gamma=10.0, beta=4, alpha=1.0)
    system = assemble_system(MESH, spec, DOFS)
    rng = np.random.default_rng(103)
    for trial in range(N_TRIALS):
        w0, bounds, ext = _rand_setting(rng, MESH, DOFS)
        v = rng.normal(scale=5.0, size=DOFS.n_interior)
        r = rng.normal(scale=5.0, size=DOFS.n_interior)
        pv, pr = truncate_values(v, ext, bounds), truncate_values(r, ext, bounds)
        qv, qr = v - pv, r - pr
        val = float(np.sum(system.S1 * (qr - qv) * (pr - pv)))
        scale = float(np.sum(system.S1 * (np.abs(qr - qv) * np.abs(pr - pv)))) + 1.0
        assert val >= -1e-14 * scale, "sign property failed at trial %d" % trial


def test_strong_monotonicity_suite():
    # pairing of the clamped operator A11 P + S1 Q is monotone, with
    # equality only at equal arguments
    spec = ProblemSpec(epsilon=1e-2, mu=1.0, gamma=10.0, beta=2, alpha=1.0)
    system = assemble_system(MESH, spec, DOFS)
    A11 = system.A11
    rng = np.random.default_rng(104)
    for trial in range(N_TRIALS):
        w0, bounds, ext = _rand_setting(rng, MESH, DOFS)
        v = rng.normal(scale=5.0, size=DOFS.n_interior)
        if trial % 7 == 0:
            r = v.copy()
        else:
            r = rng.normal(scale=5.0, size=DOFS.n_interior)
        pv, pr = truncate_values(v, ext, bounds), truncate_values(r, ext, bounds)
        Tv = A11 @ pv + system.S1 * (v - pv)
        Tr = A11 @ pr + system.S1 * (r - pr)
        d = v - r
        pairing = float((Tv - Tr) @ d)
        scale = float(np.linalg.norm(Tv - Tr) * np.linalg.norm(d)) + 1.0
        assert pairing >= -1e-12 * scale, "monotonicity failed at trial %d" % trial
        if np.array_equal(v, r):
            assert pairing == 0.0
        elif np.abs(d).max() > 1e-8:
            # strictness: distinct arguments give a strictly positive pairing
            assert pairing > 0.0, "strictness failed at trial %d" % trial


def test_continuous_functions_have_no_interior_jumps():
    # side traces of a continuous piecewise linear agree on every interior
    # facet, evaluated independently from both incident elements
    rng = np.random.default_rng(105)
    per_mesh = N_TRIALS // len(MESHES) + 1
    for mesh in MESHES:
        interior = np.flatnonzero(mesh.facet_right >= 0)
        for _ in range(per_mesh):
            v = EGFunction(
                rng.normal(scale=4.0, size=mesh.num_vertices),
                np.zeros(mesh.num_elements),
            )
            vals = element_vertex_values(mesh, v)
            for F in interior:
                L, R = mesh.facet_left[F], mesh.facet_right[F]
                for vid in mesh.facet_vertices[F]:
                    kL = list(mesh.triangles[L]).index(vid)
                    kR = list(mesh.triangles[R]).index(vid)
                    assert vals[L, kL] == vals[R, kR]


def _poincare_ratio(mesh, v0):
    area = _grads_and_areas(mesh)[1]
    norm = np.sqrt(np.sum(area * v0**2))
    interior = mesh.facet_right >= 0
    semi2 = np.sum(
        (v0[mesh.facet_left[interior]] - v0[mesh.facet_right[interior]]) ** 2
    )
    semi2 += np.sum(v0[mesh.facet_left[~interior]] ** 2)
    return norm / np.sqrt(semi2)


def test_broken_poincare_constant_stable_under_refinement():
    rng = np.random.default_rng(106)
    coarse = build_structured(4, 4)
    fine = refine_uniform(coarse)
    max_coarse = 0.0
    max_fine = 0.0
    for _ in range(N_TRIALS):
        v0 = rng.normal(size=coarse.num_elements)
        max_coarse = max(max_coarse, _poincare_ratio(coarse, v0))
        v0 = rng.normal(size=fine.num_elements)
        max_fine = max(max_fine, _poincare_ratio(fine, v0))
    assert max_fine <= 1.1 * max_coarse


def test_assembly_matches_oracle_random_parameters():
    # the bilinear form is affine in (epsilon, mu, gamma) at fixed beta;
    # a handful of oracle evaluations parametrize every coefficient set,
    # which the vectorized assembly must then match entry by entry
    mesh = build_structured(1, 1)

    def oracle(eps, mu, gamma, beta):
        return dense_bilinear_oracle(
            mesh, SimpleNamespace(epsilon=eps, mu=mu, gamma=gamma, beta=beta)
        )

    KC = oracle(1.0, 0.0, 0.0, 1)  # stiffness + consistency terms
    M = oracle(0.0, 1.0, 0.0, 1)  # mass
    pen_eps = {}
    pen_mu = {}
    for beta in (1, 2, 3, 4):
        pen_eps[beta] = oracle(1.0, 0.0, 1.0, beta) - KC
        pen_mu[beta] = oracle(0.0, 1.0, 1.0, beta) - M

    rng = np.random.default_rng(107)
    for trial in range(N_TRIALS):
        eps = 10.0 ** rng.uniform(-7, 1)
        mu = 10.0 ** rng.uniform(-2, 2)
        gamma = 10.0 ** rng.uniform(-1, 2)
        beta = int(rng.integers(1, 5))
        spec = ProblemSpec(epsilon=eps, mu=mu, gamma=gamma, beta=beta, alpha=1.0)
        A = assemble_full(mesh, spec).toarray()
        O = (
            eps * KC
            + mu * M
            + gamma * (eps * pen_eps[beta] + mu * pen_mu[beta])
        )
        err = np.abs(A - O).max()
        assert err <= 1e-12 * np.abs(O).max(), (
            "oracle mismatch %.3e at trial %d" % (err, trial)
        )


def test_feasibility_sufficient_condition_search():
    # randomized search for a counterexample to the sufficient feasibility
    # criterion ||w0||_inf < (b - a)/2 must find none
    from egbp.limiter import feasibility_check

    rng = np.random.default_rng(108)
    for _ in range(N_TRIALS):
        a = rng.normal()
        b = a + abs(rng.normal()) + 1e-6
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        w0 = mid + rng.uniform(-0.999 * half, 0.999 * half, size=MESH.num_elements)
        assert feasibility_check(patch_extremes(MESH, w0, DOFS), (a, b)) >= 0.0
