from dataclasses import fields

import numpy as np
import pytest

from egbp.mesh import Mesh, _build_mesh, build_structured, refine_uniform
from oracles import connectivity_oracle


def _cross2(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _patch(mesh, i):
    """Elements of the node patch omega_i, from the vertex->element CSR."""
    return mesh.patch_elements[mesh.patch_indptr[i] : mesh.patch_indptr[i + 1]]


def brute_force_edge_count(mesh):
    edges = set()
    for tri in mesh.triangles:
        for k in range(3):
            a, b = tri[k], tri[(k + 1) % 3]
            edges.add((min(a, b), max(a, b)))
    return len(edges)


def test_smallest_grid_counts():
    mesh = build_structured(1, 1)
    assert mesh.num_elements == 2
    assert mesh.num_vertices == 4
    assert mesh.num_facets == 5
    assert int(np.sum(mesh.facet_right >= 0)) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_square_grid_closed_forms(n):
    mesh = build_structured(n, n)
    assert mesh.num_elements == 2 * n * n
    assert mesh.num_vertices == (n + 1) ** 2
    assert mesh.num_facets == 3 * n * n + 2 * n
    assert mesh.num_facets == brute_force_edge_count(mesh)


def test_euler_relation():
    for nx, ny in [(1, 1), (2, 2), (3, 5), (8, 4)]:
        mesh = build_structured(nx, ny)
        assert mesh.num_vertices - mesh.num_facets + mesh.num_elements == 1


def test_invalid_arguments():
    with pytest.raises(ValueError):
        build_structured(0, 1)
    with pytest.raises(ValueError):
        build_structured(2, -1)
    with pytest.raises(ValueError):
        build_structured(2, 2, (0.0, 0.0, 0.0, 1.0))


@pytest.mark.parametrize("nx, ny", [(2.5, 2), (2, np.nan), (np.inf, 2)])
def test_non_integral_counts_rejected(nx, ny):
    # named in the error, not reported later as a degenerate mesh
    with pytest.raises(ValueError, match=r"subdivision counts must be integers, got \(%s, %s\)" % (nx, ny)):
        build_structured(nx, ny)


def test_integral_float_counts_build_the_integer_mesh():
    mesh = build_structured(3.0, np.float64(2.0))
    expected = build_structured(3, 2)
    assert (mesh.num_elements, mesh.num_vertices) == (12, 12)
    assert np.array_equal(mesh.vertices, expected.vertices)
    assert np.array_equal(mesh.triangles, expected.triangles)


def test_refine_counts_and_h():
    mesh = build_structured(1, 1)
    fine = refine_uniform(mesh)
    assert fine.num_elements == 8
    assert fine.num_vertices == 9
    assert fine.h == pytest.approx(mesh.h / 2.0, rel=1e-14)


def test_refinement_nests_vertices():
    mesh = build_structured(2, 3, (-1.0, 0.5, 2.0, 4.0))
    for _ in range(3):
        fine = refine_uniform(mesh)
        coarse_set = {tuple(v) for v in mesh.vertices}
        fine_set = {tuple(v) for v in fine.vertices}
        assert coarse_set <= fine_set
        # coarse vertices keep their indices at the front
        assert np.allclose(fine.vertices[: mesh.num_vertices], mesh.vertices)
        mesh = fine


def test_normals_unit_and_outward_of_owner():
    mesh = build_structured(3, 2)
    lengths = np.linalg.norm(mesh.facet_normal, axis=1)
    assert np.allclose(lengths, 1.0, atol=1e-14)
    centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    for F in range(mesh.num_facets):
        i, j = mesh.facet_vertices[F]
        midpoint = 0.5 * (mesh.vertices[i] + mesh.vertices[j])
        owner = mesh.facet_left[F]
        assert (midpoint - centroids[owner]) @ mesh.facet_normal[F] > 0.0
        if mesh.facet_right[F] >= 0:
            neighbor = mesh.facet_right[F]
            assert (midpoint - centroids[neighbor]) @ mesh.facet_normal[F] < 0.0


def test_areas_sum_to_rectangle():
    rect = (-2.0, 1.0, 3.0, 4.0)
    mesh = build_structured(4, 7, rect)
    area = (rect[2] - rect[0]) * (rect[3] - rect[1])
    assert np.sum(mesh.area) == pytest.approx(area, rel=1e-12)


def test_quasi_uniformity_structured():
    for nx, ny in [(2, 2), (8, 4), (5, 3)]:
        mesh = build_structured(nx, ny)
        assert mesh.h / mesh.h_elem.min() <= np.sqrt(2.0) + 1e-14


def test_h_vertex_is_patch_max():
    mesh = refine_uniform(build_structured(3, 2))
    for i in range(mesh.num_vertices):
        patch = _patch(mesh, i)
        assert mesh.h_vertex[i] == pytest.approx(np.max(mesh.h_elem[patch]))


def test_node_patch_center_of_2x2():
    mesh = build_structured(2, 2)
    center = int(np.argmin(np.linalg.norm(mesh.vertices - 0.5, axis=1)))
    patch = _patch(mesh, center)
    assert len(patch) == 6
    for T in patch:
        assert center in mesh.triangles[T]


def test_node_patch_cardinality_4x4():
    mesh = build_structured(4, 4)
    for i in np.flatnonzero(~mesh.boundary_vertex):
        assert 3 <= len(_patch(mesh, i)) <= 8


def test_refinement_deterministic():
    a = refine_uniform(build_structured(3, 3, (0.1, 0.2, 1.3, 2.4)))
    b = refine_uniform(build_structured(3, 3, (0.1, 0.2, 1.3, 2.4)))
    for name in ("vertices", "triangles", "element_facets"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_triangles_counter_clockwise():
    mesh = build_structured(4, 3, (0.0, 0.0, 2.0, 1.0))
    p = mesh.vertices[mesh.triangles]
    cross = _cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    assert np.all(cross > 0.0)


def test_interior_facets_have_two_elements():
    mesh = build_structured(3, 3)
    interior = mesh.facet_right >= 0
    assert int(np.sum(interior)) == mesh.num_facets - 12
    assert np.all(mesh.facet_left >= 0)


def _shuffled_mesh(seed):
    """Refined mesh with permuted triangle rows, each row rotated at random."""
    rng = np.random.default_rng(seed)
    mesh = refine_uniform(build_structured(4, 3, (-1.0, 0.0, 1.0, 0.6)))
    tri = mesh.triangles[rng.permutation(mesh.num_elements)]
    shift = rng.integers(3, size=tri.shape[0])
    tri = tri[np.arange(tri.shape[0])[:, None], (np.arange(3) + shift[:, None]) % 3]
    return _build_mesh(mesh.vertices, tri)


ORACLE_MESHES = {
    "structured_1x1": lambda: build_structured(1, 1),
    "structured_5x3": lambda: build_structured(5, 3, (0.1, 0.2, 1.3, 2.4)),
    "structured_4x4": lambda: build_structured(4, 4),
    "refined_twice": lambda: refine_uniform(refine_uniform(build_structured(3, 2))),
    "shuffled_0": lambda: _shuffled_mesh(0),
    "shuffled_1": lambda: _shuffled_mesh(1),
    "shuffled_refined": lambda: refine_uniform(_shuffled_mesh(2)),
}


@pytest.mark.parametrize("name", list(ORACLE_MESHES))
def test_build_mesh_matches_connectivity_oracle(name):
    mesh = ORACLE_MESHES[name]()
    ref = connectivity_oracle(mesh.vertices, mesh.triangles)
    for key in (
        "facet_vertices", "facet_left", "facet_right", "facet_length",
        "facet_normal", "element_facets", "boundary_vertex", "h_elem", "h_vertex",
    ):
        got = getattr(mesh, key)
        assert got.dtype == ref[key].dtype and got.tobytes() == ref[key].tobytes(), key
    assert mesh.patch_indptr[-1] == mesh.patch_elements.size == 3 * mesh.num_elements
    for i, patch in enumerate(ref["patches"]):
        assert np.array_equal(_patch(mesh, i), patch)
    # The shoelace sum rounds on the scale of the coordinates squared, not of |T|.
    scale = np.abs(mesh.vertices).max()
    assert np.abs(mesh.area - ref["area"]).max() <= 1e-15 * scale**2
    assert np.abs(mesh.centroid - ref["centroid"]).max() <= 1e-15 * scale
    err = np.abs(mesh.grads - ref["grads"]).max(axis=(1, 2))
    assert np.all(err <= 1e-12 / mesh.h_elem)
    assert mesh.area.shape == (mesh.num_elements,)
    assert mesh.grads.shape == (mesh.num_elements, 3, 2)
    assert mesh.centroid.shape == (mesh.num_elements, 2)


def test_mesh_arrays_are_read_only():
    mesh = refine_uniform(build_structured(3, 2))
    arrays = [f.name for f in fields(Mesh) if isinstance(getattr(mesh, f.name), np.ndarray)]
    assert {"vertices", "triangles", "area", "grads", "centroid"} <= set(arrays)
    for name in arrays:
        a = getattr(mesh, name)
        assert not a.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = a.flat[0]


def test_shuffled_mesh_owner_is_smallest_element():
    mesh = _shuffled_mesh(3)
    interior = mesh.facet_right >= 0
    assert np.all(mesh.facet_left[interior] < mesh.facet_right[interior])
    # (a, b) follow the owner's CCW order, so the normal points out of it
    centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    mid = mesh.vertices[mesh.facet_vertices].mean(axis=1)
    outward = np.einsum("ij,ij->i", mid - centroids[mesh.facet_left], mesh.facet_normal)
    assert np.all(outward > 0.0)


def test_facet_of_three_triangles_raises():
    vertices = [(0.0, 0.0), (1.0, 0.0), (0.5, 1.0), (0.5, 0.5), (0.5, 2.0)]
    triangles = [(0, 1, 2), (0, 1, 3), (0, 1, 4)]
    with pytest.raises(ValueError, match="more than two incident elements"):
        _build_mesh(vertices, triangles)


def test_clockwise_triangle_raises():
    vertices = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    with pytest.raises(ValueError, match="clockwise"):
        _build_mesh(vertices, [(0, 1, 2), (1, 2, 3)])


def test_vertex_outside_every_triangle_raises():
    vertices = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (5.0, 5.0)]
    with pytest.raises(ValueError, match="belongs to no triangle"):
        _build_mesh(vertices, [(0, 1, 2)])
