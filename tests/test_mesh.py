import dataclasses
import math
import re

import numpy as np
import pytest

import meshcond.mesh as mesh_module
from meshcond.assembly import assemble_mass, assemble_stiffness
from meshcond.bounds import (
    condition_bounds,
    lambda_max_geometric_bound,
    mass_condition_bounds,
)
from meshcond.diffusion import identity_field
from meshcond.mesh import (
    DegenerateElementError,
    MeshFormatError,
    SimplicialMesh,
    element_diameters,
    element_edge_matrices,
    element_volumes,
    generate_chebyshev_mesh,
    generate_skew_mesh_2d,
    generate_skew_mesh_3d,
    generate_uniform_mesh,
    mesh_statistics,
    patch_sums,
    read_mesh,
    reference_gradient_bound,
    reference_simplex,
    write_mesh,
)


def loop_uniform_mesh(dim, n):
    """Reference for generate_uniform_mesh: the grid built point by point."""
    if dim == 1:
        coords = np.array([[i / n] for i in range(n + 1)])
        elems = [[i, i + 1] for i in range(n)]
        boundary = np.zeros(n + 1, dtype=bool)
        boundary[[0, n]] = True
    elif dim == 2:
        coords = np.array(
            [[i / n, j / n] for j in range(n + 1) for i in range(n + 1)]
        )

        def vid(i, j):
            return j * (n + 1) + i

        elems = []
        for j in range(n):
            for i in range(n):
                v00, v10 = vid(i, j), vid(i + 1, j)
                v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
                elems.append((v00, v10, v11))
                elems.append((v00, v11, v01))
        boundary = np.array(
            [i in (0, n) or j in (0, n) for j in range(n + 1) for i in range(n + 1)]
        )
    else:
        grid = [(i, j, k) for k in range(n + 1) for j in range(n + 1)
                for i in range(n + 1)]
        coords = np.array([[i / n, j / n, k / n] for i, j, k in grid])
        boundary = np.array([any(c in (0, n) for c in p) for p in grid])

        def vid3(i, j, k):
            return (k * (n + 1) + j) * (n + 1) + i

        perms = (
            (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
        )
        elems = []
        for k in range(n):
            for j in range(n):
                for i in range(n):
                    for perm in perms:
                        cur = [i, j, k]
                        corners = [vid3(*cur)]
                        for axis in perm:
                            cur[axis] += 1
                            corners.append(vid3(*cur))
                        elems.append(corners)
    # sorted vertex indices, last two swapped where that makes the volume positive
    elems = np.sort(np.array(elems, dtype=np.int64), axis=1)
    pts = coords[elems]
    flip = np.linalg.det(pts[:, 1:] - pts[:, :1]) < 0.0
    elems[flip, -2:] = elems[flip, -1:-3:-1]
    return coords, elems, boundary


def loop_patch_sums(mesh, weights):
    """Reference for patch_sums: np.add.at slot by slot."""
    local = mesh.interior_map()[mesh.elements]
    out = np.zeros(mesh.n_interior)
    for i in range(mesh.dim + 1):
        sel = local[:, i] >= 0
        np.add.at(out, local[sel, i], weights[sel])
    return out


def loop_diameters(mesh):
    """Reference for element_diameters: one vertex pair at a time."""
    pts = mesh.vertices[mesh.elements]
    dmax = np.zeros(mesh.n_elements)
    for i in range(mesh.dim + 1):
        for j in range(i + 1, mesh.dim + 1):
            np.maximum(dmax, np.linalg.norm(pts[:, i] - pts[:, j], axis=1), out=dmax)
    return dmax


def jacobians(mesh):
    """F'_K of every element, mapping the unit-volume reference simplex onto K."""
    ref = reference_simplex(mesh.dim)
    ref_cols = (ref[1:] - ref[0]).T
    return element_edge_matrices(mesh).transpose(0, 2, 1) @ np.linalg.inv(ref_cols)


def in_diameters(mesh):
    """Inscribed-ball diameters of every element.

    Facet i has measure d |K| |grad lambda_i|, so 2 d |K| / (total facet
    measure) is 2 / sum_i |grad lambda_i|.
    """
    grads = np.linalg.inv(element_edge_matrices(mesh)).transpose(0, 2, 1)
    norms = np.linalg.norm(grads, axis=2).sum(axis=1)
    return 2.0 / (norms + np.linalg.norm(grads.sum(axis=1), axis=1))


def aspects(mesh):
    """Average size |K|^(1/d) over the in-diameter, per element."""
    return element_volumes(mesh) ** (1.0 / mesh.dim) / in_diameters(mesh)


def simplex_mesh(pts):
    """Mesh of disjoint simplices, pts of shape (m, d+1, d)."""
    m, nloc, dim = pts.shape
    return SimplicialMesh(dim=dim, vertices=pts.reshape(-1, dim),
                          elements=np.arange(m * nloc).reshape(m, nloc))


def chebyshev_interior(n):
    i = np.arange(1, n)
    return 0.5 * (1.0 - np.cos((2 * i - 1) * np.pi / (2 * (n - 1))))


class TestReferenceSimplex:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_unit_volume_and_regularity(self, dim):
        verts = reference_simplex(dim)
        vol = np.linalg.det(verts[1:] - verts[0]) / math.factorial(dim)
        assert vol == pytest.approx(1.0, rel=1e-13)
        dists = [
            np.linalg.norm(verts[i] - verts[j])
            for i in range(dim + 1)
            for j in range(i + 1, dim + 1)
        ]
        assert np.ptp(dists) < 1e-13 * dists[0]

    def test_gradient_bound_1d_is_one(self):
        assert reference_gradient_bound(1) == pytest.approx(1.0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_gradient_bound_below_one(self, dim):
        # needed for the patchwise scaling to dominate the Jacobi scaling
        assert reference_gradient_bound(dim) < 1.0


class TestConstruction:
    """The constructor is the one validity check of a hand-built mesh."""

    @staticmethod
    def rebuilt(elements=None):
        """Uniform 2D n=4 mesh built by hand, with edited elements."""
        uni = generate_uniform_mesh(2, 4)
        return SimplicialMesh(
            dim=2, vertices=uni.vertices,
            elements=uni.elements if elements is None else elements,
        )

    def test_clockwise_element_reoriented(self, cal2):
        uni = generate_uniform_mesh(2, 4)
        elements = np.array(uni.elements)
        elements[3, [1, 2]] = elements[3, [2, 1]]
        mesh = self.rebuilt(elements=elements)
        assert np.array_equal(mesh.elements, uni.elements)
        field = identity_field(2)
        assert (assemble_stiffness(mesh, field) != assemble_stiffness(uni, field)).nnz == 0
        assert condition_bounds(mesh, field, cal2) == condition_bounds(uni, field, cal2)

    def test_collapsed_element_named(self):
        elements = np.array(generate_uniform_mesh(2, 4).elements)
        elements[5, 2] = elements[5, 1]
        with pytest.raises(DegenerateElementError, match="element 5 is degenerate"):
            self.rebuilt(elements=elements)

    def test_non_integer_index_named_not_truncated(self):
        vertices = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        with pytest.raises(ValueError, match=re.escape(
                "element 0 has a vertex index that is not an integer: [0.0, 1.9, 2.0]")):
            SimplicialMesh(dim=2, vertices=vertices, elements=[[0, 1.9, 2], [1, 3, 2]])
        with pytest.raises(ValueError, match="element 1 has a vertex index that is not"):
            SimplicialMesh(dim=2, vertices=vertices, elements=[[0, 1, 2], [1, 3, np.nan]])
        with pytest.raises(ValueError, match="element vertex index out of range"):
            SimplicialMesh(dim=2, vertices=vertices, elements=[[0, 1, 2], [1, 3, 1e30]])
        whole = SimplicialMesh(dim=2, vertices=vertices, elements=[[0, 1.0, 2], [1, 3, 2]])
        assert whole.elements.dtype == np.int64
        assert whole.elements.tolist() == [[0, 1, 2], [1, 3, 2]]

    def test_orphan_interior_vertex(self):
        uni = generate_uniform_mesh(2, 4)
        with pytest.raises(ValueError, match="interior vertex 25 belongs to no element"):
            SimplicialMesh(dim=2, vertices=np.vstack([uni.vertices, [[0.5, 0.5]]]),
                           elements=uni.elements)

    def test_boundary_is_derived(self):
        init = [f.name for f in dataclasses.fields(SimplicialMesh) if f.init]
        assert init == ["dim", "vertices", "elements"]
        uni = generate_uniform_mesh(2, 4)
        with pytest.raises(TypeError):
            SimplicialMesh(dim=2, vertices=uni.vertices, elements=uni.elements,
                           boundary=uni.boundary)

    def test_facet_of_three_elements_named(self):
        elements = generate_uniform_mesh(2, 4).elements
        with pytest.raises(ValueError, match=re.escape(
                "facet (0, 6) is shared by more than two elements: 0, 1, 32")):
            self.rebuilt(elements=np.vstack([elements, elements[:1]]))

    def test_overlapping_pair_without_boundary_rejected(self):
        with pytest.raises(ValueError, match="mesh has no boundary facet"):
            SimplicialMesh(dim=2, vertices=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                           elements=[[0, 1, 2], [0, 2, 1]])

    @pytest.mark.parametrize("dim, n, vertex, moved, message", [
        (2, 4, 6, (0.6, 0.6), "facet (6, 7) has elements 3, 10 on the same side"),
        (3, 3, 21, (0.9, 0.2, 0.5), "facet (1, 5, 21) has elements 0, 9 on the same side"),
    ], ids=["2d", "3d"])
    def test_tangled_mesh_rejected(self, dim, n, vertex, moved, message):
        # the moved vertex turns some of its elements inside out; each is
        # reoriented, but then lies on the same side of a facet as its neighbor
        uni = generate_uniform_mesh(dim, n)
        vertices = np.array(uni.vertices)
        vertices[vertex] = moved
        with pytest.raises(ValueError, match=re.escape(f"{message}: the mesh is tangled")):
            SimplicialMesh(dim=dim, vertices=vertices, elements=uni.elements)

    @pytest.mark.parametrize("dim, limit", [(2, 2_147_483_647), (3, 1_664_510)])
    def test_facet_key_vertex_limit(self, dim, limit):
        # facet keys pack d vertex indices and one orientation bit into int64
        element = np.arange(dim + 1)[None, :]
        parity = np.array([False])
        with pytest.raises(ValueError, match=re.escape(
                f"a {dim}D mesh can have at most {limit} vertices, got {limit + 1}")):
            mesh_module._boundary_flags(element, parity, limit + 1)
        if dim == 3:
            assert mesh_module._boundary_flags(element, parity, limit)[:4].all()

    def test_hanging_node_is_on_the_slit(self):
        # halve the diagonal (6, 12) of grid cell (1, 1) in element 11 only:
        # element 10 keeps the whole diagonal, so vertex 25 hangs and the
        # diagonal becomes a slit whose vertices carry the Dirichlet condition
        uni = generate_uniform_mesh(2, 4)
        assert uni.elements[10:12].tolist() == [[6, 7, 12], [6, 12, 11]]
        elements = np.vstack([uni.elements[:11], [[6, 25, 11], [25, 12, 11]],
                              uni.elements[12:]])
        mesh = SimplicialMesh(dim=2, vertices=np.vstack([uni.vertices, [[0.375, 0.375]]]),
                              elements=elements)
        assert np.flatnonzero(~mesh.boundary).tolist() == [7, 8, 11, 13, 16, 17, 18]
        assert element_volumes(mesh).sum() == pytest.approx(1.0, rel=1e-12)

    def test_no_interior_vertex_rejected_by_interior_map(self, cal2):
        mesh = SimplicialMesh(dim=2, vertices=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                              elements=[[0, 1, 2]])
        field = identity_field(2)
        for compute in (lambda: assemble_stiffness(mesh, field),
                        lambda: assemble_mass(mesh),
                        lambda: condition_bounds(mesh, field, cal2),
                        lambda: mass_condition_bounds(mesh),
                        lambda: lambda_max_geometric_bound(mesh, field)):
            with pytest.raises(ValueError, match="mesh has no interior vertex"):
                compute()


class TestUniformMesh:
    def test_1d_counts(self):
        mesh = generate_uniform_mesh(1, 4)
        assert (mesh.n_vertices, mesh.n_elements, mesh.n_interior) == (5, 4, 3)
        assert element_volumes(mesh) == pytest.approx([0.25] * 4)

    def test_2d_counts(self):
        mesh = generate_uniform_mesh(2, 4)
        assert (mesh.n_vertices, mesh.n_elements, mesh.n_interior) == (25, 32, 9)
        vols = element_volumes(mesh)
        assert vols == pytest.approx([1.0 / 32] * 32)
        assert vols.sum() == pytest.approx(1.0, rel=1e-12)

    def test_3d_counts(self):
        mesh = generate_uniform_mesh(3, 2)
        assert (mesh.n_vertices, mesh.n_elements, mesh.n_interior) == (27, 48, 1)
        assert element_volumes(mesh).sum() == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("dim,n", [(1, 7), (2, 5), (3, 3)])
    def test_valid_and_unit_volume(self, dim, n):
        mesh = generate_uniform_mesh(dim, n)
        assert element_volumes(mesh).sum() == pytest.approx(1.0, rel=1e-12)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            generate_uniform_mesh(2, 1)

    @pytest.mark.parametrize("dim,n", [(1, 7), (2, 5), (2, 32), (3, 4), (3, 8)])
    def test_matches_loop_reference(self, dim, n):
        mesh = generate_uniform_mesh(dim, n)
        coords, elems, boundary = loop_uniform_mesh(dim, n)
        assert np.array_equal(mesh.vertices, coords)
        assert np.array_equal(mesh.elements, elems)
        assert np.array_equal(mesh.boundary, boundary)


class TestChebyshevMesh:
    def test_three_elements(self):
        mesh = generate_chebyshev_mesh(3)
        x = chebyshev_interior(3)
        assert x == pytest.approx([0.5 * (1 - np.cos(np.pi / 4)),
                                   0.5 * (1 - np.cos(3 * np.pi / 4))])
        assert mesh.vertices.ravel() == pytest.approx([0.0, x[0], x[1], 1.0])
        assert mesh.elements.tolist() == [[0, 1], [1, 2], [2, 3]]
        assert element_volumes(mesh) == pytest.approx(
            [0.14644660940672624, 0.7071067811865476, 0.14644660940672624]
        )

    @pytest.mark.parametrize("n", [3, 10, 64, 257])
    def test_nodes_strictly_increasing_inside(self, n):
        mesh = generate_chebyshev_mesh(n)
        x = mesh.vertices.ravel()
        assert np.all(np.diff(x) > 0)
        assert x[0] == 0.0 and x[-1] == 1.0
        assert np.all((x[1:-1] > 0) & (x[1:-1] < 1))
        assert element_volumes(mesh).sum() == pytest.approx(1.0, rel=1e-12)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            generate_chebyshev_mesh(2)


def slenderness(mesh):
    return element_diameters(mesh) / in_diameters(mesh)


class TestSkewMesh2d:
    def test_aspect_one_is_uniform(self):
        skew = generate_skew_mesh_2d(4, 1.0)
        uni = generate_uniform_mesh(2, 4)
        assert np.array_equal(skew.vertices, uni.vertices)
        assert np.array_equal(skew.elements, uni.elements)

    def test_thin_element_count(self):
        a = 125.0
        mesh = generate_skew_mesh_2d(16, a)
        ratios = slenderness(mesh)
        assert np.count_nonzero(ratios > a / 2) == 2 * 16
        assert ratios.max() < 2 * a
        # the remaining elements keep O(1) shape
        rest = np.sort(ratios)[: mesh.n_elements - 32]
        assert rest.max() < 5.0

    def test_area_preserved(self):
        mesh = generate_skew_mesh_2d(16, 125.0)
        assert element_volumes(mesh).sum() == pytest.approx(1.0, rel=1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            generate_skew_mesh_2d(3, 8.0)
        with pytest.raises(ValueError):
            generate_skew_mesh_2d(8, 0.5)


class TestSkewMesh3d:
    def test_aspect_one_is_uniform(self):
        skew = generate_skew_mesh_3d(4, 1.0)
        uni = generate_uniform_mesh(3, 4)
        assert np.array_equal(skew.vertices, uni.vertices)
        assert np.array_equal(skew.elements, uni.elements)

    def test_thin_element_count_and_aspect(self):
        a = 25.0
        mesh = generate_skew_mesh_3d(8, a)
        assert element_volumes(mesh).sum() == pytest.approx(1.0, rel=1e-12)
        ratios = slenderness(mesh)
        assert np.count_nonzero(ratios > a / 2) == 6 * 64
        assert a / 2 < ratios.max() < 2 * a


@pytest.mark.parametrize("generate", [generate_skew_mesh_2d, generate_skew_mesh_3d])
def test_skew_mesh_constructed_once(monkeypatch, generate):
    calls = []
    real = mesh_module._orient_positive

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(mesh_module, "_orient_positive", counted)
    generate(5, 8.0)
    assert len(calls) == 1


class TestElementGeometry:
    def test_1d_interval(self):
        mesh = generate_uniform_mesh(1, 4)
        assert jacobians(mesh)[0].ravel() == pytest.approx([0.25])
        assert element_volumes(mesh)[0] == pytest.approx(0.25)
        assert in_diameters(mesh)[0] == pytest.approx(0.25)
        assert aspects(mesh)[0] == pytest.approx(1.0)

    def test_right_triangle(self):
        mesh = simplex_mesh(np.array([[[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]]))
        assert element_volumes(mesh)[0] == pytest.approx(0.5)
        # in-diameter = 2 * inradius = 2 * area / semiperimeter
        assert in_diameters(mesh)[0] == pytest.approx(2 * (1 - np.sqrt(2) / 2))

    def test_volume_equals_jacobian_determinant(self):
        rng = np.random.default_rng(42)
        for dim in (1, 2, 3):
            pts = rng.standard_normal((1000, dim + 1, dim))
            det = np.linalg.det(pts[:, 1:] - pts[:, :1])
            keep = np.abs(det) >= 0.3
            mesh = simplex_mesh(pts[keep])
            vols = element_volumes(mesh)
            jdet = np.abs(np.linalg.det(jacobians(mesh)))
            assert np.all(np.abs(vols - jdet) <= 1e-14 * vols)
            assert vols == pytest.approx(np.abs(det[keep]) / math.factorial(dim),
                                         rel=1e-14)

    def test_degenerate_element(self):
        with pytest.raises(DegenerateElementError, match="element 0"):
            simplex_mesh(np.array([[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]]))

    def test_first_degenerate_element_named(self):
        # element 1 is flat, element 2 inverted (reoriented, not rejected),
        # element 3 has a non-finite volume
        with pytest.raises(DegenerateElementError, match="element 1 is degenerate"):
            simplex_mesh(np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                                   [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
                                   [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]],
                                   [[0.0, 0.0], [np.inf, 0.0], [0.0, 1.0]]]))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_regular_simplex_minimizes_aspect(self, dim):
        regular = aspects(simplex_mesh(np.asarray(reference_simplex(dim))[None]))[0]
        rng = np.random.default_rng(dim)
        pts = rng.standard_normal((200, dim + 1, dim))
        keep = np.abs(np.linalg.det(pts[:, 1:] - pts[:, :1])) >= 0.1
        assert np.all(aspects(simplex_mesh(pts[keep])) >= regular * (1 - 1e-12))


class TestVertexPatches:
    def test_1d_middle_vertex(self):
        mesh = generate_uniform_mesh(1, 4)
        middle = mesh.interior_map()[2]
        assert patch_sums(mesh, np.ones(mesh.n_elements))[middle] == 2
        assert patch_sums(mesh, element_volumes(mesh))[middle] == pytest.approx(0.5)

    def test_2d_interior_patches(self):
        mesh = generate_uniform_mesh(2, 4)
        assert np.all(patch_sums(mesh, np.ones(mesh.n_elements)) == 6)
        assert patch_sums(mesh, element_volumes(mesh)) == pytest.approx(
            np.full(mesh.n_interior, 6.0 / 32)
        )

    @pytest.mark.parametrize("make", [
        lambda: generate_uniform_mesh(2, 5),
        lambda: generate_uniform_mesh(3, 3),
        lambda: generate_chebyshev_mesh(16),
        lambda: generate_skew_mesh_2d(8, 10.0),
    ])
    def test_patch_volume_sum_bounded(self, make):
        mesh = make()
        total = patch_sums(mesh, element_volumes(mesh)).sum()
        domain = element_volumes(mesh).sum()
        assert total <= (mesh.dim + 1) * domain + 1e-12

    def test_patch_matches_membership(self):
        mesh = generate_skew_mesh_2d(6, 4.0)
        interior = np.flatnonzero(~mesh.boundary)
        for k in range(mesh.n_elements):
            indicator = np.zeros(mesh.n_elements)
            indicator[k] = 1.0
            in_patch = patch_sums(mesh, indicator) == 1.0
            assert np.array_equal(in_patch, np.isin(interior, mesh.elements[k]))

    @pytest.mark.parametrize("make", [
        lambda: generate_chebyshev_mesh(33),
        lambda: generate_skew_mesh_2d(12, 37.0),
        lambda: generate_skew_mesh_3d(5, 9.0),
    ], ids=["1d", "skew2d", "skew3d"])
    def test_bitwise_equal_to_reference_loop(self, make):
        mesh = make()
        rng = np.random.default_rng(mesh.n_elements)
        weights = element_volumes(mesh) * rng.lognormal(0.0, 3.0, mesh.n_elements)
        assert np.array_equal(patch_sums(mesh, weights),
                              loop_patch_sums(mesh, weights))
        imap = mesh.interior_map()
        counts = np.zeros(mesh.n_interior)
        for elem in mesh.elements:
            for v in elem:
                if imap[v] >= 0:
                    counts[imap[v]] += 1
        assert np.array_equal(patch_sums(mesh, np.ones(mesh.n_elements)), counts)


class TestMeshStatistics:
    def test_diameters_bitwise_equal_to_reference_loop(self):
        rng = np.random.default_rng(21)
        for index in range(9):
            mesh = random_mesh(rng, index)
            assert np.array_equal(element_diameters(mesh), loop_diameters(mesh))

    def test_uniform_2d(self):
        stats = mesh_statistics(generate_uniform_mesh(2, 4))
        assert stats.n_elements == 32
        assert stats.n_interior == 9
        assert stats.k_bar == pytest.approx(1.0 / 32)
        assert stats.p_max == 6
        assert stats.k_min == stats.k_max == pytest.approx(stats.k_bar)

    def test_chebyshev_smallest_element(self):
        stats = mesh_statistics(generate_chebyshev_mesh(64))
        # smallest element is the boundary one, ending at the first
        # interior node
        assert stats.k_min == pytest.approx(
            0.5 * (1 - np.cos(np.pi / (2 * 63))), rel=1e-14
        )

    def test_uniform_all_equal(self):
        stats = mesh_statistics(generate_uniform_mesh(3, 3))
        assert stats.k_min == pytest.approx(stats.k_bar, rel=1e-12)
        assert stats.k_max == pytest.approx(stats.k_bar, rel=1e-12)
        assert stats.h_ratio == pytest.approx(1.0, rel=1e-12)

    def test_1d_interior_patch_count(self):
        stats = mesh_statistics(generate_uniform_mesh(1, 6))
        assert stats.p_max == 2


def random_mesh(rng, index):
    dim = index % 3 + 1
    if dim == 1:
        n = int(rng.integers(3, 12))
        interior = np.sort(rng.uniform(0.05, 0.95, n - 1))
        verts = np.concatenate(([0.0], interior, [1.0]))[:, None]
        elems = np.array([[i, i + 1] for i in range(n)])
        return SimplicialMesh(dim=1, vertices=verts, elements=elems)
    n = int(rng.integers(2, 5)) if dim == 2 else int(rng.integers(2, 4))
    mesh = generate_uniform_mesh(dim, n)
    verts = np.array(mesh.vertices)
    jitter = rng.uniform(-0.12 / n, 0.12 / n, verts.shape)
    jitter[mesh.boundary] = 0.0
    verts += jitter
    return SimplicialMesh(dim=dim, vertices=verts, elements=mesh.elements)


def loop_write_mesh(mesh, path):
    """Line-by-line writer; write_mesh must produce the same bytes."""
    with open(path, "w") as fh:
        fh.write(
            f"meshcond v1 dim={mesh.dim} nv={mesh.n_vertices} ne={mesh.n_elements}\n"
        )
        for coords, flag in zip(mesh.vertices, mesh.boundary):
            vals = " ".join(f"{c:.17g}" for c in coords)
            fh.write(f"{vals} {1 if flag else 0}\n")
        for elem in mesh.elements:
            fh.write(" ".join(str(int(v)) for v in elem) + "\n")


class TestMeshIO:
    def test_writer_matches_line_by_line_writer(self, tmp_path):
        rng = np.random.default_rng(7)
        wide = SimplicialMesh(dim=1, elements=[[0, 1], [1, 2], [2, 3], [3, 4]],
                              vertices=[[-3e200], [-1e-300], [0.0], [5e-324], [1.0 / 3.0]])
        meshes = [random_mesh(rng, i) for i in range(30)]
        meshes += [generate_skew_mesh_2d(9, 40.0), generate_skew_mesh_3d(4, 7.0), wide]
        for i, mesh in enumerate(meshes):
            write_mesh(mesh, tmp_path / "new.msh")
            loop_write_mesh(mesh, tmp_path / "old.msh")
            assert (tmp_path / "new.msh").read_bytes() == (tmp_path / "old.msh").read_bytes(), i
            back = read_mesh(tmp_path / "new.msh")
            assert np.array_equal(back.vertices, mesh.vertices), i

    def test_roundtrip_uniform(self, tmp_path):
        mesh = generate_uniform_mesh(1, 4)
        path = tmp_path / "m.msh"
        write_mesh(mesh, path)
        back = read_mesh(path)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.elements, mesh.elements)
        assert np.array_equal(back.boundary, mesh.boundary)

    def test_roundtrip_randomized(self, tmp_path):
        rng = np.random.default_rng(2024)
        path = tmp_path / "m.msh"
        for i in range(100):
            mesh = random_mesh(rng, i)
            write_mesh(mesh, path)
            back = read_mesh(path)
            assert back.dim == mesh.dim
            assert np.array_equal(back.vertices, mesh.vertices), f"mesh {i}"
            assert np.array_equal(back.elements, mesh.elements)
            assert np.array_equal(back.boundary, mesh.boundary)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.msh"
        path.write_text("")
        with pytest.raises(MeshFormatError, match="missing header"):
            read_mesh(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.msh"
        path.write_text("meshthing v1 dim=1 nv=2 ne=1\n0 1\n1 1\n0 1\n")
        with pytest.raises(MeshFormatError, match="header"):
            read_mesh(path)

    # (file text, message, line): one row per error read_mesh reports by line
    MALFORMED = {
        "header-field": ("meshcond v1 dim=x nv=2 ne=1\n0 1\n1 1\n0 1\n",
                         "malformed header field 'dim=x'", 1),
        "header-underscore": ("meshcond v1 dim=1 nv=2_0 ne=1\n0 1\n1 1\n0 1\n",
                              "malformed header field 'nv=2_0'", 1),
        "header-values": ("meshcond v1 dim=4 nv=2 ne=1\n0 1\n1 1\n0 1\n",
                          "invalid header values dim=4 nv=2 ne=1", 1),
        "vertex-field-count": ("meshcond v1 dim=1 nv=2 ne=1\n0 1\n1\n0 1\n",
                               "expected 2 fields on vertex line, got 1", 3),
        "coordinate": ("meshcond v1 dim=1 nv=2 ne=1\nzero 1\n1 1\n0 1\n",
                       "bad coordinate in ['zero']", 2),
        "boundary-flag": ("meshcond v1 dim=1 nv=2 ne=1\n0 1\n1 yes\n0 1\n",
                          "boundary flag must be 0 or 1, got 'yes'", 3),
        "element-field-count": ("meshcond v1 dim=1 nv=2 ne=1\n0 1\n1 1\n0 1 1\n",
                                "expected 2 vertex indices, got 3", 4),
        "index-token": ("meshcond v1 dim=1 nv=2 ne=1\n0 1\n1 1\n0 one\n",
                        "bad vertex index in ['0', 'one']", 4),
        "index-out-of-range": ("meshcond v1 dim=1 nv=2 ne=1\n0 1\n1 1\n0 2\n",
                               "vertex index 2 out of range", 4),
        "flag-on-interior-vertex": ("meshcond v1 dim=1 nv=3 ne=2\n0 1\n0.5 1\n1 1\n0 1\n1 2\n",
                                    "vertex 1 has boundary flag 1, but its elements "
                                    "put it in the interior", 3),
        "flag-off-boundary-vertex": ("meshcond v1 dim=1 nv=3 ne=2\n0 1\n0.5 0\n1 0\n0 1\n1 2\n",
                                     "vertex 2 has boundary flag 0, but its elements "
                                     "put it on the boundary", 4),
        "trailing-text": ("meshcond v1 dim=1 nv=2 ne=1\n0 1\n1 1\n0 1\n\n1 0\nend\n",
                          "text after the 2 vertex and 1 element lines: '1 0'", 6),
        # numbers a whole-block parse would accept, each refused on its line
        "flag-spelled-as-float": ("meshcond v1 dim=1 nv=2 ne=1\n0 1.0\n1 1\n0 1\n",
                                  "boundary flag must be 0 or 1, got '1.0'", 2),
        "blank-vertex-line": ("meshcond v1 dim=1 nv=3 ne=2\n0 1\n\n1 1\n0 1\n1 2\n",
                              "expected 2 fields on vertex line, got 0", 3),
        "comment-on-element-line": ("meshcond v1 dim=1 nv=2 ne=1\n0 1\n1 1\n0 1 # x\n",
                                    "expected 2 vertex indices, got 4", 4),
        "negative-index": ("meshcond v1 dim=1 nv=2 ne=1\n0 1\n1 1\n-1 1\n",
                           "vertex index -1 out of range", 4),
        "first-of-two-bad-lines": (
            "meshcond v1 dim=2 nv=3 ne=1\n0 0 1\n1 0 1\n0 inf 1\n0 1 2 3\n",
            "non-finite coordinate [0.0, inf]", 4),
        # Python's float and int read these as 10 and 2; loadtxt does not
        "underscore-in-coordinate": ("meshcond v1 dim=1 nv=2 ne=1\n1_0 1\n1 1\n0 1\n",
                                     "bad coordinate in ['1_0']", 2),
        "arabic-indic-coordinate": ("meshcond v1 dim=1 nv=2 ne=1\n0 1\n\u0661 1\n0 1\n",
                                    "bad coordinate in ['\u0661']", 3),
        "arabic-indic-index": ("meshcond v1 dim=1 nv=3 ne=2\n0 1\n0.5 0\n1 1\n0 1\n1 \u0662\n",
                               "bad vertex index in ['1', '\u0662']", 6),
        # a bad value in the readable lines comes before a later unreadable line
        "bad-flag-before-unreadable-line": (
            "meshcond v1 dim=1 nv=3 ne=2\n0 1\n0.5 2\n1 x\n0 1\n1 2\n",
            "boundary flag must be 0 or 1, got '2'", 3),
        "bad-index-before-unreadable-line": (
            "meshcond v1 dim=1 nv=3 ne=2\n0 1\n0.5 0\n1 1\n0 3\n1 two\n",
            "vertex index 3 out of range", 5),
        "vertex-line-before-element-line": (
            "meshcond v1 dim=1 nv=3 ne=2\n0 1\n0.5 0\n1 1e400\n0 1\n1 two\n",
            "boundary flag must be 0 or 1, got '1e400'", 4),
    }

    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_line(self, tmp_path, case):
        text, message, line = self.MALFORMED[case]
        path = tmp_path / "bad.msh"
        path.write_text(text)
        with pytest.raises(MeshFormatError) as err:
            read_mesh(path)
        assert str(err.value) == f"line {line}: {message}"
        assert err.value.line == line

    @pytest.mark.parametrize("token", ["x", "1_0", "1e400", "0.5", ""])
    def test_each_bad_line_is_found(self, tmp_path, token):
        # the first bad line is found wherever it lies in either block
        write_mesh(generate_uniform_mesh(2, 6), tmp_path / "m.msh")
        lines = (tmp_path / "m.msh").read_text().splitlines()
        path = tmp_path / "bad.msh"
        for k in range(1, len(lines)):
            tokens = lines[k].split()
            tokens[-1] = token
            path.write_text("\n".join([*lines[:k], " ".join(tokens), *lines[k + 1:]]))
            with pytest.raises(MeshFormatError) as err:
                read_mesh(path)
            assert err.value.line == k + 1

    def test_non_finite_coordinate(self, tmp_path):
        path = tmp_path / "nan.msh"
        path.write_text("meshcond v1 dim=1 nv=2 ne=1\nnan 1\n1 1\n0 1\n")
        with pytest.raises(MeshFormatError, match="non-finite"):
            read_mesh(path)

    def test_trailing_blank_lines_allowed(self, tmp_path):
        path = tmp_path / "blank.msh"
        path.write_text("meshcond v1 dim=1 nv=2 ne=1\n0 1\n1 1\n0 1\n\n  \n")
        assert read_mesh(path).n_elements == 1

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "short.msh"
        path.write_text("meshcond v1 dim=1 nv=3 ne=2\n0 1\n")
        with pytest.raises(MeshFormatError):
            read_mesh(path)
