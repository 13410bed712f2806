import numpy as np
import pytest

from meshcond.assembly import (
    alt_scaling,
    apply_symmetric_scaling,
    assemble_mass,
    assemble_stiffness,
    jacobi_scaling,
)
from meshcond.bounds import CalibrationConstant, condition_bounds
from meshcond.diffusion import (
    constant_field,
    identity_field,
    rotated_anisotropic_field,
    spd_norm2,
)
from meshcond.mesh import (
    DegenerateElementError,
    SimplicialMesh,
    element_volumes,
    generate_chebyshev_mesh,
    generate_skew_mesh_2d,
    generate_skew_mesh_3d,
    generate_uniform_mesh,
    patch_sums,
    reference_gradients,
)
from meshcond.spectral import dense_eigenvalues_oracle

MESH_FIELD_CASES = [
    ("uniform1d", lambda: generate_uniform_mesh(1, 8), lambda: identity_field(1)),
    ("uniform2d", lambda: generate_uniform_mesh(2, 6), lambda: identity_field(2)),
    ("uniform3d", lambda: generate_uniform_mesh(3, 3), lambda: identity_field(3)),
    ("chebyshev", lambda: generate_chebyshev_mesh(24), lambda: identity_field(1)),
    ("skew2d", lambda: generate_skew_mesh_2d(8, 30.0),
     lambda: rotated_anisotropic_field(1000.0, 1.0)),
    ("skew3d", lambda: generate_skew_mesh_3d(4, 10.0), lambda: identity_field(3)),
]


class TestStiffness:
    def test_1d_uniform_tridiagonal(self):
        mesh = generate_uniform_mesh(1, 4)
        a = assemble_stiffness(mesh, identity_field(1)).toarray()
        expected = np.array([[8.0, -4.0, 0.0], [-4.0, 8.0, -4.0], [0.0, -4.0, 8.0]])
        assert a == pytest.approx(expected)

    def test_interior_patch_row_sums_vanish(self):
        # partition of unity: gradients of all basis functions sum to zero
        mesh = generate_uniform_mesh(2, 4)
        a = assemble_stiffness(mesh, identity_field(2))
        imap = mesh.interior_map()
        center = imap[~mesh.boundary][4]  # grid vertex (2, 2)
        patch = np.any(imap[mesh.elements] == center, axis=1)
        neighbors = set(mesh.elements[patch].ravel())
        assert all(not mesh.boundary[v] for v in neighbors)
        row = a.getrow(center).toarray().ravel()
        assert abs(row.sum()) < 1e-12 * np.abs(row).max()

    def test_linearity_in_diffusion(self):
        mesh = generate_uniform_mesh(2, 5)
        a1 = assemble_stiffness(mesh, identity_field(2))
        a2 = assemble_stiffness(mesh, constant_field(2.0 * np.eye(2)))
        assert (a2 - 2.0 * a1).toarray() == pytest.approx(np.zeros(a1.shape))

    @pytest.mark.parametrize("name,make_mesh,make_field", MESH_FIELD_CASES)
    def test_symmetric_positive_definite(self, name, make_mesh, make_field):
        mesh, field = make_mesh(), make_field()
        a = assemble_stiffness(mesh, field)
        dense = a.toarray()
        scale = np.abs(dense).max()
        assert np.abs(dense - dense.T).max() <= 1e-14 * scale
        assert dense_eigenvalues_oracle(dense)[0] > 0.0

    def test_pattern_follows_adjacency(self):
        mesh = generate_uniform_mesh(2, 4)
        a = assemble_stiffness(mesh, identity_field(2)).tocoo()
        imap = mesh.interior_map()
        adjacent = set()
        for elem in mesh.elements:
            ids = [imap[v] for v in elem if imap[v] >= 0]
            adjacent.update((i, j) for i in ids for j in ids)
        assert set(zip(a.row.tolist(), a.col.tolist())) <= adjacent

    def test_element_order_independence(self):
        mesh = generate_skew_mesh_2d(6, 10.0)
        rng = np.random.default_rng(0)
        perm = rng.permutation(mesh.n_elements)
        shuffled = SimplicialMesh(
            dim=2,
            vertices=mesh.vertices,
            elements=mesh.elements[perm],
        )
        field = rotated_anisotropic_field(100.0, 1.0)
        a = assemble_stiffness(mesh, field).toarray()
        b = assemble_stiffness(shuffled, field).toarray()
        assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()

    @pytest.mark.parametrize("mesh", [generate_skew_mesh_3d(8, 25.0),
                                      generate_uniform_mesh(2, 16),
                                      generate_uniform_mesh(3, 16)],
                             ids=["skew3d", "uniform2d", "uniform3d"])
    def test_no_exact_zero_is_stored(self, monkeypatch, mesh):
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        from meshcond import assembly, spectral

        field = identity_field(mesh.dim)
        element_matrices, lus = [], []

        def scatter(m, local, _real=assembly._scatter):
            element_matrices.append(local)
            return _real(m, local)

        def kept(mat, *args, _real=spla.splu, **kwargs):
            lus.append(mat)
            return _real(mat, *args, **kwargs)

        monkeypatch.setattr(assembly, "_scatter", scatter)
        a, b = assemble_stiffness(mesh, field), assemble_mass(mesh)
        assert (a.data != 0.0).all() and (b.data != 0.0).all()
        # the stiffness's element matrices summed with every cancellation kept
        local = element_matrices[0]
        gidx = mesh.interior_map()[mesh.elements]
        rows = np.broadcast_to(gidx[:, :, None], local.shape)
        cols = np.broadcast_to(gidx[:, None, :], local.shape)
        keep = (rows >= 0) & (cols >= 0)
        with_zeros = sp.coo_matrix((local[keep], (rows[keep], cols[keep])),
                                   shape=a.shape).tocsr()
        assert (with_zeros.data == 0.0).any()  # Kuhn cells cancel some couplings exactly
        assert np.array_equal(a.toarray(), with_zeros.toarray())
        monkeypatch.setattr(spectral.spla, "splu", kept)
        cal = CalibrationConstant(c=2.5, dim=mesh.dim, n_ref=0, field=field.spec,
                                  provenance="pinned")
        condition_bounds(mesh, field, cal)
        (mat,) = lus  # the row's one LU
        assert mat.nnz == a.nnz and (mat.data != 0.0).all()

    def test_degenerate_element_named(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        elems = np.array([[0, 1, 2], [1, 3, 3]])  # second element collapsed
        with pytest.raises(DegenerateElementError, match="element 1 is degenerate"):
            SimplicialMesh(dim=2, vertices=verts, elements=elems)

    def test_overflowing_field_named(self):
        # 1e308 times the squared gradients overflows; RuntimeWarning is an error
        mesh = generate_uniform_mesh(2, 4)
        field = rotated_anisotropic_field(1e308, 1.0)
        cal = CalibrationConstant(c=20.0, dim=2, n_ref=4, field=field.spec,
                                  provenance="test")
        message = "non-finite entry: the diffusion field overflows on this mesh"
        with pytest.raises(ValueError, match=message):
            assemble_stiffness(mesh, field)
        with pytest.raises(ValueError, match=message):
            condition_bounds(mesh, field, cal)


class TestMass:
    def test_1d_uniform_entries(self):
        mesh = generate_uniform_mesh(1, 4)
        b = assemble_mass(mesh).toarray()
        assert b[1, 1] == pytest.approx(1.0 / 6)
        assert b[0, 1] == pytest.approx(1.0 / 24)
        assert b[0, 2] == 0.0

    @pytest.mark.parametrize("name,make_mesh,make_field", MESH_FIELD_CASES)
    def test_diagonal_closed_form(self, name, make_mesh, make_field):
        mesh = make_mesh()
        d = mesh.dim
        diag = assemble_mass(mesh).diagonal()
        omega = patch_sums(mesh, element_volumes(mesh))
        expected = 2.0 * omega / ((d + 1) * (d + 2))
        assert np.abs(diag - expected).max() <= 1e-14 * expected.max()

    @pytest.mark.parametrize("name,make_mesh,make_field", MESH_FIELD_CASES)
    def test_entries_nonnegative_row_sums_bounded(self, name, make_mesh, make_field):
        mesh = make_mesh()
        b = assemble_mass(mesh)
        assert b.data.min() >= 0.0
        # row sums cannot exceed int phi_j = |omega_j| / (d+1)
        omega = patch_sums(mesh, element_volumes(mesh))
        sums = np.asarray(b.sum(axis=1)).ravel()
        assert np.all(sums <= omega / (mesh.dim + 1) + 1e-14)


class TestJacobiScaling:
    def test_one_by_one(self):
        import scipy.sparse as sp

        assert jacobi_scaling(sp.csr_matrix(np.array([[4.0]]))) == pytest.approx([2.0])

    def test_uniform_stiffness(self):
        mesh = generate_uniform_mesh(1, 4)
        s = jacobi_scaling(assemble_stiffness(mesh, identity_field(1)))
        assert s == pytest.approx(np.full(3, np.sqrt(8.0)))

    def test_mass_scaling_closed_form(self):
        mesh = generate_skew_mesh_2d(6, 5.0)
        s = jacobi_scaling(assemble_mass(mesh))
        omega = patch_sums(mesh, element_volumes(mesh))
        assert s == pytest.approx(np.sqrt(2.0 * omega / (3 * 4)))

    def test_rejects_nonpositive_diagonal(self):
        import scipy.sparse as sp

        with pytest.raises(ValueError):
            jacobi_scaling(sp.csr_matrix(np.diag([1.0, -2.0])))


class TestAltScaling:
    def test_1d_equals_jacobi(self):
        mesh = generate_chebyshev_mesh(16)
        field = identity_field(1)
        alt = alt_scaling(mesh, field)
        jac = jacobi_scaling(assemble_stiffness(mesh, field))
        assert alt == pytest.approx(jac, rel=1e-13)

    @pytest.mark.parametrize("name,make_mesh,make_field", MESH_FIELD_CASES)
    def test_dominates_jacobi(self, name, make_mesh, make_field):
        # holds on these meshes, not on every mesh (see alt_scaling)
        mesh, field = make_mesh(), make_field()
        alt = alt_scaling(mesh, field)
        jac = jacobi_scaling(assemble_stiffness(mesh, field))
        assert np.all(alt ** 2 >= jac ** 2 * (1 - 1e-12))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_metric_uniform_ratio_bounded_by_dim(self, dim):
        # elements mapped by c * D^(1/2) are uniform in the metric 1/D; the
        # two scalings then differ by at most the factor d per element
        rng = np.random.default_rng(dim)
        grads = np.asarray(reference_gradients(dim))
        for _ in range(200):
            raw = rng.standard_normal((dim, dim))
            d_mat = raw @ raw.T + 0.1 * np.eye(dim)
            w, q = np.linalg.eigh(d_mat)
            sqrt_d = (q * np.sqrt(w)) @ q.T
            c = rng.uniform(0.5, 2.0)
            fprime = c * sqrt_d
            vol = abs(np.linalg.det(fprime))  # reference has unit volume
            finv = np.linalg.inv(fprime)
            metric = finv.T @ d_mat @ finv
            alt_term = vol * spd_norm2(metric)
            # stiffness diagonal contribution of any vertex of this element
            grad_phys = grads @ finv
            jac_terms = vol * np.einsum("ia,ab,ib->i", grad_phys, d_mat, grad_phys)
            ratios = alt_term / jac_terms
            assert np.all(ratios <= dim * (1 + 1e-12))
            assert np.all(ratios >= 1 - 1e-12)


class TestApplySymmetricScaling:
    def test_identity_scaling(self):
        mesh = generate_uniform_mesh(1, 8)
        a = assemble_stiffness(mesh, identity_field(1))
        same = apply_symmetric_scaling(a, np.ones(a.shape[0]))
        assert (same - a).toarray() == pytest.approx(np.zeros(a.shape))

    def test_1d_uniform_scaled_stencil(self):
        mesh = generate_uniform_mesh(1, 4)
        a = assemble_stiffness(mesh, identity_field(1))
        scaled = apply_symmetric_scaling(a, jacobi_scaling(a)).toarray()
        expected = np.array(
            [[1.0, -0.5, 0.0], [-0.5, 1.0, -0.5], [0.0, -0.5, 1.0]]
        )
        assert scaled == pytest.approx(expected)

    @pytest.mark.parametrize("name,make_mesh,make_field", MESH_FIELD_CASES)
    def test_unit_diagonal(self, name, make_mesh, make_field):
        mesh, field = make_mesh(), make_field()
        a = assemble_stiffness(mesh, field)
        scaled = apply_symmetric_scaling(a, jacobi_scaling(a))
        assert np.abs(scaled.diagonal() - 1.0).max() <= 1e-14

    @pytest.mark.parametrize("scaling, message", [
        (np.ones(2), "scaling has shape (2,), matrix order is 3"),
        (np.ones((3, 1)), "scaling has shape (3, 1), matrix order is 3"),
        (np.array([1.0, 0.0, 1.0]), "scaling entries must be positive and finite"),
        (np.array([1.0, np.inf, 1.0]), "scaling entries must be positive and finite"),
        (np.array([1.0, np.nan, 1.0]), "scaling entries must be positive and finite"),
    ], ids=["short", "column", "zero", "inf", "nan"])
    def test_bad_scaling_rejected(self, scaling, message):
        a = assemble_stiffness(generate_uniform_mesh(1, 4), identity_field(1))
        with pytest.raises(ValueError) as err:
            apply_symmetric_scaling(a, scaling)
        assert str(err.value) == message

    def test_constant_diagonal_preserves_kappa(self):
        # scaling by a scalar multiple of the identity cannot change kappa
        mesh = generate_uniform_mesh(2, 6)
        a = assemble_stiffness(mesh, identity_field(2))
        scaled = apply_symmetric_scaling(a, jacobi_scaling(a))
        ea = dense_eigenvalues_oracle(a)
        es = dense_eigenvalues_oracle(scaled)
        kappa_a = ea[-1] / ea[0]
        kappa_s = es[-1] / es[0]
        assert kappa_s == pytest.approx(kappa_a, rel=1e-12)
