import numpy as np
import pytest

from meshcond.assembly import alt_scaling
from meshcond.bounds import (
    CalibrationConstant,
    lambda_max_geometric_bound,
    m_uniform_bound,
    quality_measures,
)
from meshcond.diffusion import (
    FieldError,
    _tensors_at,
    constant_field,
    element_averages,
    field_spectral_bounds,
    identity_field,
    mapped_metric_tensors,
    parse_field_spec,
    rotated_anisotropic_field,
    spd_norm2,
)
from meshcond.mesh import (
    DegenerateElementError,
    SimplicialMesh,
    generate_skew_mesh_2d,
    generate_uniform_mesh,
    reference_simplex,
)


def rotation(psi):
    return np.array([[np.cos(psi), -np.sin(psi)], [np.sin(psi), np.cos(psi)]])


class TestEvaluate:
    def test_identity(self):
        field = identity_field(3)
        points = np.array([[0.2, 0.4, 0.9], [0.0, 1.0, 0.5]])
        assert np.array_equal(_tensors_at(field, points), np.broadcast_to(
            np.eye(3), (2, 3, 3)))

    def test_rotated_at_origin(self):
        field = rotated_anisotropic_field(1000.0, 1.0)
        d = _tensors_at(field, np.array([[0.0, 0.0]]))[0]
        assert d == pytest.approx(np.diag([1000.0, 1.0]))

    def test_rotated_at_half_pi(self):
        # psi = pi there; rotation by pi leaves the diagonal form unchanged
        field = rotated_anisotropic_field(1000.0, 1.0)
        d = _tensors_at(field, np.array([[np.pi / 2, 0.0]]))[0]
        r = rotation(np.pi)
        expected = r @ np.diag([1000.0, 1.0]) @ r.T
        assert d == pytest.approx(expected)
        assert d == pytest.approx(np.diag([1000.0, 1.0]))

    def test_rotated_matches_direct_formula(self):
        field = rotated_anisotropic_field(50.0, 2.0)
        points = np.random.default_rng(1).uniform(0, 1, (20, 2))
        mats = _tensors_at(field, points)
        for x, mat in zip(points, mats):
            r = rotation(np.pi * np.sin(x[0]) * np.cos(x[1]))
            assert mat == pytest.approx(r @ np.diag([50.0, 2.0]) @ r.T)


class TestConstruction:
    def test_constant_requires_symmetry(self):
        with pytest.raises(FieldError):
            constant_field(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_constant_requires_positive_definite(self):
        with pytest.raises(FieldError):
            constant_field(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("matrix, message", [
        (np.ones((2, 3)), "constant field matrix must be d x d, got shape (2, 3)"),
        (np.eye(4), "constant field matrix must be d x d, got shape (4, 4)"),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]),
         "constant field matrix has non-finite entries"),
    ], ids=["non-square", "4d", "nan"])
    def test_constant_requires_finite_square_matrix(self, matrix, message):
        with pytest.raises(FieldError) as err:
            constant_field(matrix)
        assert str(err.value) == message

    @pytest.mark.parametrize("spec, dim, message", [
        ("const:1,0,0,1", 1, "const field is 2D but the mesh is 1D"),
        ("const:1,0,1", 2, "const field needs d*d entries, got 3"),
        ("rotated:1", 2, "rotated field needs two eigenvalues, got 'rotated:1'"),
    ], ids=["const-dim", "const-count", "rotated-one"])
    def test_bad_spec_named(self, spec, dim, message):
        with pytest.raises(FieldError) as err:
            parse_field_spec(spec, dim)
        assert str(err.value) == message

    def test_rotated_requires_positive_eigenvalues(self):
        with pytest.raises(FieldError):
            rotated_anisotropic_field(-1.0, 1.0)

    @pytest.mark.parametrize("spec", ["rotated:nan,1", "rotated:inf,1",
                                      "rotated:1,nan", "rotated:1,-inf"])
    def test_rotated_requires_finite_eigenvalues(self, spec):
        with pytest.raises(FieldError, match="finite"):
            parse_field_spec(spec, 2)


    @pytest.mark.parametrize("spec", ["const:", "const:1,x,0,1", "rotated:1e3,x",
                                      "rotated:1_000,1", "const:\u0661,0,0,1"])
    def test_bad_number_names_spec(self, spec):
        with pytest.raises(FieldError) as err:
            parse_field_spec(spec, 2)
        assert str(err.value) == f"bad number in field spec {spec!r}"


class TestElementAverage:
    def test_constant_exact(self):
        mesh = generate_uniform_mesh(2, 4)
        mat = np.array([[4.0, 1.0], [1.0, 9.0]])
        field = constant_field(mat)
        assert np.array_equal(element_averages(field, mesh)[7], mat)

    def test_rotated_determinant(self):
        mesh = generate_skew_mesh_2d(8, 20.0)
        field = rotated_anisotropic_field(1000.0, 1.0)
        dets = np.linalg.det(element_averages(field, mesh))
        assert dets == pytest.approx(np.full(mesh.n_elements, 1000.0))

    def test_average_is_barycenter_value(self):
        mesh = generate_uniform_mesh(2, 3)
        field = rotated_anisotropic_field(10.0, 1.0)
        k = 5
        x, y = mesh.vertices[mesh.elements[k]].mean(axis=0)
        r = rotation(np.pi * np.sin(x) * np.cos(y))
        assert element_averages(field, mesh)[k] == pytest.approx(
            r @ np.diag([10.0, 1.0]) @ r.T
        )

    def test_dim_mismatch(self):
        with pytest.raises(FieldError):
            element_averages(identity_field(3), generate_uniform_mesh(2, 2))


class TestSpectralBounds:
    def test_identity(self):
        assert field_spectral_bounds(identity_field(2)) == (1.0, 1.0)

    def test_rotated(self):
        assert field_spectral_bounds(rotated_anisotropic_field(1000.0, 1.0)) == (
            1.0,
            1000.0,
        )

    def test_constant_diag(self):
        field = constant_field(np.diag([4.0, 9.0]))
        assert field_spectral_bounds(field) == pytest.approx((4.0, 9.0))

    @pytest.mark.parametrize(
        "field",
        [
            rotated_anisotropic_field(1000.0, 1.0),
            rotated_anisotropic_field(3.0, 7.0),
            constant_field(np.array([[2.0, 1.0], [1.0, 2.0]])),
        ],
    )
    def test_random_points_within_bounds(self, field):
        d_min, d_max = field_spectral_bounds(field)
        rng = np.random.default_rng(11)
        points = rng.uniform(0, 1, (1000, 2))
        eigs = np.linalg.eigvalsh(_tensors_at(field, points))
        assert np.all(eigs[:, 0] >= d_min - 1e-12 * d_max)
        assert np.all(eigs[:, -1] <= d_max * (1 + 1e-12))


class TestParseSpec:
    def test_identity(self):
        assert parse_field_spec("identity", 3).spec == "identity"

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_identity_is_constant_i(self, dim):
        field = identity_field(dim)
        assert field.kind == "constant"
        assert field.spec == constant_field(np.eye(dim)).spec == "identity"
        ones = ",".join("1" if i == j else "0" for i in range(dim) for j in range(dim))
        assert parse_field_spec(f"const:{ones}", dim).spec == "identity"

    def test_const_row_major(self):
        field = parse_field_spec("const:4,0,0,9", 2)
        assert np.array_equal(field.matrix, np.diag([4.0, 9.0]))

    def test_rotated_defaults(self):
        field = parse_field_spec("rotated", 2)
        assert field.eigenvalues == (1000.0, 1.0)

    def test_rotated_explicit(self):
        field = parse_field_spec("rotated:10,2", 2)
        assert field.eigenvalues == (10.0, 2.0)

    def test_rejects_rotated_outside_2d(self):
        with pytest.raises(FieldError):
            parse_field_spec("rotated:10,2", 3)

    def test_rejects_bad_entry_count(self):
        with pytest.raises(FieldError):
            parse_field_spec("const:1,2,3", 2)

    def test_rejects_unknown(self):
        with pytest.raises(FieldError):
            parse_field_spec("checkerboard", 2)

    def test_spec_roundtrip(self):
        for spec, dim in (("identity", 1), ("const:4,1,1,9", 2), ("rotated:9,2", 2)):
            field = parse_field_spec(spec, dim)
            again = parse_field_spec(field.spec, dim)
            assert again.kind == field.kind and again.dim == field.dim
            if field.matrix is not None:
                assert np.array_equal(again.matrix, field.matrix)
            assert again.eigenvalues == field.eigenvalues


class TestSpdNorm:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_dense_eigenvalues(self, dim):
        rng = np.random.default_rng(dim)
        raw = rng.standard_normal((200, dim, dim))
        mats = raw @ raw.transpose(0, 2, 1) + 1e-6 * np.eye(dim)
        norms = spd_norm2(mats)
        for mat, norm in zip(mats, norms):
            assert norm == pytest.approx(np.linalg.eigvalsh(mat)[-1], rel=1e-12)

    def test_single_matrix(self):
        assert spd_norm2(np.diag([2.0, 5.0])) == pytest.approx(5.0)

    def test_3d_scalar_matrix(self):
        # a multiple of I has no spread about its mean, so it takes its own branch
        assert spd_norm2(2.0 * np.eye(3)[None]).tolist() == [2.0]
        mats = np.stack([3.0 * np.eye(3), np.diag([1.0, 4.0, 2.0])])
        assert spd_norm2(mats) == pytest.approx([3.0, 4.0], rel=1e-12)


class TestMappedMetric:
    def test_1d_is_d_over_h_squared(self):
        mesh = generate_uniform_mesh(1, 4)
        mats = mapped_metric_tensors(mesh, identity_field(1))
        assert mats.ravel() == pytest.approx(np.full(4, 16.0))

    def test_diagonal_stretch(self):
        # element = image of the reference simplex under diag(2, 1/2)
        ref = np.asarray(reference_simplex(2))
        verts = ref @ np.diag([2.0, 0.5])
        mesh = SimplicialMesh(
            dim=2,
            vertices=verts,
            elements=np.array([[0, 1, 2]]),
        )
        mats = mapped_metric_tensors(mesh, identity_field(2))
        assert mats[0] == pytest.approx(np.diag([0.25, 4.0]), abs=1e-13)


class TestGeometryChecks:
    """Per-element geometry that overflows is named, blaming the mesh or the
    field, and numpy's RuntimeWarning does not escape (it is an error here)."""

    def test_ill_scaled_element_blames_the_mesh(self):
        mesh = generate_uniform_mesh(2, 3)
        verts = np.array(mesh.vertices)
        verts[7] = (1.0, 1e-320)  # a valid mesh whose element 4 has |K| = 1.67e-321
        mesh = SimplicialMesh(dim=2, vertices=verts, elements=mesh.elements)
        with pytest.raises(DegenerateElementError,
                           match=r"^element 4 of the mesh is too ill-scaled"):
            mapped_metric_tensors(mesh, identity_field(2))

    @pytest.mark.parametrize("estimate, name", [
        (lambda mesh, field: quality_measures(mesh, field), "M_K"),
        (lambda mesh, field: lambda_max_geometric_bound(mesh, field), "M_K"),
        (lambda mesh, field: alt_scaling(mesh, field), "M_K"),
        (lambda mesh, field: mapped_metric_tensors(mesh, field), "M_K"),
        (lambda mesh, field: m_uniform_bound(
            mesh, field, np.broadcast_to(np.eye(2), (mesh.n_elements, 2, 2)),
            CalibrationConstant(c=1.0, dim=2, n_ref=4, field=field.spec, provenance="test")),
         "M_K D_K"),
    ], ids=["quality_measures", "lambda_max_geometric_bound", "alt_scaling",
            "mapped_metric_tensors", "m_uniform_bound"])
    def test_overflowing_field_blames_the_field(self, estimate, name):
        # these never assemble the stiffness, whose own check names the field
        field = rotated_anisotropic_field(1e308, 1.0)
        with pytest.raises(FieldError, match=f"^{name} of element 0 is not finite: "
                                             "the diffusion field overflows on this mesh$"):
            estimate(generate_uniform_mesh(2, 4), field)
