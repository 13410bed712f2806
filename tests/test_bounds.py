import dataclasses
import math
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from meshcond.assembly import (
    alt_scaling,
    apply_symmetric_scaling,
    assemble_mass,
    assemble_stiffness,
    jacobi_scaling,
)
from meshcond.bounds import (
    CalibrationConstant,
    auto_reference_subdivisions,
    calibrate_constant,
    condition_bounds,
    lambda_max_bounds,
    lambda_max_geometric_bound,
    lambda_min_bound,
    m_uniform_bound,
    mass_condition_bounds,
    quality_measures,
)
from meshcond.diffusion import (
    constant_field,
    element_averages,
    identity_field,
    parse_field_spec,
    rotated_anisotropic_field,
)
from meshcond.experiments import fit_loglog_slope, load_calibration, save_calibration
from meshcond.mesh import (
    SimplicialMesh,
    generate_chebyshev_mesh,
    generate_skew_mesh_2d,
    generate_skew_mesh_3d,
    generate_uniform_mesh,
    mesh_statistics,
    reference_simplex,
)
import meshcond.bounds as bounds_mod
import meshcond.spectral as spectral
from meshcond.experiments import analyze_mesh
from meshcond.spectral import ConvergenceError, extreme_eigenvalues, shared_inverses


class TestMassConditionBounds:
    def test_1d_uniform_two_sided(self):
        mesh = generate_uniform_mesh(1, 4)
        mb = mass_condition_bounds(mesh)
        assert mb.two_sided == pytest.approx((1.0, 3.0))
        exact = extreme_eigenvalues(assemble_mass(mesh), 1e-8).kappa
        assert mb.two_sided[0] <= exact <= mb.two_sided[1]

    def test_lower_bounds_coincide(self):
        # B_jj is proportional to the patch volume
        for mesh in (generate_chebyshev_mesh(20), generate_skew_mesh_2d(6, 9.0)):
            mb = mass_condition_bounds(mesh)
            stats = mesh_statistics(mesh)
            patch_ratio = stats.omega_max / stats.omega_min
            assert mb.two_sided[0] == pytest.approx(patch_ratio, rel=1e-12)

    def test_fried_dominates_two_sided_upper(self):
        for mesh in (generate_chebyshev_mesh(32), generate_skew_mesh_3d(4, 6.0)):
            mb = mass_condition_bounds(mesh)
            assert mb.fried >= mb.two_sided[1] * (1 - 1e-12)

    @pytest.mark.parametrize("make", [
        lambda: generate_uniform_mesh(2, 6),
        lambda: generate_chebyshev_mesh(48),
        lambda: generate_skew_mesh_2d(8, 40.0),
        lambda: generate_skew_mesh_3d(4, 12.0),
    ])
    def test_scaled_mass_mesh_independent(self, make):
        mesh = make()
        b = assemble_mass(mesh)
        scaled = apply_symmetric_scaling(b, jacobi_scaling(b))
        kappa = extreme_eigenvalues(scaled, 1e-8).kappa
        assert kappa <= mesh.dim + 2 + 1e-9


class TestLambdaMaxBounds:
    def test_1d_uniform_envelope(self):
        mesh = generate_uniform_mesh(1, 4)
        a = assemble_stiffness(mesh, identity_field(1))
        env = lambda_max_bounds(a.diagonal(), 1)
        assert env.unscaled == pytest.approx((8.0, 16.0))
        exact = extreme_eigenvalues(a, 1e-8).lambda_max
        assert env.unscaled[0] <= exact <= env.unscaled[1]

    def test_constant_diagonal(self):
        env = lambda_max_bounds(np.full(7, 5.0), 3)
        assert env.unscaled == pytest.approx((5.0, 20.0))
        assert env.scaled == (1.0, 4.0)


class TestGeometricBound:
    def test_1d_patchwise_equals_twice_max_diagonal(self):
        mesh = generate_chebyshev_mesh(32)
        field = identity_field(1)
        a = assemble_stiffness(mesh, field)
        geo = lambda_max_geometric_bound(mesh, field)
        assert geo.patchwise == pytest.approx(2.0 * a.diagonal().max(), rel=1e-12)

    @pytest.mark.parametrize("make_mesh,make_field", [
        (lambda: generate_uniform_mesh(2, 8), lambda: identity_field(2)),
        (lambda: generate_skew_mesh_2d(8, 25.0),
         lambda: rotated_anisotropic_field(1000.0, 1.0)),
        (lambda: generate_skew_mesh_3d(4, 10.0), lambda: identity_field(3)),
        (lambda: generate_chebyshev_mesh(64), lambda: identity_field(1)),
    ])
    def test_patchwise_dominates_exact(self, make_mesh, make_field):
        mesh, field = make_mesh(), make_field()
        a = assemble_stiffness(mesh, field)
        exact = extreme_eigenvalues(a, 1e-8).lambda_max
        geo = lambda_max_geometric_bound(mesh, field)
        assert geo.patchwise >= exact * (1 - 1e-9)
        assert geo.quality_form >= geo.patchwise * (1 - 1e-12)


def metric_uniform_elements(rng, dim, count):
    """Simplices equilateral in 1/D with equal metric volume."""
    ref = np.asarray(reference_simplex(dim))
    scale = rng.uniform(0.5, 2.0)
    meshes = []
    for _ in range(count):
        raw = rng.standard_normal((dim, dim))
        d_mat = raw @ raw.T + 0.2 * np.eye(dim)
        w, q = np.linalg.eigh(d_mat)
        fprime = scale * (q * np.sqrt(w)) @ q.T
        meshes.append((ref @ fprime.T, d_mat))
    return meshes


class TestQualityMeasures:
    def test_identity_element(self):
        verts = np.asarray(reference_simplex(2))
        mesh = SimplicialMesh(dim=2, vertices=verts,
                              elements=np.array([[0, 1, 2]]))
        qm = quality_measures(mesh, identity_field(2))
        assert qm.q_ali[0] == pytest.approx(1.0, abs=1e-12)
        assert qm.q_eq[0] == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_stretch_value(self):
        verts = np.asarray(reference_simplex(2)) @ np.diag([2.0, 0.5])
        mesh = SimplicialMesh(dim=2, vertices=verts,
                              elements=np.array([[0, 1, 2]]))
        qm = quality_measures(mesh, identity_field(2))
        assert qm.q_ali[0] == pytest.approx(2.125, rel=1e-12)

    def test_alignment_at_least_one_random(self):
        rng = np.random.default_rng(123)
        checked = 0
        while checked < 1000:
            dim = int(rng.integers(2, 4))
            pts = rng.standard_normal((dim + 1, dim))
            if abs(np.linalg.det(pts[1:] - pts[0])) < 0.05:
                continue
            raw = rng.standard_normal((dim, dim))
            d_mat = raw @ raw.T + 0.05 * np.eye(dim)
            from meshcond.diffusion import constant_field

            mesh = SimplicialMesh(
                dim=dim, vertices=pts,
                elements=np.arange(dim + 1)[None, :],
            )
            qm = quality_measures(mesh, constant_field(d_mat))
            assert qm.q_ali[0] >= 1.0 - 1e-10
            checked += 1

    @pytest.mark.parametrize("make_mesh,make_field", [
        (lambda: generate_uniform_mesh(2, 6), lambda: identity_field(2)),
        (lambda: generate_chebyshev_mesh(64), lambda: identity_field(1)),
        (lambda: generate_skew_mesh_2d(16, 60.0),
         lambda: rotated_anisotropic_field(1000.0, 1.0)),
        (lambda: generate_skew_mesh_3d(4, 8.0), lambda: identity_field(3)),
    ])
    def test_equidistribution_mean_identity(self, make_mesh, make_field):
        qm = quality_measures(make_mesh(), make_field())
        assert np.mean(1.0 / qm.q_eq) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_metric_uniform_configuration(self, dim):
        # a batch of elements of the form c D^(1/2) K_ref is uniform in the
        # metric 1/D: both quality measures must equal one; the field is
        # piecewise constant, so evaluate the measures per single-element
        # mesh and pool the metric volumes for the equidistribution ratio
        from meshcond.diffusion import constant_field
        from meshcond.mesh import element_volumes

        rng = np.random.default_rng(dim)
        pieces = metric_uniform_elements(rng, dim, 6)
        metric_vols = []
        for verts, d_mat in pieces:
            mesh = SimplicialMesh(dim=dim, vertices=verts,
                                  elements=np.arange(dim + 1)[None, :])
            qm = quality_measures(mesh, constant_field(d_mat))
            assert qm.q_ali[0] == pytest.approx(1.0, rel=1e-10)
            metric_vols.append(
                element_volumes(mesh)[0] / np.sqrt(np.linalg.det(d_mat))
            )
        metric_vols = np.array(metric_vols)
        q_eq = metric_vols.mean() / metric_vols
        assert q_eq == pytest.approx(np.ones(6), rel=1e-10)


class TestLambdaMinBound:
    def test_1d_uniform_tracks_pi_squared_over_n(self, cal1):
        field = identity_field(1)
        for n in (64, 256):
            mesh = generate_uniform_mesh(1, n)
            bound = lambda_min_bound(mesh, field, cal1)
            assert bound == pytest.approx(np.pi ** 2 / n, rel=1e-3)

    def test_2d_uniform_volume_factor_is_one(self, cal2):
        mesh = generate_uniform_mesh(2, 8)
        field = identity_field(2)
        bound = lambda_min_bound(mesh, field, cal2)
        assert bound == pytest.approx(cal2.c / mesh.n_elements, rel=1e-12)

    def test_chebyshev_unscaled_mesh_independent(self, cal1):
        # the 1D unscaled bound depends only on N, not on the node layout
        field = identity_field(1)
        for n in (64, 256):
            cheb = generate_chebyshev_mesh(n)
            uni = generate_uniform_mesh(1, n)
            assert lambda_min_bound(cheb, field, cal1) == pytest.approx(
                lambda_min_bound(uni, field, cal1), rel=1e-12
            )

    def test_dim_mismatch_rejected(self, cal1):
        with pytest.raises(ValueError):
            lambda_min_bound(generate_uniform_mesh(2, 4), identity_field(2), cal1)

    @pytest.mark.parametrize("make_mesh,dim", [
        (lambda: generate_chebyshev_mesh(64), 1),
        (lambda: generate_chebyshev_mesh(256), 1),
        (lambda: generate_skew_mesh_2d(32, 8.0), 2),
        (lambda: generate_skew_mesh_2d(32, 125.0), 2),
        (lambda: generate_skew_mesh_3d(8, 25.0), 3),
    ])
    def test_one_sided_after_calibration(self, make_mesh, dim, cal1, cal2, cal3):
        cal = {1: cal1, 2: cal2, 3: cal3}[dim]
        mesh = make_mesh()
        field = identity_field(dim)
        a = assemble_stiffness(mesh, field)
        exact = extreme_eigenvalues(a, 1e-8).lambda_min
        assert lambda_min_bound(mesh, field, cal) <= exact


class TestCalibration:
    def test_1d_constant_near_pi_squared(self, cal1):
        assert cal1.c == pytest.approx(np.pi ** 2, rel=0.02)

    def test_bound_matches_exact_at_calibration_point(self, cal1):
        mesh = generate_uniform_mesh(1, 1024)
        field = identity_field(1)
        bound = lambda_min_bound(mesh, field, cal1)
        exact = extreme_eigenvalues(
            assemble_stiffness(mesh, field), 1e-8
        ).lambda_min
        assert bound == pytest.approx(exact, rel=1e-12)

    def test_2d_constant_positive_finite(self, cal2):
        # reference mesh n=32 gives N = 2048 elements
        assert cal2.c > 0.0 and np.isfinite(cal2.c)
        assert cal2.n_ref == 32

    def test_rejects_tiny_reference(self):
        with pytest.raises(ValueError):
            calibrate_constant(1, identity_field(1), 3)

    def test_auto_reference_subdivisions(self):
        assert auto_reference_subdivisions(1) == 1024
        assert auto_reference_subdivisions(2) == 32
        assert auto_reference_subdivisions(3) == 8

    @pytest.mark.parametrize("dim", [-1, 0, 4])
    def test_auto_reference_subdivisions_rejects_dim(self, dim):
        # (m - 1) ** 0 is always 1, so dim 0 used to loop forever
        with pytest.raises(ValueError, match=f"dim must be 1, 2 or 3, got {dim}"):
            auto_reference_subdivisions(dim)

    def test_file_roundtrip(self, tmp_path, cal2):
        path = tmp_path / "cal.txt"
        save_calibration(cal2, path)
        back = load_calibration(path)
        assert back.dim == cal2.dim
        assert back.c == cal2.c
        assert back.n_ref == cal2.n_ref
        assert back.field == cal2.field == "identity"

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("dim = 2\nc = minus\n")
        with pytest.raises(ValueError):
            load_calibration(path)


class TestCalibrationCheck:
    """A constant holds only for the dimension and field it was fitted for."""

    @pytest.mark.parametrize("compute", [
        condition_bounds,
        lambda_min_bound,
        lambda mesh, field, cal: m_uniform_bound(
            mesh, field, np.broadcast_to(np.eye(2), (mesh.n_elements, 2, 2)), cal),
    ], ids=["condition_bounds", "lambda_min_bound", "m_uniform_bound"])
    def test_other_field_rejected(self, cal2, compute):
        mesh = generate_skew_mesh_2d(8, 4.0)
        with pytest.raises(ValueError, match=(
                r"calibration uniform dim=2 n=32 N=2048 is for d=2 field=identity, "
                r"the analysis has d=2 field=rotated:1000,1")):
            compute(mesh, rotated_anisotropic_field(1000.0, 1.0), cal2)

    def test_other_dimension_rejected(self, cal1):
        mesh = generate_skew_mesh_2d(8, 4.0)
        with pytest.raises(ValueError, match=(
                r"is for d=1 field=identity, the analysis has d=2 field=identity")):
            condition_bounds(mesh, identity_field(2), cal1)


class TestConditionBounds:
    def test_uniform_reduces_to_base_order(self, cal2):
        # with D = I on uniform meshes both estimates follow C N^(2/d)
        field = identity_field(2)
        ns, est, est_scaled = [], [], []
        for n in (8, 16, 32):
            mesh = generate_uniform_mesh(2, n)
            rep = condition_bounds(mesh, field, cal2)
            ns.append(mesh.n_elements)
            est.append(rep.est_kappa)
            est_scaled.append(rep.est_kappa_scaled)
            assert rep.factor_volume == pytest.approx(1.0, rel=1e-12)
            assert rep.factor_base == pytest.approx(
                cal2.c * mesh.n_elements, rel=1e-12
            )
        assert fit_loglog_slope(ns, est) == pytest.approx(1.0, abs=0.05)
        assert fit_loglog_slope(ns, est_scaled) == pytest.approx(1.0, abs=0.05)

    def test_chebyshev_orders(self, cal1):
        field = identity_field(1)
        ns = [128, 256, 512, 1024]
        est, est_scaled = [], []
        for n in ns:
            rep = condition_bounds(generate_chebyshev_mesh(n), field, cal1)
            est.append(rep.est_kappa)
            est_scaled.append(rep.est_kappa_scaled)
        assert fit_loglog_slope(ns, est) == pytest.approx(3.0, abs=0.15)
        # N^2 log N: slope slightly above 2
        assert fit_loglog_slope(ns, est_scaled) == pytest.approx(2.1, abs=0.15)

    def test_skew_aspect_linearity_of_estimate(self, cal2):
        field = identity_field(2)
        aspects = [4.0, 16.0, 64.0]
        est = [
            condition_bounds(generate_skew_mesh_2d(16, a), field, cal2).est_kappa
            for a in aspects
        ]
        assert fit_loglog_slope(aspects, est) == pytest.approx(1.0, abs=0.25)

    def test_estimates_bracket_exact(self, cal2):
        mesh = generate_skew_mesh_2d(16, 30.0)
        field = rotated_anisotropic_field(1000.0, 1.0)
        cal = calibrate_constant(2, field, 16)
        rep = condition_bounds(mesh, field, cal)
        assert rep.est_lambda_max_low <= rep.exact.lambda_max <= rep.est_lambda_max_high
        assert 1.0 <= rep.exact_scaled.lambda_max <= 3.0
        assert rep.est_lambda_min <= rep.exact.lambda_min
        assert rep.est_kappa >= rep.exact.kappa
        assert rep.est_kappa >= rep.est_kappa_scaled

    def test_unscaled_estimate_dominates_scaled_on_families(self, cal1, cal2, cal3):
        cases = [
            (generate_chebyshev_mesh(256), identity_field(1), cal1),
            (generate_skew_mesh_2d(32, 125.0), identity_field(2), cal2),
            (generate_skew_mesh_3d(8, 25.0), identity_field(3), cal3),
        ]
        for mesh, field, cal in cases:
            rep = condition_bounds(mesh, field, cal)
            assert rep.est_kappa >= rep.est_kappa_scaled


class TestIdentityIsConstantI:
    """identity_field(d) and constant_field(I) are one field with one spec."""

    @pytest.mark.parametrize("make_mesh, n_ref", [
        (lambda: generate_chebyshev_mesh(32), 16),
        (lambda: generate_skew_mesh_2d(6, 9.0), 8),
        (lambda: generate_skew_mesh_3d(4, 4.0), 4),
    ], ids=["1d", "2d", "3d"])
    def test_same_numbers_from_both_constructors(self, make_mesh, n_ref):
        mesh = make_mesh()
        reports, constants = [], []
        for field in (identity_field(mesh.dim), constant_field(np.eye(mesh.dim))):
            cal = calibrate_constant(mesh.dim, field, n_ref)
            constants.append(cal.c)
            reports.append(condition_bounds(mesh, field, cal))
        assert constants[0] == constants[1]
        for f in dataclasses.fields(reports[0]):
            if f.name.startswith(("est_", "factor_")):
                assert getattr(reports[0], f.name) == getattr(reports[1], f.name), f.name
        for name in ("exact", "exact_scaled"):
            a, b = getattr(reports[0], name), getattr(reports[1], name)
            assert (a.lambda_min, a.lambda_max) == (b.lambda_min, b.lambda_max)

    def test_records_compare_by_identity(self):
        meshes = [generate_uniform_mesh(2, 3) for _ in range(2)]
        fields = [constant_field(np.diag([2.0, 3.0])) for _ in range(2)]
        quality = [quality_measures(meshes[0], fields[0]) for _ in range(2)]
        for a, b in (meshes, fields, quality):
            assert a == a and a != b
            assert len({a, b}) == 2


class TestSharedFactorization:
    """Both lambda_min solves of condition_bounds use one LU of A."""

    @staticmethod
    def case():
        mesh = generate_skew_mesh_2d(16, 8.0)
        field = rotated_anisotropic_field(100.0, 1.0)
        return mesh, field, assemble_stiffness(mesh, field)

    @staticmethod
    def direct_lambda_min(a, opinv=None):
        """lambda_min from ``eigsh`` with spectral's settings; it factors A
        itself with SuperLU's defaults unless ``opinv`` is given."""
        import scipy.sparse.linalg as spla

        n = a.shape[0]
        ncv = min(n - 1, spectral._LM_NCV)
        w, _ = spla.eigsh(a.tocsc(), k=1, sigma=0.0, which="LM",
                          tol=1e-8 * spectral._LM_TOL_FACTOR,
                          maxiter=spectral._lanczos_maxiter(n, ncv), ncv=ncv,
                          v0=np.random.default_rng(0).standard_normal(n), OPinv=opinv)
        return w[0]

    def test_one_splu_per_stiffness_matrix(self, cal2, splu_calls):
        # 64 unknowns (uniform n=9) take dense eigh, which reads no LU, so none is made
        for mesh, lus in ((self.case()[0], 1), (generate_uniform_mesh(2, 9), 0),
                          (generate_uniform_mesh(2, 10), 1)):
            splu_calls.clear()
            rep = condition_bounds(mesh, identity_field(2), cal2)
            assert splu_calls == [(mesh.n_interior, mesh.n_interior)] * lus
            assert rep.exact is not None and rep.exact_scaled is not None

    def test_one_splu_per_calibration(self, splu_calls):
        calibrate_constant(2, identity_field(2), 16)
        assert splu_calls == [(15 ** 2, 15 ** 2)]

    def test_calibration_bit_identical_to_direct_eigsh(self):
        from meshcond.bounds import _volume_factor
        from meshcond.diffusion import field_spectral_bounds
        from meshcond.mesh import element_volumes

        mesh, field = generate_uniform_mesh(2, 16), rotated_anisotropic_field(100.0, 1.0)
        lmin = self.direct_lambda_min(assemble_stiffness(mesh, field))
        d_min, _ = field_spectral_bounds(field)
        raw = d_min / mesh.n_elements / _volume_factor(element_volumes(mesh), 2)
        assert calibrate_constant(2, field, 16).c == lmin / raw

    @pytest.mark.parametrize("dim, n_ref", [(1, 1024), (2, 32), (3, 8)])
    def test_fixture_calibration_bit_identical_to_direct_eigsh(self, request, dim, n_ref):
        # SuperLU's symmetric options would move these c by about 2.5e-13,
        # 1.1e-14 and 1.6e-16 relative, so the calibration keeps the defaults
        from meshcond.bounds import _volume_factor
        from meshcond.mesh import element_volumes

        cal = request.getfixturevalue(f"cal{dim}")
        mesh = generate_uniform_mesh(dim, n_ref)
        lmin = self.direct_lambda_min(assemble_stiffness(mesh, identity_field(dim)))
        raw = 1.0 / mesh.n_elements / _volume_factor(element_volumes(mesh), dim)
        assert cal.n_ref == n_ref and cal.c == lmin / raw

    def test_lambda_min_bit_identical_to_direct_eigsh(self):
        import scipy.sparse.linalg as spla

        mesh, rotated, _ = self.case()
        # the identity field cancels many couplings exactly, the rotated one none
        for field in (rotated, identity_field(2)):
            a = assemble_stiffness(mesh, field)
            cal = calibrate_constant(2, field, 8)
            lmin = condition_bounds(mesh, field, cal, 1e-8).exact.lambda_min
            # the LU shared by a row's solves is on SuperLU's options for an
            # SPD matrix
            solve = spla.splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A",
                              diag_pivot_thresh=0.0, options={"SymmetricMode": True}).solve
            opinv = spla.LinearOperator(a.shape, matvec=solve, dtype=float)
            assert lmin == self.direct_lambda_min(a, opinv)

    def test_shared_lu_is_symmetric_with_less_fill(self, monkeypatch):
        import scipy.sparse.linalg as spla

        a = assemble_stiffness(generate_skew_mesh_3d(8, 25.0), identity_field(3))
        lus = []

        def kept(mat, *args, _real=spla.splu, **kwargs):
            lus.append(_real(mat, *args, **kwargs))
            return lus[-1]

        monkeypatch.setattr(spectral.spla, "splu", kept)
        shared_inverses(a, jacobi_scaling(a))
        monkeypatch.undo()
        (lu,) = lus
        defaults = spla.splu(a.tocsc())
        # one symmetric permutation, so U's diagonal is the D of an LDL^T
        assert np.array_equal(lu.perm_r, lu.perm_c)
        assert lu.L.nnz + lu.U.nnz < defaults.L.nnz + defaults.U.nnz

    def test_scaled_lambda_min_matches_own_factorization(self):
        mesh, field, a = self.case()
        cal = calibrate_constant(2, field, 8)
        scaled = apply_symmetric_scaling(a, jacobi_scaling(a))
        own = extreme_eigenvalues(scaled, 1e-8)
        rep = condition_bounds(mesh, field, cal)
        assert rep.exact_scaled.lambda_min == pytest.approx(own.lambda_min, rel=1e-12)
        assert rep.exact_scaled.lambda_max == own.lambda_max

    def test_failed_scaled_solve_keeps_exact(self, monkeypatch):
        mesh, field, a = self.case()
        cal = calibrate_constant(2, field, 8)
        ok = condition_bounds(mesh, field, cal)
        real = spectral.spla.eigsh

        def fail_scaled(mat, *args, **kwargs):
            if kwargs.get("sigma") is not None and np.allclose(mat.diagonal(), 1.0):
                raise spectral.spla.ArpackNoConvergence("forced", [], [])
            return real(mat, *args, **kwargs)

        monkeypatch.setattr(spectral.spla, "eigsh", fail_scaled)
        rep = condition_bounds(mesh, field, cal)
        assert rep.exact_scaled is None
        assert rep.exact == ok.exact


def _same(a, b):
    """Equality of reports, rows and their fields, with NaN equal to NaN."""
    if dataclasses.is_dataclass(a) and dataclasses.is_dataclass(b):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


@pytest.fixture
def pools(monkeypatch):
    """The helper pools condition_bounds starts, one list entry each."""
    started = []

    class Counted(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(bounds_mod, "ThreadPoolExecutor", Counted)
    return started


def _is_scaled(mat):
    return np.allclose(mat.diagonal(), 1.0)


@pytest.mark.parametrize("env, cpus, expected", [
    ({}, 2, 1),
    ({var: "1" for var in bounds_mod._BLAS_THREAD_VARS}, 2, 2),
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 2, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, None, 1),
    ({var: "1" for var in bounds_mod._BLAS_THREAD_VARS}, 1, 1),
    ({"MKL_NUM_THREADS": "1"}, 2, 1),
    ({"BLIS_NUM_THREADS": "1"}, 2, 1),
    ({"OMP_NUM_THREADS": "1"}, 2, 2),
], ids=["unset", "all-one", "openblas-one", "omp-four", "no-affinity-call", "one-cpu",
        "mkl-only", "blis-only", "omp-one"])
def test_parallel_cpus(monkeypatch, env, cpus, expected):
    for var in bounds_mod._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
    assert bounds_mod._parallel_cpus() == expected


class TestConcurrentHalves:
    """With two usable CPUs and one BLAS thread, condition_bounds solves the
    Jacobi-scaled half in a helper thread, with the serial run's results."""

    @staticmethod
    def case():
        field = rotated_anisotropic_field(1000.0, 1.0)
        return generate_skew_mesh_2d(12, 16.0), field, calibrate_constant(2, field, 8)

    @pytest.mark.parametrize("make_case", [
        lambda cal1, cal3: TestConcurrentHalves.case(),
        lambda cal1, cal3: (generate_skew_mesh_2d(10, 128.0), identity_field(2),
                            calibrate_constant(2, identity_field(2), 8)),
        lambda cal1, cal3: (generate_skew_mesh_3d(6, 25.0), identity_field(3), cal3),
        lambda cal1, cal3: (generate_skew_mesh_3d(5, 4.0), identity_field(3), cal3),
        # a 1D mesh splits its halves too
        lambda cal1, cal3: (generate_chebyshev_mesh(256), identity_field(1), cal1),
    ], ids=["skew2d-rotated", "skew2d-a128", "skew3d-a25", "skew3d-a4", "chebyshev"])
    def test_one_and_two_cpus_agree(self, make_case, cal1, cal3, use_cpus, pools):
        mesh, field, cal = make_case(cal1, cal3)
        reports, rows = [], []
        for cpus in (1, 2):
            use_cpus(cpus)
            reports.append(condition_bounds(mesh, field, cal))
            rows.append(analyze_mesh(mesh, field, cal, n_label=6, aspect_label=4.0))
            assert len(pools) == 2 * (cpus - 1)
            assert threading.active_count() == 1
        assert reports[0].exact is not None and reports[0].exact_scaled is not None
        assert _same(reports[0], reports[1])
        assert _same(rows[0][0], rows[1][0]) and rows[0][1] == rows[1][1]

    @pytest.mark.parametrize("fail_scaled", [False, True], ids=["unscaled", "scaled"])
    def test_convergence_error_blanks_its_half(self, monkeypatch, use_cpus, pools,
                                               fail_scaled):
        mesh, field, cal = self.case()
        use_cpus(1)
        serial = condition_bounds(mesh, field, cal)
        real = bounds_mod.extreme_eigenvalues

        def fake(mat, *args, **kwargs):
            if _is_scaled(mat) == fail_scaled:
                raise ConvergenceError("forced")
            return real(mat, *args, **kwargs)

        monkeypatch.setattr(bounds_mod, "extreme_eigenvalues", fake)
        use_cpus(2)
        rep = condition_bounds(mesh, field, cal)
        assert len(pools) == 1
        failed, kept = ("exact_scaled", "exact") if fail_scaled else ("exact", "exact_scaled")
        assert getattr(rep, failed) is None
        assert getattr(rep, kept) == getattr(serial, kept)

    @pytest.mark.parametrize("failing, message", [
        # the scaled half fails first in time, yet the unscaled error wins
        ({"unscaled", "scaled"}, "unscaled"),
        ({"scaled"}, "scaled"),
        ({"unscaled"}, "unscaled"),
    ], ids=["both", "scaled", "unscaled"])
    def test_error_of_serial_run_is_raised(self, monkeypatch, use_cpus, pools,
                                           failing, message):
        mesh, field, cal = self.case()
        real = bounds_mod.extreme_eigenvalues

        def fake(mat, *args, **kwargs):
            half = "scaled" if _is_scaled(mat) else "unscaled"
            if half == "unscaled":
                time.sleep(0.05)
            if half in failing:
                raise ValueError(half)
            return real(mat, *args, **kwargs)

        monkeypatch.setattr(bounds_mod, "extreme_eigenvalues", fake)
        for cpus in (1, 2):
            use_cpus(cpus)
            with pytest.raises(ValueError, match=f"^{message}$"):
                condition_bounds(mesh, field, cal)
            assert threading.active_count() == 1
        assert len(pools) == 1

    def test_native_thread_keeps_halves_serial(self, monkeypatch, use_cpus, pools):
        # a BLAS thread variable other than 1 lets the BLAS run threads of its own
        use_cpus(2)
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        condition_bounds(*self.case())
        assert pools == []

    def test_one_cpu_keeps_halves_serial(self, use_cpus, pools):
        use_cpus(1)
        condition_bounds(*self.case())
        assert pools == []

    def test_concurrent_solves_bitwise_equal_to_sequential(self):
        # both solves of one factor, each from two threads, with a short switch interval
        a = assemble_stiffness(generate_skew_mesh_3d(8, 25.0), identity_field(3))
        solves = 2 * shared_inverses(a, jacobi_scaling(a))
        rhs = np.random.default_rng(3).standard_normal((4, 40, a.shape[0]))

        def run(solve, xs):
            return [solve(x).tobytes() for x in xs]

        sequential = [run(solve, xs) for solve, xs in zip(solves, rhs)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                concurrent = list(pool.map(run, solves, rhs, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert concurrent == sequential


class TestMUniformBound:
    def test_inverse_diffusion_metric_reduces(self, cal2):
        mesh = generate_skew_mesh_2d(8, 12.0)
        field = rotated_anisotropic_field(1000.0, 1.0)
        cal = calibrate_constant(2, field, 8)
        metric = np.linalg.inv(element_averages(field, mesh))
        got = m_uniform_bound(mesh, field, metric, cal)
        qm = quality_measures(mesh, field)
        d_min = 1.0
        expected = cal.c / d_min * (mesh.n_elements / qm.sigma_h)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_identity_metric_uniform_mesh(self, cal2):
        mesh = generate_uniform_mesh(2, 8)
        field = identity_field(2)
        metric = np.broadcast_to(np.eye(2), (mesh.n_elements, 2, 2))
        got = m_uniform_bound(mesh, field, metric, cal2)
        assert got == pytest.approx(cal2.c * mesh.n_elements, rel=1e-12)

    def test_product_norm_is_one_for_inverse(self):
        mesh = generate_skew_mesh_2d(6, 7.0)
        field = rotated_anisotropic_field(100.0, 1.0)
        dk = element_averages(field, mesh)
        prod = np.linalg.inv(dk) @ dk
        assert prod == pytest.approx(
            np.broadcast_to(np.eye(2), prod.shape), abs=1e-12
        )

    @pytest.mark.parametrize("bad, cause", [
        (np.diag([1.0, -1.0]), "not positive definite"),
        (np.full((2, 2), np.nan), "not finite"),
        (np.array([[1.0, 0.5], [0.0, 1.0]]), "not symmetric"),
    ])
    def test_bad_metric_everywhere_rejected(self, cal2, bad, cause):
        mesh = generate_uniform_mesh(2, 8)
        metric = np.broadcast_to(bad, (mesh.n_elements, 2, 2))
        with pytest.raises(ValueError, match=f"element 0 is {cause}"):
            m_uniform_bound(mesh, identity_field(2), metric, cal2)

    def test_metric_of_wrong_shape_rejected(self, cal2):
        mesh = generate_uniform_mesh(2, 8)
        metric = np.tile(np.eye(3), (mesh.n_elements, 1, 1))
        with pytest.raises(ValueError) as err:
            m_uniform_bound(mesh, identity_field(2), metric, cal2)
        assert str(err.value) == "metric must have shape (ne, d, d), got (128, 3, 3)"

    @pytest.mark.parametrize("bad, cause", [
        (np.diag([1.0, 0.0]), "not positive definite"),
        (np.array([[1.0, np.inf], [np.inf, 1.0]]), "not finite"),
        (np.array([[1.0, 0.5], [0.5 + 1e-9, 1.0]]), "not symmetric"),
    ])
    def test_first_bad_element_named(self, cal2, bad, cause):
        mesh = generate_uniform_mesh(2, 8)
        metric = np.tile(np.eye(2), (mesh.n_elements, 1, 1))
        metric[17] = bad
        metric[40] = np.full((2, 2), np.nan)
        with pytest.raises(ValueError, match=f"element 17 is {cause}"):
            m_uniform_bound(mesh, identity_field(2), metric, cal2)


def _pinned_cal(mesh, field):
    """A fixed constant, so that every estimate depends on the geometry only."""
    return CalibrationConstant(c=2.5, dim=mesh.dim, n_ref=0, field=field.spec,
                               provenance="pinned")


class TestOneGeometryPass:
    """Each estimate derives the per-element geometry once per (mesh, field)."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import collections

        import meshcond.assembly as assembly_mod
        import meshcond.bounds as bounds_mod
        import meshcond.diffusion as diffusion_mod
        import meshcond.mesh as mesh_mod

        counts = collections.Counter()

        def counting(label, real):
            def counted(*args, **kwargs):
                counts[label] += 1
                return real(*args, **kwargs)
            return counted

        # element vertex gathers, averages of D, and the edge-matrix
        # determinant and inverses, counted on every name a module looks up
        names = {"element_edge_matrices": "gathers", "element_volumes": "gathers",
                 "element_averages": "averages"}
        for module in (mesh_mod, diffusion_mod, assembly_mod, bounds_mod):
            for name, label in names.items():
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(label, getattr(module, name)))
        monkeypatch.setattr(np.linalg, "det", counting("det", np.linalg.det))
        monkeypatch.setattr(np.linalg, "inv", counting("inv", np.linalg.inv))
        return counts

    @pytest.fixture
    def case(self):
        mesh = generate_skew_mesh_2d(12, 16.0)
        field = rotated_anisotropic_field(1000.0, 1.0)
        return mesh, field, _pinned_cal(mesh, field)

    def test_condition_bounds(self, case, calls):
        condition_bounds(*case)
        assert calls == {"gathers": 1, "averages": 1, "det": 1, "inv": 2}

    @pytest.mark.parametrize("estimate", [
        lambda mesh, field, cal: alt_scaling(mesh, field),
        lambda mesh, field, cal: quality_measures(mesh, field),
        lambda mesh, field, cal: lambda_max_geometric_bound(mesh, field),
        lambda mesh, field, cal: lambda_min_bound(mesh, field, cal, scaled=True),
        lambda mesh, field, cal: m_uniform_bound(
            mesh, field, np.broadcast_to(np.eye(2), (mesh.n_elements, 2, 2)), cal),
    ], ids=["alt_scaling", "quality_measures", "lambda_max_geometric_bound",
            "lambda_min_bound", "m_uniform_bound"])
    def test_every_estimate(self, case, calls, estimate):
        estimate(*case)
        assert (calls["gathers"], calls["averages"]) == (1, 1)


# Every estimate column of condition_bounds, recorded with c = 2.5 before
# the per-element geometry moved into one record.  A change of formula must
# update these values and say why.
PINNED_ESTIMATES = {
    "chebyshev-256": {
        "est_lambda_min": 0.009765625,
        "est_lambda_min_scaled": 6.941089118829758e-06,
        "est_lambda_max_low": 118592.12940293406,
        "est_lambda_max_high": 237184.25880586813,
        "est_lambda_max_scaled_low": 1.0,
        "est_lambda_max_scaled_high": 2.0,
        "est_kappa": 24287668.101720896,
        "est_kappa_scaled": 288139.2193300628,
        "factor_base": 163840.0,
        "factor_d_nonuniformity": 463.2505054802112,
        "factor_d_nonuniformity_scaled": 5.495819460488564,
        "factor_volume": 1.0,
    },
    "skew2d-16-a64-rotated": {
        "est_lambda_min": 0.0009464863655758829,
        "est_lambda_min_scaled": 1.6198434170888764e-07,
        "est_lambda_max_low": 64572.45494972323,
        "est_lambda_max_high": 193717.36484916968,
        "est_lambda_max_scaled_low": 1.0,
        "est_lambda_max_scaled_high": 3.0,
        "est_kappa": 204670000.42975128,
        "est_kappa_scaled": 18520308.61965344,
        "factor_base": 1280.0,
        "factor_d_nonuniformity": 177056.0785710409,
        "factor_d_nonuniformity_scaled": 3697.9703131259816,
        "factor_volume": 5.1588830833596715,
    },
    "skew3d-6-a25": {
        "est_lambda_min": 0.0013990350411903025,
        "est_lambda_min_scaled": 0.0007439692662114251,
        "est_lambda_max_low": 4.918367346938751,
        "est_lambda_max_high": 19.673469387755006,
        "est_lambda_max_scaled_low": 1.0,
        "est_lambda_max_scaled_high": 4.0,
        "est_kappa": 14062.17057366681,
        "est_kappa_scaled": 5376.566185817761,
        "factor_base": 297.17345240051634,
        "factor_d_nonuniformity": 419.6602236374038,
        "factor_d_nonuniformity_scaled": 28.269297265550943,
        "factor_volume": 1.3788163190235776,
    },
    "uniform3d-4-const": {
        "est_lambda_min": 0.012240149107519874,
        "est_lambda_min_scaled": 0.014972574336633723,
        "est_lambda_max_low": 3.9333333333333362,
        "est_lambda_max_high": 15.733333333333345,
        "est_lambda_max_scaled_low": 1.0,
        "est_lambda_max_scaled_high": 4.0,
        "est_kappa": 1285.3873915365455,
        "est_kappa_scaled": 267.1551271055047,
        "factor_base": 132.07708995578503,
        "factor_d_nonuniformity": 75.8507519330469,
        "factor_d_nonuniformity_scaled": 3.1605018420839874,
        "factor_volume": 1.0,
    },
}

PINNED_CASES = {
    "chebyshev-256": (lambda: generate_chebyshev_mesh(256), "identity"),
    "skew2d-16-a64-rotated": (lambda: generate_skew_mesh_2d(16, 64.0), "rotated:1000,1"),
    "skew3d-6-a25": (lambda: generate_skew_mesh_3d(6, 25.0), "identity"),
    "uniform3d-4-const": (lambda: generate_uniform_mesh(3, 4),
                          "const:4,1,0.5,1,3,0.2,0.5,0.2,2"),
}


@pytest.mark.parametrize("name", sorted(PINNED_CASES))
def test_pinned_estimates(name):
    make, spec = PINNED_CASES[name]
    mesh = make()
    field = parse_field_spec(spec, mesh.dim)
    report = condition_bounds(mesh, field, _pinned_cal(mesh, field))
    got = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)
           if f.name.startswith(("est_", "factor_"))}
    assert got.keys() == PINNED_ESTIMATES[name].keys()
    for column, value in PINNED_ESTIMATES[name].items():
        assert got[column] == pytest.approx(value, rel=1e-13), column
