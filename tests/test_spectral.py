import re
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from meshcond.assembly import (
    apply_symmetric_scaling,
    assemble_mass,
    assemble_stiffness,
    jacobi_scaling,
)
from meshcond.diffusion import identity_field, rotated_anisotropic_field
from meshcond.mesh import (
    generate_chebyshev_mesh,
    generate_skew_mesh_2d,
    generate_skew_mesh_3d,
    generate_uniform_mesh,
)
import meshcond.spectral as spectral
from meshcond.spectral import (
    ConvergenceError,
    cg_iteration_count,
    dense_eigenvalues_oracle,
    extreme_eigenvalues,
)


def stiffness_1d_eigs(n):
    """Closed-form spectrum of the 1D uniform stiffness matrix."""
    h = 1.0 / n
    k = np.arange(1, n)
    return np.sort((2.0 / h) * (1.0 - np.cos(k * np.pi * h)))


def mass_1d_kappa(n):
    """Closed-form condition number of the 1D uniform mass matrix."""
    return (2.0 + np.cos(np.pi / n)) / (2.0 + np.cos((n - 1) * np.pi / n))


def random_spd(rng, n, cond=None):
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    if cond is None:
        w = rng.uniform(0.5, 50.0, n)
    else:
        w = np.geomspace(1.0, cond, n)
    return (q * w) @ q.T


class TestExtremeEigenvalues:
    def test_1d_uniform_closed_form(self):
        mesh = generate_uniform_mesh(1, 4)
        a = assemble_stiffness(mesh, identity_field(1))
        result = extreme_eigenvalues(a, 1e-8)
        assert result.lambda_max == pytest.approx(8.0 * (1 + np.sqrt(2) / 2), rel=1e-10)
        assert result.lambda_min == pytest.approx(8.0 * (1 - np.sqrt(2) / 2), rel=1e-10)
        assert result.kappa == pytest.approx(3.0 + 2.0 * np.sqrt(2), rel=1e-10)

    def test_identity_matrix(self):
        result = extreme_eigenvalues(sp.identity(10, format="csr"), 1e-8)
        assert (result.lambda_min, result.lambda_max, result.kappa) == (1.0, 1.0, 1.0)

    def test_1d_mass_kappa(self):
        mesh = generate_uniform_mesh(1, 4)
        b = assemble_mass(mesh)
        result = extreme_eigenvalues(b, 1e-8)
        assert result.kappa == pytest.approx(mass_1d_kappa(4), rel=1e-10)
        assert result.kappa == pytest.approx(2.0938, abs=5e-5)

    def test_rejects_bad_tolerance(self):
        a = sp.identity(4, format="csr")
        with pytest.raises(ValueError):
            extreme_eigenvalues(a, 1e-3)
        with pytest.raises(ValueError):
            extreme_eigenvalues(a, 0.0)

    def test_random_spd_matches_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            n = int(rng.integers(4, 201))
            mat = random_spd(rng, n)
            result = extreme_eigenvalues(sp.csr_matrix(mat), 1e-8)
            oracle = dense_eigenvalues_oracle(mat)
            assert result.lambda_min == pytest.approx(oracle[0], rel=1e-8)
            assert result.lambda_max == pytest.approx(oracle[-1], rel=1e-8)

    def test_kappa_scale_invariant(self):
        mesh = generate_uniform_mesh(2, 12)
        a = assemble_stiffness(mesh, identity_field(2))
        k1 = extreme_eigenvalues(a, 1e-8).kappa
        k2 = extreme_eigenvalues(a * 37.5, 1e-8).kappa
        assert k2 == pytest.approx(k1, rel=1e-12)

    def test_scaled_matrix_lambda_max_at_least_one(self):
        # unit diagonal forces lambda_max >= e_j^T M e_j = 1
        mesh = generate_chebyshev_mesh(128)
        a = assemble_stiffness(mesh, identity_field(1))
        scaled = apply_symmetric_scaling(a, jacobi_scaling(a))
        result = extreme_eigenvalues(scaled, 1e-8)
        assert result.lambda_max >= 1.0 - 1e-12

    def test_small_path_measures_its_residual(self, monkeypatch):
        def no_oracle(mat):
            raise AssertionError("the small path must not call the oracle")

        monkeypatch.setattr(spectral, "dense_eigenvalues_oracle", no_oracle)
        a = assemble_stiffness(generate_chebyshev_mesh(64), identity_field(1))
        for mat in (a, apply_symmetric_scaling(a, jacobi_scaling(a))):
            assert mat.shape[0] == 63
            eigs = np.linalg.eigvalsh(mat.toarray())
            result = extreme_eigenvalues(mat, 1e-8)
            assert result.lambda_min == pytest.approx(eigs[0], rel=1e-12)
            assert result.lambda_max == pytest.approx(eigs[-1], rel=1e-12)
            assert 0.0 < result.rel_tol_achieved <= 1e-8
            # a measured residual, so a tolerance below it is refused
            with pytest.raises(ConvergenceError, match="residual"):
                extreme_eigenvalues(mat, 1e-18)

    @pytest.mark.parametrize("routine, order", [("eigh", 40),
                                                ("eigh_tridiagonal", 200)])
    def test_lapack_failure_is_convergence_error(self, monkeypatch, routine, order):
        def fail(*args, **kwargs):
            raise scipy.linalg.LinAlgError("failed to converge")

        monkeypatch.setattr(spectral.scipy.linalg, routine, fail)
        a = assemble_stiffness(generate_uniform_mesh(1, order + 1), identity_field(1))
        with pytest.raises(ConvergenceError, match=f"LAPACK {routine} did not converge"):
            extreme_eigenvalues(a, 1e-8)


# mass matrices on the two-ended Lanczos, tridiagonal and dense paths
MASS_MESHES = {
    "skew2d": lambda: generate_skew_mesh_2d(16, 8.0),
    "skew3d": lambda: generate_skew_mesh_3d(8, 25.0),
    "uniform1d": lambda: generate_uniform_mesh(1, 300),
    "uniform2d": lambda: generate_uniform_mesh(2, 24),
    "uniform3d": lambda: generate_uniform_mesh(3, 8),
    "chebyshev": lambda: generate_chebyshev_mesh(512),
    "dense": lambda: generate_uniform_mesh(2, 6),
}


def _wathen_bound(mass):
    return 0.5 * mass.diagonal().min()


class TestLowerBound:
    """A proven lower bound on lambda_min either proves kappa small, and plain
    Lanczos returns both ends, or moves the shift-invert pole up to it."""

    @pytest.mark.parametrize("case", ["skew2d", "uniform2d", "chebyshev", "dense"])
    def test_shifted_solve_agrees(self, monkeypatch, splu_calls, case):
        mass = assemble_mass(MASS_MESHES[case]())
        bound = _wathen_bound(mass)
        direct = extreme_eigenvalues(mass, 1e-8)
        calls = _eigsh_calls(monkeypatch)
        shifted = extreme_eigenvalues(mass, 1e-8, lower_bound=bound)
        assert shifted.lambda_min == pytest.approx(direct.lambda_min, rel=1e-12)
        assert shifted.lambda_min >= bound
        if case == "dense":
            assert mass.shape[0] <= 64 and calls == [] and splu_calls == []
            assert shifted.lambda_max == direct.lambda_max
        elif case == "chebyshev":
            # a pole just below the bound, and one LU per solve, none by ARPACK
            (pole,) = calls
            assert 0.99 * bound < pole["sigma"] < bound
            assert splu_calls == [mass.shape] * 2
            assert shifted.lambda_max == direct.lambda_max
        else:
            # kappa is proven small: no pole and no LU; only the direct solve factors
            assert spectral._gershgorin(mass) <= spectral._LANCZOS_KAPPA_MAX * bound
            assert calls == [] and splu_calls == [mass.shape]
            eigs = scipy.linalg.eigvalsh(mass.toarray())
            assert shifted.lambda_max == pytest.approx(direct.lambda_max, rel=1e-12)
            assert shifted.lambda_max == pytest.approx(eigs[-1], rel=1e-10)
            assert shifted.lambda_min == pytest.approx(eigs[0], rel=1e-10)

    @pytest.mark.parametrize("case", ["skew2d", "chebyshev", "dense"])
    def test_bound_above_lambda_min_raises(self, case):
        mass = assemble_mass(MASS_MESHES[case]())
        lmin = extreme_eigenvalues(mass, 1e-8).lambda_min
        with pytest.raises(ValueError, match="below its proven lower bound"):
            extreme_eigenvalues(mass, 1e-8, lower_bound=lmin * (1.0 + 1e-4))

    @pytest.mark.parametrize("bound", [-1.0, float("nan"), float("inf")])
    def test_rejects_bad_bound(self, bound):
        with pytest.raises(ValueError, match="lower_bound"):
            extreme_eigenvalues(sp.identity(4, format="csr"), 1e-8, lower_bound=bound)


def _eigsh_calls(monkeypatch):
    """Record the keyword arguments of every ``eigsh`` call spectral makes."""
    calls = []
    real = spectral.spla.eigsh

    def recorded(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral.spla, "eigsh", recorded)
    return calls


def _assert_only_shift_invert(calls, n, rel_tol=1e-8):
    """The one eigsh call is the lambda_min shift-invert, with its settings."""
    assert [c.get("which") for c in calls] == ["LM"]
    (bottom,) = calls
    assert spectral._LM_NCV == 32 and bottom["ncv"] == min(n - 1, 32)
    assert bottom["tol"] == rel_tol * 1e-2 == rel_tol * spectral._LM_TOL_FACTOR
    assert bottom["maxiter"] == max(100, 50 * n // 32)
    assert bottom["sigma"] == 0.0
    assert np.array_equal(bottom["v0"], np.random.default_rng(0).standard_normal(n))


class TestArpackSettings:
    """ARPACK runs only the shift-invert lambda_min solve, with its own settings."""

    @pytest.mark.parametrize("rel_tol", [1e-8, 1e-10])
    @pytest.mark.parametrize("scaled", [False, True], ids=["unscaled", "scaled"])
    def test_each_solve_gets_its_settings(self, monkeypatch, rel_tol, scaled):
        a = assemble_stiffness(generate_skew_mesh_2d(16, 8.0),
                               rotated_anisotropic_field(100.0, 1.0))
        mat = _scaled(a) if scaled else a
        calls = _eigsh_calls(monkeypatch)
        result = extreme_eigenvalues(mat, rel_tol)
        _assert_only_shift_invert(calls, mat.shape[0], rel_tol)
        eigs = scipy.linalg.eigvalsh(mat.toarray())
        assert result.lambda_max == pytest.approx(eigs[-1], rel=1e-8)
        assert 0.0 < result.rel_tol_achieved <= rel_tol

    @pytest.mark.parametrize("rel_tol", [1e-8, 1e-10])
    @pytest.mark.parametrize("scaled", [False, True], ids=["unscaled", "scaled"])
    def test_high_aspect_matches_dense(self, rel_tol, scaled):
        # the benchmark's aspect and field on a mesh a dense solver can take
        a = assemble_stiffness(generate_skew_mesh_2d(32, 128.0),
                               rotated_anisotropic_field(1000.0, 1.0))
        mat = _scaled(a) if scaled else a
        assert mat.shape[0] == 961
        eigs = scipy.linalg.eigvalsh(mat.toarray())
        result = extreme_eigenvalues(mat, rel_tol)
        assert result.lambda_max == pytest.approx(eigs[-1], rel=1e-8)
        assert result.lambda_min == pytest.approx(eigs[0], rel=1e-8)
        assert 0.0 < result.rel_tol_achieved <= rel_tol


class TestPolished:
    """Inverse iteration on a lambda_min pair only when it misses rel_tol."""

    @staticmethod
    def _case():
        a = sp.diags([1.0, 10.0, 50.0, 90.0]).tocsr()
        return a, spectral._shifted_inverse(a, 0.0)

    def test_passing_pair_is_returned_as_it_is(self):
        a, solve = self._case()
        vec = np.array([1.0, 1e-12, 0.0, 0.0])
        pair = (1.0, vec)
        lam, out = spectral._polished(a, pair, solve, 1e-8)
        assert lam == 1.0 and out is vec

    def test_missing_pair_is_sharpened(self):
        a, solve = self._case()
        vec = np.array([1.0, 1e-4, 1e-4, 1e-4])
        vec /= np.linalg.norm(vec)
        lam = float(vec @ (a @ vec))
        before = spectral._relative_residual(a, lam, vec)
        lam2, vec2 = spectral._polished(a, (lam, vec), solve, 1e-8)
        after = spectral._relative_residual(a, lam2, vec2)
        assert before > 1e-8 and after < before / 50
        assert lam2 == pytest.approx(1.0, rel=1e-8)


class TestPlainLanczos:
    """lambda_max by two-pass plain Lanczos: no basis, no ARPACK."""

    def test_identity_stops_at_breakdown_without_warning(self):
        # beta_1 is rounding noise, below tol * alpha_1, so the first step stops
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = extreme_eigenvalues(sp.identity(100, format="csr"), 1e-8)
        assert result.lambda_max == pytest.approx(1.0, rel=4 * np.finfo(float).eps)
        assert result.lambda_min == pytest.approx(1.0, rel=4 * np.finfo(float).eps)

    def test_exact_breakdown_divides_by_nothing(self):
        # from a multiple of e_1 the first step gives beta_1 = 0 exactly
        a = sp.identity(100, format="csr")
        start = np.zeros(100)
        start[0] = 2.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ((lam, vec),) = spectral._lanczos_eigenpairs(a, start, 1e-9)
        assert lam == 1.0
        assert np.array_equal(vec, start / 2.0)

    def test_diagonal_extremes(self):
        a = sp.diags(np.arange(1.0, 201.0)).tocsr()
        result = extreme_eigenvalues(a, 1e-8)
        assert result.lambda_max == pytest.approx(200.0, rel=1e-10)
        assert result.lambda_min == pytest.approx(1.0, rel=1e-10)
        assert 0.0 < result.rel_tol_achieved <= 1e-8

    def test_starts_from_the_seeded_vector(self, monkeypatch):
        starts = []
        real = spectral._lanczos_eigenpairs

        def recorded(a, start, tol, bottom=False):
            starts.append((start, tol, bottom))
            return real(a, start, tol, bottom)

        monkeypatch.setattr(spectral, "_lanczos_eigenpairs", recorded)
        a = assemble_stiffness(generate_skew_mesh_2d(16, 8.0), identity_field(2))
        extreme_eigenvalues(a, 1e-8)
        mass = assemble_mass(generate_skew_mesh_2d(16, 8.0))
        extreme_eigenvalues(mass, 1e-8, lower_bound=_wathen_bound(mass))
        seeded = np.random.default_rng(0).standard_normal(a.shape[0])
        # the stiffness asks for the top pair only, the mass for both ends
        assert [(tol, bottom) for _, tol, bottom in starts] == [(1e-9, False), (1e-9, True)]
        for start, _, _ in starts:
            assert np.array_equal(start, seeded)

    def test_step_cap_raises(self, monkeypatch):
        a = assemble_stiffness(generate_skew_mesh_2d(16, 8.0), identity_field(2))
        assert a.shape[0] == 225
        monkeypatch.setattr(spectral, "_LA_STEPS_PER_ORDER", 0.05)
        with pytest.raises(ConvergenceError, match="lambda_max did not converge in 12 steps"):
            extreme_eigenvalues(a, 1e-8)

    def test_step_cap_gives_no_convergence_row(self, monkeypatch):
        from meshcond.bounds import calibrate_constant
        from meshcond.experiments import analyze_mesh

        field = rotated_anisotropic_field(100.0, 1.0)
        mesh = generate_skew_mesh_2d(12, 9.0)
        cal = calibrate_constant(2, field, 32)
        ok, _ = analyze_mesh(mesh, field, cal, n_label=12, aspect_label=9.0)
        monkeypatch.setattr(spectral, "_LA_STEPS_PER_ORDER", 0.05)
        row, violations = analyze_mesh(mesh, field, cal, n_label=12, aspect_label=9.0)
        assert ok.status == "ok"
        assert row.status == "no-convergence" and violations == []
        for name in ("lambda_min", "lambda_max", "kappa"):
            assert np.isnan(getattr(row, name)) and np.isnan(getattr(row, name + "_scaled"))
        assert row.est_kappa == ok.est_kappa
        assert row.est_kappa_scaled == ok.est_kappa_scaled


class TestTwoEndedLanczos:
    """A mass matrix whose Wathen bound proves kappa small gets both extremes
    from one plain Lanczos run: no LU and no ARPACK."""

    @pytest.mark.parametrize("case", ["uniform1d", "uniform2d", "uniform3d", "skew2d", "skew3d"])
    def test_mass_extremes_match_dense(self, monkeypatch, splu_calls, case):
        mass = assemble_mass(MASS_MESHES[case]())
        bound = _wathen_bound(mass)
        assert mass.shape[0] > 64
        calls = _eigsh_calls(monkeypatch)
        result = extreme_eigenvalues(mass, 1e-8, lower_bound=bound)
        eigs = scipy.linalg.eigvalsh(mass.toarray())
        assert result.lambda_min == pytest.approx(eigs[0], rel=1e-10)
        assert result.lambda_max == pytest.approx(eigs[-1], rel=1e-10)
        assert 0.0 < result.rel_tol_achieved <= 1e-8
        # (d+2) r, the paper's upper bound on kappa(B), is the proven bound
        d = int(case[-2])
        assert spectral._gershgorin(mass) / bound == pytest.approx(
            (d + 2) * mass.diagonal().max() / mass.diagonal().min(), rel=1e-12)
        if case == "uniform1d":
            # a tridiagonal matrix keeps LAPACK's top pair and its cheap LU
            assert [c["sigma"] for c in calls] == [bound * (1.0 - spectral._POLE_GAP)]
            assert splu_calls == [mass.shape]
        else:
            assert calls == [] and splu_calls == []

    @pytest.mark.parametrize("permuted", [False, True], ids=["tridiagonal", "permuted"])
    def test_graded_mass_keeps_the_pole(self, monkeypatch, splu_calls, permuted):
        mass = assemble_mass(generate_chebyshev_mesh(1024))
        bound = _wathen_bound(mass)
        assert spectral._gershgorin(mass) > spectral._LANCZOS_KAPPA_MAX * bound
        if permuted:
            perm = np.random.default_rng(17).permutation(mass.shape[0])
            mass = mass[perm][:, perm].tocsr()
        calls = _eigsh_calls(monkeypatch)
        result = extreme_eigenvalues(mass, 1e-8, lower_bound=bound)
        (pole,) = calls
        assert 0.99 * bound < pole["sigma"] < bound
        assert splu_calls == [mass.shape]
        eigs = scipy.linalg.eigvalsh(mass.toarray())
        assert result.lambda_min == pytest.approx(eigs[0], rel=1e-10)

    @pytest.mark.parametrize("steps, ends", [(12, "lambda_max and lambda_min"),
                                             (60, "lambda_min")])
    def test_step_cap_names_the_end(self, monkeypatch, steps, ends):
        mass = assemble_mass(MASS_MESHES["skew3d"]())
        monkeypatch.setattr(spectral, "_LA_STEPS_PER_ORDER", steps / mass.shape[0])
        with pytest.raises(ConvergenceError,
                           match=f"^Lanczos for {ends} did not converge in {steps} steps$"):
            extreme_eigenvalues(mass, 1e-8, lower_bound=_wathen_bound(mass))

    def test_no_extra_tridiagonal_solve_for_the_top_pair(self, monkeypatch):
        ranges = []
        real = spectral.scipy.linalg.eigh_tridiagonal

        def recorded(*args, **kwargs):
            ranges.append(kwargs["select_range"])
            return real(*args, **kwargs)

        monkeypatch.setattr(spectral.scipy.linalg, "eigh_tridiagonal", recorded)
        mesh = generate_skew_mesh_2d(16, 8.0)
        extreme_eigenvalues(assemble_stiffness(mesh, identity_field(2)), 1e-8)
        assert ranges and all(lo == hi > 0 for lo, hi in ranges)
        ranges.clear()
        mass = assemble_mass(mesh)
        extreme_eigenvalues(mass, 1e-8, lower_bound=_wathen_bound(mass))
        assert ranges[1::2] == [(0, 0)] * (len(ranges) // 2)


def _cheb_1024():
    return assemble_stiffness(generate_chebyshev_mesh(1024), identity_field(1))


def _uniform_1024():
    return assemble_stiffness(generate_uniform_mesh(1, 1024), identity_field(1))


def _scaled(a):
    return apply_symmetric_scaling(a, jacobi_scaling(a))


class TestTridiagonalPath:
    """1D matrices get lambda_max from LAPACK bisection, lambda_min from eigsh."""

    @pytest.mark.parametrize("build", [_cheb_1024, _uniform_1024],
                             ids=["chebyshev", "uniform"])
    @pytest.mark.parametrize("scaled", [False, True], ids=["unscaled", "scaled"])
    def test_no_lanczos_for_lambda_max(self, monkeypatch, build, scaled):
        a = build()
        mat = _scaled(a) if scaled else a
        calls = _eigsh_calls(monkeypatch)
        extreme_eigenvalues(mat, 1e-8)
        assert [c.get("which") for c in calls] == ["LM"]
        assert calls[0]["sigma"] == 0.0

    @pytest.mark.parametrize("scaled", [False, True], ids=["unscaled", "scaled"])
    def test_permuted_matrix_takes_lanczos_and_agrees(self, monkeypatch, scaled):
        a = _cheb_1024()
        mat = _scaled(a) if scaled else a
        perm = np.random.default_rng(17).permutation(mat.shape[0])
        permuted = mat[perm][:, perm].tocsr()
        assert spectral._is_tridiagonal(mat)
        assert not spectral._is_tridiagonal(permuted)
        direct = extreme_eigenvalues(mat, 1e-8)
        calls = _eigsh_calls(monkeypatch)
        lanczos = extreme_eigenvalues(permuted, 1e-8)
        _assert_only_shift_invert(calls, mat.shape[0])
        assert lanczos.lambda_min == pytest.approx(direct.lambda_min, rel=1e-8)
        assert lanczos.lambda_max == pytest.approx(direct.lambda_max, rel=1e-8)
        eigs = scipy.linalg.eigvalsh(mat.toarray())
        assert lanczos.lambda_max == pytest.approx(eigs[-1], rel=1e-8)

    def test_skew2d_is_not_tridiagonal(self, monkeypatch):
        a = assemble_stiffness(generate_skew_mesh_2d(16, 8.0), identity_field(2))
        assert not spectral._is_tridiagonal(a)
        calls = _eigsh_calls(monkeypatch)
        result = extreme_eigenvalues(a, 1e-8)
        _assert_only_shift_invert(calls, a.shape[0])
        eigs = scipy.linalg.eigvalsh(a.toarray())
        assert result.lambda_max == pytest.approx(eigs[-1], rel=1e-8)

    def test_one_entry_off_the_band(self):
        a = sp.lil_matrix(_uniform_1024())
        a[0, 2] = a[2, 0] = -1e-3
        assert not spectral._is_tridiagonal(a.tocsr())

    @pytest.mark.parametrize("scaled", [False, True], ids=["unscaled", "scaled"])
    def test_rel_tol_achieved_is_measured(self, scaled):
        a = _cheb_1024()
        mat = _scaled(a) if scaled else a
        n = mat.shape[0]
        w, v = scipy.linalg.eigh_tridiagonal(
            mat.diagonal(), mat.diagonal(1), select="i", select_range=(n - 1, n - 1))
        res_max = np.linalg.norm(mat @ v[:, 0] - w[0] * v[:, 0]) / w[0]
        result = extreme_eigenvalues(mat, 1e-8)
        assert result.lambda_max == w[0]
        assert 0.0 < res_max <= result.rel_tol_achieved <= 1e-8
        # the lambda_max pair does not depend on rel_tol, so a tolerance
        # below its residual is refused
        with pytest.raises(ConvergenceError, match="residual"):
            extreme_eigenvalues(mat, res_max / 2)


class TestDenseOracle:
    def test_diagonal(self):
        assert dense_eigenvalues_oracle(np.diag([1.0, 2.0, 3.0])) == pytest.approx(
            [1.0, 3.0]
        )

    def test_1d_uniform_n8_closed_form(self):
        mesh = generate_uniform_mesh(1, 8)
        a = assemble_stiffness(mesh, identity_field(1))
        eigs = dense_eigenvalues_oracle(a)
        assert np.abs(eigs - stiffness_1d_eigs(8)[[0, -1]]).max() <= 1e-10

    def test_matches_lapack_on_random_symmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 150))
            mat = rng.standard_normal((n, n))
            mat = mat + mat.T
            mine = dense_eigenvalues_oracle(mat)
            ref = np.linalg.eigvalsh(mat)
            assert np.abs(mine - ref[[0, -1]]).max() <= 1e-10 * max(1.0, np.abs(ref).max())

    @pytest.mark.parametrize("mat, extremes", [
        (4.0 * np.eye(5), [4.0, 4.0]),
        (np.diag([3.0, 1.0, 7.0, 1.0]), [1.0, 7.0]),
        # the first bisection midpoint of the padded [1, 3] bracket is 2
        (np.diag([1.0, 2.0, 3.0]), [1.0, 3.0]),
        (np.diag([-1.0, -2.0, -5.0]), [-5.0, -1.0]),
        (np.array([[-0.5]]), [-0.5, -0.5]),
    ], ids=["repeated", "repeated-min", "midpoint-hit", "negative-definite",
            "order-1"])
    def test_exact_extremes(self, mat, extremes):
        # a diagonal matrix is its own tridiagonal, so bisection must land on
        # each extreme exactly: a midpoint on an eigenvalue counts it as reached
        assert dense_eigenvalues_oracle(mat).tolist() == extremes

    def test_zero_matrix_gives_positive_zeros(self):
        # lambda_max is the negated bottom of -T; the negation must not
        # turn the zero matrix's top end into -0.0
        eigs = dense_eigenvalues_oracle(np.zeros((3, 3)))
        assert eigs.tolist() == [0.0, 0.0]
        assert not np.signbit(eigs).any()

    def test_order_two(self):
        mat = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert dense_eigenvalues_oracle(mat) == pytest.approx([1.0, 3.0], rel=1e-15)

    def test_block_diagonal_splits(self):
        # zero couplings between the blocks leave zero off-diagonals in the
        # tridiagonal, so pttrf's pivots restart inside each block
        blocks = [np.array([[2.0, 1.0], [1.0, 2.0]]), np.diag([5.0, 0.5]),
                  np.array([[9.0, 3.0], [3.0, 9.0]])]
        mat = np.zeros((6, 6))
        for k, block in enumerate(blocks):
            mat[2 * k:2 * k + 2, 2 * k:2 * k + 2] = block
        assert dense_eigenvalues_oracle(mat).tolist() == [0.5, 12.0]

    def test_indefinite(self):
        rng = np.random.default_rng(11)
        q = np.linalg.qr(rng.standard_normal((40, 40)))[0]
        w = np.linspace(-3.0, 8.0, 40)
        mat = (q * w) @ q.T
        mat = 0.5 * (mat + mat.T)
        ref = np.linalg.eigvalsh(mat)
        assert dense_eigenvalues_oracle(mat) == pytest.approx(ref[[0, -1]], rel=1e-12)

    def test_extremes_relatively_accurate_at_high_kappa(self):
        # exact involutory Householder conjugation of exact power-of-two
        # eigenvalues: the formed matrix has no construction rounding, so
        # the small eigenvalue must come out relatively accurate
        v = np.ones(4)
        h = np.eye(4) - np.outer(v, v) / 2.0
        d = np.diag([1.0, 2.0 ** 10, 2.0 ** 20, 2.0 ** 30])
        mat = (h @ d) @ h
        eigs = dense_eigenvalues_oracle(mat)
        assert eigs[0] == pytest.approx(1.0, rel=1e-12)
        assert eigs[-1] == pytest.approx(2.0 ** 30, rel=1e-12)

    def test_agrees_with_iterative_on_meshes(self):
        for mesh, field in (
            (generate_uniform_mesh(2, 8), identity_field(2)),
            (generate_chebyshev_mesh(96), identity_field(1)),
        ):
            a = assemble_stiffness(mesh, field)
            result = extreme_eigenvalues(a, 1e-8)
            oracle = dense_eigenvalues_oracle(a)
            assert result.lambda_min == pytest.approx(oracle[0], rel=1e-8)
            assert result.lambda_max == pytest.approx(oracle[-1], rel=1e-8)

    @pytest.mark.parametrize("exponent", [-200, 200])
    def test_far_from_unit_scale(self, exponent):
        rng = np.random.default_rng(30)
        mat = rng.standard_normal((30, 30))
        mat = (mat + mat.T) * 10.0 ** exponent
        ref = scipy.linalg.eigvalsh(mat)[[0, -1]]
        assert dense_eigenvalues_oracle(mat) == pytest.approx(ref, rel=1e-8, abs=0.0)

    def test_power_of_two_scaling_is_exact(self):
        a = assemble_stiffness(generate_chebyshev_mesh(64), identity_field(1))
        b = assemble_stiffness(generate_skew_mesh_2d(6, 8.0), identity_field(2))
        for mat in (a, _scaled(a), b, _scaled(b)):
            eigs = dense_eigenvalues_oracle(mat)
            for k in (-600, -37, 5, 600):
                scaled = dense_eigenvalues_oracle(mat.toarray() * 2.0 ** k)
                assert scaled.tolist() == (eigs * 2.0 ** k).tolist()

    def test_rejects_nonsquare_and_asymmetric(self):
        with pytest.raises(ValueError):
            dense_eigenvalues_oracle(np.ones((2, 3)))
        with pytest.raises(ValueError):
            dense_eigenvalues_oracle(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="got 0"):
            dense_eigenvalues_oracle(np.zeros((0, 0)))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="NaN or infinite"):
                dense_eigenvalues_oracle(np.array([[1.0, bad], [bad, 1.0]]))

    def test_order_cap(self):
        with pytest.raises(ValueError):
            dense_eigenvalues_oracle(sp.identity(4001, format="csr"))

    def test_calls_no_library_eigensolver(self, monkeypatch):
        # the oracle checks the production eigensolvers, so it must reach
        # the same extremes with every public eigensolver and every LAPACK
        # eigenvalue routine disabled
        a = assemble_stiffness(generate_skew_mesh_2d(12, 125.0), identity_field(2))
        rng = np.random.default_rng(21)
        sym = rng.standard_normal((60, 60))
        mats = [a, _scaled(a), sym + sym.T]
        unpatched = [dense_eigenvalues_oracle(mat) for mat in mats]

        def disabled(*args, **kwargs):
            raise AssertionError("the oracle called a library eigensolver")

        patched = []
        for module in (np.linalg, scipy.linalg, spectral.spla):
            for name in dir(module):
                if name.startswith("eig") or name == "lobpcg":
                    monkeypatch.setattr(module, name, disabled)
                    patched.append(name)
        assert {"eigvalsh", "eigh_tridiagonal", "eigsh", "lobpcg"} <= set(patched)
        # the ?syev*, ?stev*, ?stebz, ?stein, ?sterf, ?steqr, ?stemr and
        # ?pteqr wrappers, workspace queries included (34 names in scipy
        # 1.17, which wraps no ?steqr)
        families = ("syev", "syevd", "syevr", "syevx", "stev", "stebz", "stein",
                    "sterf", "stemr", "pteqr")
        lapack_patched = [name for name in dir(scipy.linalg.lapack) if re.match(
            r"[sdcz](syev|stev|stebz|stein|sterf|steqr|stemr|pteqr)", name)]
        for name in lapack_patched:
            monkeypatch.setattr(scipy.linalg.lapack, name, disabled)
        assert {p + f for p in "sd" for f in families} <= set(lapack_patched)
        assert len(lapack_patched) >= 2 * len(families)
        for mat, ref in zip(mats, unpatched):
            assert dense_eigenvalues_oracle(mat).tolist() == ref.tolist()


def _tridiagonals():
    """Seeded symmetric tridiagonals (d, e) of orders 1 to 300."""
    rng = np.random.default_rng(27)
    for n in (1, 2, 3, 300, *rng.integers(4, 300, size=3)):
        d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
        yield pytest.param(d, e, id=f"random-{n}")
        yield pytest.param(d, np.where(rng.random(n - 1) < 0.3, 0.0, e),
                           id=f"zero-couplings-{n}")
        # copies of the block [[a, b], [b, a]]: a - b and a + b repeat
        a, b = rng.standard_normal(2)
        yield pytest.param(np.full(n, a), np.where(np.arange(n - 1) % 2, 0.0, b),
                           id=f"repeated-{n}")
        graded = np.geomspace(1e-10, 1.0, n)
        coupling = 0.4 * np.sqrt(graded[:-1] * graded[1:]) * rng.uniform(-1, 1, n - 1)
        yield pytest.param(graded, coupling, id=f"graded-{n}")


def _positive_definite(d, e, x):
    """Whether LAPACK's pttrf finds every pivot of T - xI positive."""
    return scipy.linalg.lapack.dpttrf(d - x, e if e.size else np.zeros(1))[2] == 0


@pytest.mark.parametrize("d, e", _tridiagonals())
def test_bisection_stops_at_the_definiteness_edge(d, e):
    # the oracle's bisection on T, and on -T for lambda_max: T - xI fails the
    # pttrf test at the returned x and passes it one float below
    w = scipy.linalg.eigvalsh_tridiagonal(d, e)
    tol = 4 * d.size * np.finfo(float).eps * np.abs(w).max()
    for sign, want in ((1.0, w[0]), (-1.0, -w[-1])):
        x = spectral._tridiagonal_min(sign * d, e)
        assert not _positive_definite(sign * d, e, x)
        assert _positive_definite(sign * d, e, np.nextafter(x, -np.inf))
        assert abs(x - want) <= tol


def _reference_pcg_count(a, b, tol, scaling=None, maxiter=None):
    """Textbook PCG loop from a zero start, the reference for scipy's cg."""
    n = a.shape[0]
    bnorm = np.linalg.norm(b)
    if maxiter is None:
        maxiter = 5 * n + 50
    minv = None if scaling is None else 1.0 / np.asarray(scaling, dtype=float) ** 2
    x = np.zeros(n)
    r = b.copy()
    z = r if minv is None else minv * r
    p = z.copy()
    rz = r @ z
    for it in range(1, maxiter + 1):
        ap = a @ p
        alpha = rz / (p @ ap)
        x += alpha * p
        r -= alpha * ap
        if np.linalg.norm(r) <= tol * bnorm:
            return it
        z = r if minv is None else minv * r
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise AssertionError("reference PCG did not converge")


class TestCgIterationCount:
    @pytest.mark.parametrize("jacobi", [False, True], ids=["plain", "jacobi"])
    @pytest.mark.parametrize("build", [
        lambda: assemble_stiffness(generate_chebyshev_mesh(64), identity_field(1)),
        lambda: assemble_stiffness(generate_chebyshev_mesh(256), identity_field(1)),
        _cheb_1024,
        lambda: assemble_stiffness(generate_skew_mesh_2d(20, 8.0),
                                   rotated_anisotropic_field(1000.0, 1.0)),
        lambda: assemble_stiffness(generate_skew_mesh_2d(40, 125.0),
                                   rotated_anisotropic_field(1000.0, 1.0)),
    ], ids=["chebyshev-64", "chebyshev-256", "chebyshev-1024",
            "skew2d-20-a8-rotated", "skew2d-40-a125-rotated"])
    def test_matches_reference_loop(self, build, jacobi):
        a = build()
        b = np.random.default_rng(8).standard_normal(a.shape[0])
        scaling = jacobi_scaling(a) if jacobi else None
        expected = _reference_pcg_count(a, b, 1e-8, scaling=scaling)
        assert cg_iteration_count(a, b, 1e-8, scaling=scaling) == expected

    def test_identity_one_iteration(self):
        assert cg_iteration_count(np.eye(6), np.ones(6), 1e-12) == 1
        assert cg_iteration_count(np.eye(6), np.ones(6), 1e-12, maxiter=1) == 1

    @pytest.mark.parametrize("jacobi", [False, True], ids=["plain", "jacobi"])
    def test_converging_on_the_last_iteration(self, jacobi):
        a = assemble_stiffness(generate_chebyshev_mesh(64), identity_field(1))
        b = np.random.default_rng(8).standard_normal(a.shape[0])
        scaling = jacobi_scaling(a) if jacobi else None
        needed = _reference_pcg_count(a, b, 1e-8, scaling=scaling)
        assert cg_iteration_count(a, b, 1e-8, scaling=scaling, maxiter=needed) == needed
        with pytest.raises(ConvergenceError, match=f"in {needed - 1} iterations"):
            cg_iteration_count(a, b, 1e-8, scaling=scaling, maxiter=needed - 1)

    def test_finite_termination(self):
        rng = np.random.default_rng(3)
        for n in (5, 20, 60):
            mat = random_spd(rng, n)
            b = rng.standard_normal(n)
            count = cg_iteration_count(sp.csr_matrix(mat), b, 1e-10)
            assert count <= n + 5

    def test_zero_rhs(self):
        assert cg_iteration_count(np.eye(4), np.zeros(4), 1e-10) == 0

    def test_jacobi_preconditioning_helps_on_chebyshev(self):
        mesh = generate_chebyshev_mesh(1024)
        a = assemble_stiffness(mesh, identity_field(1))
        rng = np.random.default_rng(8)
        b = rng.standard_normal(a.shape[0])
        plain = cg_iteration_count(a, b, 1e-8)
        jacobi = cg_iteration_count(a, b, 1e-8, scaling=jacobi_scaling(a))
        assert jacobi < plain

    def test_raises_on_iteration_cap(self):
        rng = np.random.default_rng(4)
        mat = random_spd(rng, 40, cond=1e8)
        with pytest.raises(ConvergenceError):
            cg_iteration_count(sp.csr_matrix(mat), rng.standard_normal(40),
                               1e-12, maxiter=3)
