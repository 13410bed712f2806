import numpy as np
import pytest
import scipy.sparse as sp

from meshcond.assembly import (
    apply_symmetric_scaling,
    assemble_mass,
    assemble_stiffness,
    jacobi_scaling,
)
from meshcond.diffusion import identity_field
from meshcond.mesh import generate_chebyshev_mesh, generate_uniform_mesh
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

    def test_order_two(self):
        mat = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert dense_eigenvalues_oracle(mat) == pytest.approx([1.0, 3.0], rel=1e-15)

    def test_block_diagonal_splits(self):
        # zero couplings between the blocks leave zero off-diagonals in the
        # tridiagonal, so the Sturm sequence restarts inside each block
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

    def test_rejects_nonsquare_and_asymmetric(self):
        with pytest.raises(ValueError):
            dense_eigenvalues_oracle(np.ones((2, 3)))
        with pytest.raises(ValueError):
            dense_eigenvalues_oracle(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_order_cap(self):
        with pytest.raises(ValueError):
            dense_eigenvalues_oracle(sp.identity(4001, format="csr"))


class TestCgIterationCount:
    def test_identity_one_iteration(self):
        assert cg_iteration_count(np.eye(6), np.ones(6), 1e-12) == 1

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
