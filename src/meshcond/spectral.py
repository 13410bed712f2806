"""Extreme eigenvalues, a dense eigenvalue oracle and a CG iteration counter.

The production path computes the smallest eigenvalue by shift-and-invert
Lanczos.  Every sparse LU is made in this module, which factors A - sigma I
once and hands ARPACK its solve; ARPACK never factors a matrix itself.  A
stiffness matrix A and its Jacobi scaling S^-1 A S^-1 share one LU of A,
since (S^-1 A S^-1)^-1 = S A^-1 S, and two threads may solve with it at once,
bit for bit: SuperLU's solve releases the GIL, its factorization (gstrf) holds
it (skew3d n=20, 3.3M fill on SuperLU's defaults: a 0.115 s Python loop took
0.16-0.19 s next to repeated solves, 0.22-0.23 s next to factorizations).
That shared LU takes SuperLU's options for an SPD matrix (minimum degree
on A^T + A, diagonal pivots, SymmetricMode); every other LU keeps SuperLU's
general defaults, with which the calibration constant c is fitted (see
shared_inverses and _shifted_inverse).  A proven lower bound on the smallest
eigenvalue (Wathen's min_j B_jj / 2 for a mass matrix) moves the pole up
to it.  ARPACK runs only this shift-invert solve.  A proven lower bound can
also make the solve unnecessary: when the Gershgorin bound max_i sum_j
|a_ij| is at most _LANCZOS_KAPPA_MAX = 16 times it, kappa is at most 16,
and one plain Lanczos run on A returns both extreme pairs with no
factorization.  For a mass matrix that ratio is (d+2) r, the paper's upper
bound on kappa(B).  By the Kaniel-Paige bound (Kaniel 1966, Paige 1971) an
extreme Ritz value's error falls like T_{k-1}(1 + 2 gamma)^-2 times the
spread of the spectrum, at most (kappa - 1) lambda_min.  16 is the measured
crossover: on graded 2D mass matrices of order 16,129 and 32,400 the
Lanczos path ties with the LU plus shift-invert at ratios of about 17 and
20 and loses above; in 3D it wins to about 100.  A tridiagonal matrix
keeps its O(n) LU, since on the uniform 1D mass matrix Lanczos took 0.042
s against 0.003 s at order 511.  The shift-invert stop
test loosens by up to kappa(A) on the way back to A, so it asks for a
hundredth of the tolerance, and a pair that still misses the tolerance gets
up to two inverse-iteration steps.  The largest eigenvalue comes from plain
Lanczos on A, or, for a tridiagonal matrix (every 1D matrix), from LAPACK
bisection plus inverse iteration.  Plain Lanczos keeps no basis and does not
reorthogonalize: orthogonality is lost only along Ritz vectors that have
already converged (Paige 1980), so the top Ritz pair converges all the same.
It stops on the relative residual ||A v - theta v|| / theta that the result
check measures, at a tenth of the tolerance, and a second pass over the
same recurrence sums the Ritz vector.  Small orders use
LAPACK's dense eigensolver for both.  The dense oracle is an independent
in-repo solver for the same two extremes, used to verify the production
path at desk scale: LAPACK's symmetric tridiagonal reduction ``sytrd`` (not
an eigensolver) brings the matrix to tridiagonal form T, in-repo bisection
decides each extreme of T by testing T - xI for positive definiteness with
LAPACK's tridiagonal LDL^T ``pttrf``, and inverse iteration on the dense
matrix, through an LDL^T ``sytrf`` of the shifted matrix, sharpens it.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

__all__ = [
    "ConvergenceError",
    "SpectralResult",
    "extreme_eigenvalues",
    "dense_eigenvalues_oracle",
    "cg_iteration_count",
]

_DENSE_CUTOFF = 64  # up to this order LAPACK's dense eigh replaces Lanczos
_ORACLE_MAX_ORDER = 4000
# relative distance of the shift-invert pole below a proven lower bound on
# lambda_min: A - sigma I stays well conditioned even when lambda_min sits on
# the bound, and the pole is still close enough for most of the speed-up
_POLE_GAP = 1e-3
# the lambda_max Lanczos: tolerance as a factor of rel_tol, steps between two
# looks at the top Ritz pair, and its step cap as a multiple of the order
_LA_TOL_FACTOR, _LA_CHECK_EVERY, _LA_STEPS_PER_ORDER = 0.1, 10, 4
# plain Lanczos returns lambda_min too, with no factorization, when the
# Gershgorin bound on lambda_max is at most this multiple of a proven lower
# bound on lambda_min, so that kappa is at most this (the measured crossover
# in the module docstring)
_LANCZOS_KAPPA_MAX = 16.0
# ARPACK's Lanczos basis size and tolerance, as a factor of rel_tol, for the
# shift-invert lambda_min solve
_LM_NCV, _LM_TOL_FACTOR = 32, 1e-2
# inverse-iteration steps allowed on a lambda_min pair that misses rel_tol
_POLISH_STEPS = 2


class ConvergenceError(RuntimeError):
    """Raised when an iterative solver fails to reach its tolerance."""


@dataclass(frozen=True)
class SpectralResult:
    """Extreme eigenvalues of an SPD matrix and their ratio."""

    lambda_min: float
    lambda_max: float
    kappa: float
    rel_tol_achieved: float


def _as_csr(mat):
    if sp.issparse(mat):
        return mat.tocsr()
    return sp.csr_matrix(np.asarray(mat, dtype=float))


def check_tolerance(tol, name="rel_tol"):
    """Raise ValueError, naming ``name``, unless ``tol`` is in (0, 1e-4]."""
    if not 0.0 < tol <= 1e-4:
        raise ValueError(f"{name} must be in (0, 1e-4], got {tol}")


def extreme_eigenvalues(mat, rel_tol=1e-8, lower_bound=0.0, inverse=None):
    """Extreme eigenvalues of a sparse SPD matrix.

    lambda_min comes from ARPACK's Lanczos on the inverted operator (one
    sparse factorization, then solves), unless ``lower_bound`` proves kappa
    small (see below).  lambda_max comes from plain
    Lanczos on the matrix itself, with no reorthogonalization and no stored
    basis, except for a tridiagonal matrix, where LAPACK bisection plus
    inverse iteration (``stebz`` + ``stein``) returns the top eigenpair
    directly.  Bisection is not used for lambda_min: ``stebz``
    gives eigenvalues to an absolute accuracy of O(eps * ||A||), which at
    the small end of an ill-conditioned spectrum (a graded 1D mesh) is
    too poor a relative accuracy for the residual check.  A lambda_min pair
    whose residual misses ``rel_tol`` gets up to two inverse-iteration
    steps with the solve in hand.  Matrices of order at most 64 use
    LAPACK's dense ``eigh``.  Either way ``rel_tol_achieved`` is the
    measured eigenpair residual.

    Parameters
    ----------
    mat : sparse or dense SPD matrix
    rel_tol : float
        Requested relative accuracy, in (0, 1e-4].
    lower_bound : float
        A proven lower bound on lambda_min, at least 0.  If it is positive,
        the matrix is not tridiagonal and the Gershgorin bound on lambda_max
        is at most ``_LANCZOS_KAPPA_MAX`` times it, one plain Lanczos run
        returns both extremes, with no factorization and ``inverse`` unused.
        Otherwise the shift-invert pole goes just below it: the closer the
        pole is to lambda_min, the faster Lanczos on the inverted operator
        converges (Ericsson & Ruhe 1980).  A lambda_min below it is never
        accepted.
    inverse : callable, optional
        ``x -> mat^-1 x``, applied by the lambda_min solve in place of a
        factorization of its own (see :func:`shared_inverses`).  It fixes
        the pole at 0.

    Raises
    ------
    ConvergenceError
        If an iteration cap is hit, a LAPACK eigensolver fails, or the
        measured residual is above ``rel_tol``.
    ValueError
        If ``lower_bound`` is negative or not finite, or lambda_min is below it.
    """
    check_tolerance(rel_tol)
    if not 0.0 <= lower_bound < math.inf:
        raise ValueError(f"lower_bound must be finite and at least 0, got {lower_bound}")
    a = _as_csr(mat)
    n = a.shape[0]
    if n <= _DENSE_CUTOFF:
        w, v = _dense_eigh(a)
        return _checked_result(a, (w[0], v[:, 0]), (w[-1], v[:, -1]), rel_tol, lower_bound)
    # seeded, so that a result does not depend on which other solves run
    start = np.random.default_rng(0).standard_normal(n)
    tol = rel_tol * _LA_TOL_FACTOR
    tridiagonal = _is_tridiagonal(a)
    if (not tridiagonal and 0.0 < lower_bound
            and _gershgorin(a) <= _LANCZOS_KAPPA_MAX * lower_bound):
        largest, smallest = _lanczos_eigenpairs(a, start, tol, bottom=True)
        return _checked_result(a, smallest, largest, rel_tol, lower_bound)
    if tridiagonal:
        largest = _ritz_pair(a.diagonal(), a.diagonal(1), n - 1)
    else:
        (largest,) = _lanczos_eigenpairs(a, start, tol)
    sigma = 0.0 if inverse is not None else lower_bound * (1.0 - _POLE_GAP)
    solve = inverse or _shifted_inverse(a, sigma)
    smallest = _smallest_eigenpair(a, start, sigma, solve, rel_tol * _LM_TOL_FACTOR)
    smallest = _polished(a, smallest, solve, rel_tol)
    return _checked_result(a, smallest, largest, rel_tol, lower_bound)


def shared_inverses(mat, scaling):
    """Solves with A and with S^-1 A S^-1, S = diag(scaling), from one LU of A.

    Returns ``x -> A^-1 x`` and ``x -> s * A^-1 (s * x)``, since
    (S^-1 A S^-1)^-1 = S A^-1 S, for the ``inverse`` argument of
    :func:`extreme_eigenvalues`.

    A must be symmetric positive definite, as a stiffness matrix is.  The LU
    then takes SuperLU's symmetric options: the minimum-degree ordering of
    A^T + A, diagonal pivots only (``diag_pivot_thresh=0``; elimination
    without pivoting is backward stable for an SPD matrix) and
    ``SymmetricMode``, which keeps ``perm_r == perm_c``, so U's diagonal is
    the D of P A P^T = L D L^T.  On skew3d n=20 aspect 25 it holds 2.50M
    entries against 3.34M for SuperLU's defaults, factors in half the time
    and solves 40% faster.  The lambda_min it gives moved by at most 1.3e-12
    relative (Chebyshev n=4096); the calibration keeps the defaults (see
    :func:`_shifted_inverse`).  Up to order ``_DENSE_CUTOFF``, where
    :func:`extreme_eigenvalues` reads no ``inverse``, it factors nothing and
    returns ``(None, None)``.
    """
    if mat.shape[0] <= _DENSE_CUTOFF:
        return None, None
    s = np.asarray(scaling, dtype=float)
    solve = spla.splu(_as_csr(mat).tocsc(), permc_spec="MMD_AT_PLUS_A",
                      diag_pivot_thresh=0.0, options={"SymmetricMode": True}).solve
    return solve, lambda x: s * solve(s * x)


def _shifted_inverse(a, sigma):
    """``x -> (A - sigma I)^-1 x`` from SuperLU with its default options.

    This LU serves the calibration's lambda_min, the mass pole and a call of
    :func:`extreme_eigenvalues` with no ``inverse``.  It keeps SuperLU's
    general defaults (COLAMD, partial pivoting), unlike
    :func:`shared_inverses`, because the calibration constant c is fitted
    through it and every recorded estimate comes from c: the symmetric
    options move c by up to 2.5e-13 relative.  The two settings merge when
    the estimate references are recorded again.  A zero shift leaves A as it
    is, explicit zeros included, so the LU is the one ARPACK would make for
    ``sigma=0``.
    """
    if sigma:
        a = a - sigma * sp.eye(a.shape[0])
    return spla.splu(a.tocsc()).solve


def _lanczos_steps(a, q):
    """Plain Lanczos from the unit vector q: yields ``(q_j, alpha_j, beta_j)``.

    Paige's variant of the three-term recurrence (alpha taken after the beta
    term is removed), with no reorthogonalization, so two runs from one q
    give the same vectors bit for bit.  q_{j+1} = w / beta_j is formed only
    when the next step is asked for, so a caller that stops at beta_j = 0
    never divides by it.
    """
    q_prev, beta = np.zeros_like(q), 0.0
    while True:
        w = a @ q
        w -= beta * q_prev
        alpha = q @ w
        w -= alpha * q
        beta = np.linalg.norm(w)
        yield q, alpha, beta
        q_prev, q = q, w / beta


def _gershgorin(a):
    """max_i sum_j |a_ij|, an upper bound on every |eigenvalue| of A."""
    return float(abs(a).sum(axis=1).max())


def _lanczos_eigenpairs(a, start, tol, bottom=False):
    """Extreme eigenpairs of a symmetric matrix by two-pass plain Lanczos.

    Returns the largest pair, then the smallest one if ``bottom``.  Every
    ``_LA_CHECK_EVERY`` steps the first pass takes those Ritz pairs
    (theta, s) of the tridiagonal T_k and stops once each has ||A y - theta
    y|| = beta_k |s_k| at most ``tol * |theta|``.  It looks at once when
    beta_k <= tol * max |alpha_j|, which for the top pair implies the test
    (theta >= alpha_j, |s_k| <= 1) and covers a breakdown, beta_k = 0.  The
    second pass regenerates the same q_j and sums every y = sum_j s_j q_j in
    one sweep, so no basis is stored.  Raises ConvergenceError, naming each
    end that missed the test, after ``_LA_STEPS_PER_ORDER`` times the order
    steps.
    """
    q1 = start / np.linalg.norm(start)
    cap = _LA_STEPS_PER_ORDER * a.shape[0]
    # each end's index in the spectrum of T_k
    ends = {"lambda_max": -1, "lambda_min": 0} if bottom else {"lambda_max": -1}
    alphas, betas, scale = [], [], 0.0
    for _, alpha, beta in _lanczos_steps(a, q1):
        alphas.append(alpha)
        betas.append(beta)
        scale = max(scale, abs(alpha))
        k = len(alphas)
        if beta <= tol * scale or k % _LA_CHECK_EVERY == 0 or k >= cap:
            pairs = [_ritz_pair(alphas, betas[:-1], i % k) for i in ends.values()]
            missed = [name for name, (theta, s) in zip(ends, pairs)
                      if beta * abs(s[-1]) > tol * abs(theta)]
            if not missed:
                break
            if k >= cap:
                raise ConvergenceError(f"Lanczos for {' and '.join(missed)} "
                                       f"did not converge in {k} steps")
    vecs = [np.zeros_like(q1) for _ in pairs]
    # zip takes the s_j first, so the recurrence is not advanced past step k
    for sj, (q, _, _) in zip(zip(*(s for _, s in pairs)), _lanczos_steps(a, q1)):
        for vec, c in zip(vecs, sj):
            vec += c * q
    return [(theta, vec / np.linalg.norm(vec)) for (theta, _), vec in zip(pairs, vecs)]


def _ritz_pair(alphas, betas, i):
    """Eigenpair i, counted from the bottom, of the symmetric tridiagonal matrix
    with diagonal ``alphas`` and off-diagonal ``betas`` (T_k of a Lanczos run)."""
    with _lapack("eigh_tridiagonal"):
        w, v = scipy.linalg.eigh_tridiagonal(alphas, betas, select="i",
                                             select_range=(i, i))
    return w[0], v[:, 0]


def _lanczos_maxiter(n, ncv):
    """ARPACK's cap on implicit restarts for a basis of ``ncv`` vectors."""
    return max(100, 50 * n // ncv)


def _smallest_eigenpair(a, start, sigma, solve, tol):
    """lambda_min pair from ARPACK's shift-invert Lanczos, ``solve`` as the inverse."""
    n = a.shape[0]
    ncv = min(n - 1, _LM_NCV)
    maxiter = _lanczos_maxiter(n, ncv)
    opinv = spla.LinearOperator(a.shape, matvec=solve, dtype=float)
    try:
        w, v = spla.eigsh(a, k=1, tol=tol, maxiter=maxiter, ncv=ncv, v0=start,
                          sigma=sigma, which="LM", OPinv=opinv)
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"Lanczos did not converge within {maxiter} iterations: {exc}"
        ) from exc
    return w[0], v[:, 0]


def _polished(a, pair, solve, rel_tol):
    """A lambda_min pair, sharpened by inverse iteration if it misses rel_tol.

    Each step applies ``solve`` (the shift-invert solve of the Lanczos
    run) to the vector and takes the Rayleigh quotient.  A pair that meets
    ``rel_tol`` is returned as it is, bit for bit.
    """
    lam, vec = pair
    for _ in range(_POLISH_STEPS):
        if lam <= 0.0 or _relative_residual(a, lam, vec) <= rel_tol:
            break
        vec = solve(vec)
        vec /= np.linalg.norm(vec)
        lam = vec @ (a @ vec)
    return lam, vec


def _relative_residual(a, lam, vec):
    return float(np.linalg.norm(a @ vec - lam * vec) / lam)


def _dense_eigh(a):
    with _lapack("eigh"):
        return scipy.linalg.eigh(a.toarray())


def _is_tridiagonal(a):
    """Whether every stored entry of a CSR matrix has ``|i - j| <= 1``."""
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    return bool(np.all(np.abs(a.indices - rows) <= 1))


@contextlib.contextmanager
def _lapack(routine):
    """Report a LAPACK convergence failure as a ConvergenceError."""
    try:
        yield
    except scipy.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK {routine} did not converge: {exc}") from exc


def _checked_result(a, smallest, largest, rel_tol, lower_bound):
    """SpectralResult of the two extreme eigenpairs, with their measured residual.

    lambda_min must be above 0 and at least ``lower_bound`` (ValueError).
    ``rel_tol_achieved`` is the larger relative residual ||A v - lam v|| / lam
    of the two pairs; for a symmetric matrix the eigenvalue error is bounded
    by the residual norm, so this is an a-posteriori relative error bound.
    Raises ConvergenceError if it is above ``rel_tol``.
    """
    lmin, lmax = float(smallest[0]), float(largest[0])
    if lmin <= 0.0:
        raise ValueError(f"matrix is not positive definite (lambda_min {lmin})")
    if lmin < lower_bound:
        raise ValueError(f"lambda_min {lmin!r} is below its proven lower bound "
                         f"{lower_bound!r}, so the bound is wrong")
    achieved = max(_relative_residual(a, lmax, largest[1]),
                   _relative_residual(a, lmin, smallest[1]))
    if achieved > rel_tol:
        raise ConvergenceError(
            f"residual {achieved:.3e} above requested tolerance {rel_tol:.3e}"
        )
    return SpectralResult(
        lambda_min=lmin, lambda_max=lmax, kappa=lmax / lmin,
        rel_tol_achieved=achieved,
    )


def _tridiagonal_min(d, e):
    """Smallest eigenvalue of the symmetric tridiagonal T with diagonals d and e.

    Bisection (Parlett, *The Symmetric Eigenvalue Problem*, ch. 7) from the
    Gershgorin interval, widened by a few rounding errors.  By Sylvester's
    law of inertia T - xI is positive definite exactly when x lies below
    every eigenvalue, and LAPACK's ``pttrf`` (the LDL^T factorization of a
    positive definite tridiagonal, not an eigensolver) tells which: its
    ``info`` is 0 only if every pivot is positive.  A zero pivot counts as
    not positive, so a midpoint on the eigenvalue is kept.  The bracket is
    halved until no float lies strictly inside it, so the loop always
    terminates, and T - xI is then not positive definite at the returned x
    but is at the float below it.
    """
    radius = np.abs(np.append(e, 0.0)) + np.abs(np.append(0.0, e))
    lo, hi = float(np.min(d - radius)), float(np.max(d + radius))
    pad = 2.0 * d.size * np.finfo(float).eps * max(abs(lo), abs(hi))
    lo, hi = lo - pad, hi + pad
    e = e if e.size else np.zeros(1)  # the wrapper wants an e of length 1 at order 1
    # invariant: T - lo I is positive definite and T - hi I is not
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if lapack.dpttrf(d - mid, e, overwrite_d=1)[2] == 0:
            lo = mid
        else:
            hi = mid
    return hi


def _refine_extreme(a, lam, steps=3):
    """Sharpen one extreme eigenvalue by inverse iteration on the dense matrix.

    The value from the tridiagonal has absolute accuracy O(eps * ||A||),
    which for badly conditioned matrices is a poor relative accuracy at the
    small end of the spectrum; a few inverse-iteration steps restore it.
    """
    n = a.shape[0]
    # Offset the shift so an exact eigenvalue never yields a singular factor.
    scale = np.abs(a).max()
    sigma = lam + 1e-12 * (abs(lam) + scale)
    c = a.copy()
    c.flat[::n + 1] -= sigma
    ldl, piv, info = lapack.dsytrf(c, overwrite_a=1)
    if info:
        return lam
    x = np.random.default_rng(12345).standard_normal(n)
    x /= np.linalg.norm(x)
    for _ in range(steps):
        y = lapack.dsytrs(ldl, piv, x)[0]
        ny = np.linalg.norm(y)
        if not np.isfinite(ny) or ny == 0.0:
            return lam
        x = y / ny
    refined = float(x @ (a @ x))
    if not np.isfinite(refined) or abs(refined - lam) > 1e-3 * max(abs(lam), 1e-300):
        return lam
    if abs(refined - lam) <= 8.0 * np.finfo(float).eps * abs(lam):
        return lam  # correction below rounding noise
    return refined


def dense_eigenvalues_oracle(mat):
    """Smallest and largest eigenvalue of a symmetric matrix, ``[lmin, lmax]``.

    Independent verification path that calls no LAPACK eigensolver: the
    matrix is reduced to tridiagonal form T by LAPACK's ``sytrd``
    (Householder, an orthogonal similarity, so the spectrum is kept), then
    in-repo bisection finds lambda_min(T) by testing T - xI for positive
    definiteness with ``pttrf``, and lambda_max(T) as -lambda_min(-T).
    Inverse iteration on the dense matrix, with a symmetric indefinite
    LDL^T factorization (``sytrf``) of the shifted matrix, sharpens both
    extremes so they are accurate in a relative sense even for large
    condition numbers.  The matrix is first scaled by the power of two that
    brings its largest entry into [0.5, 1), so the squares formed on the way
    neither underflow nor overflow; the scaling is exact, and undone on the
    result.

    Raises ValueError for a matrix that is not square, not symmetric, has a
    NaN or infinite entry, or is of order 0 or above 4000.
    """
    a = mat.toarray() if sp.issparse(mat) else np.array(mat, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not 1 <= n <= _ORACLE_MAX_ORDER:
        raise ValueError(f"dense oracle takes orders 1 to {_ORACLE_MAX_ORDER}, got {n}")
    scale = np.abs(a).max()
    if not np.isfinite(scale):
        raise ValueError("matrix has a NaN or infinite entry")
    if scale > 0 and np.abs(a - a.T).max() > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    exponent = math.frexp(scale)[1]
    np.ldexp(a, -exponent, out=a)
    # only T's two diagonals are kept; the reduced n x n copy is released
    d, e = lapack.dsytrd(a, lower=1)[1:3]
    # 0.0 - x mirrors exactly, and gives 0.0, not -0.0, for a zero matrix
    extremes = [_refine_extreme(a, lam)
                for lam in (_tridiagonal_min(d, e), 0.0 - _tridiagonal_min(-d, e))]
    return np.ldexp(extremes, exponent)


def cg_iteration_count(mat, rhs, tol, scaling=None, maxiter=None):
    """Iterations of (optionally Jacobi-preconditioned) CG to a residual tol.

    Solves ``A x = rhs`` from a zero start and returns the number of
    iterations needed to reach ``||r|| < tol * ||rhs||``.  ``scaling``
    applies symmetric diagonal preconditioning with the given entries
    (preconditioner M = diag(s)^2).  Raises ConvergenceError if ``maxiter``
    iterations (default 5n + 50) do not reach the tolerance.
    """
    a = _as_csr(mat)
    b = np.asarray(rhs, dtype=float)
    n = a.shape[0]
    if b.shape != (n,):
        raise ValueError(f"rhs has shape {b.shape}, matrix order is {n}")
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return 0
    if maxiter is None:
        maxiter = 5 * n + 50
    minv = None
    if scaling is not None:
        minv = sp.diags(1.0 / np.asarray(scaling, dtype=float) ** 2)
    iterations = 0

    def count(xk):
        nonlocal iterations
        iterations += 1

    # scipy's cg tests the residual only before an update, so one spare
    # iteration lets a solve that converges on update maxiter report it
    x, info = spla.cg(a, b, rtol=tol, atol=0.0, maxiter=maxiter + 1, M=minv,
                      callback=count)
    if info != 0 or iterations > maxiter:
        raise ConvergenceError(
            f"CG did not reach tol {tol:.3e} in {maxiter} iterations "
            f"(residual {np.linalg.norm(b - a @ x) / bnorm:.3e})"
        )
    return iterations
