"""Extreme eigenvalues, a dense eigenvalue oracle and a CG iteration counter.

The production path computes extreme eigenvalues iteratively (Lanczos for
the largest, shift-and-invert Lanczos with a sparse factorization for the
smallest), or with LAPACK for small orders.  The dense oracle is an
independent in-repo eigensolver (Householder tridiagonalization followed
by an implicit-shift QL sweep) used to verify the production path at desk
scale.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "ConvergenceError",
    "SpectralResult",
    "extreme_eigenvalues",
    "dense_eigenvalues_oracle",
    "cg_iteration_count",
]

_DENSE_CUTOFF = 64  # up to this order LAPACK's dense eigh replaces Lanczos
_ORACLE_MAX_ORDER = 4000


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


def extreme_eigenvalues(mat, rel_tol=1e-8):
    """Extreme eigenvalues of a sparse SPD matrix.

    lambda_max comes from Lanczos iteration on the matrix itself,
    lambda_min from Lanczos on the inverted operator (one sparse
    factorization, then solves).  Matrices of order at most 64 use LAPACK's
    dense ``eigh``.  Either way ``rel_tol_achieved`` is the measured
    eigenpair residual.

    Parameters
    ----------
    mat : sparse or dense SPD matrix
    rel_tol : float
        Requested relative accuracy, in (0, 1e-4].

    Raises
    ------
    ConvergenceError
        If the iteration cap is hit; the message reports the residual.
    """
    if not 0.0 < rel_tol <= 1e-4:
        raise ValueError(f"rel_tol must be in (0, 1e-4], got {rel_tol}")
    a = _as_csr(mat)
    n = a.shape[0]
    if n <= _DENSE_CUTOFF:
        w, v = scipy.linalg.eigh(a.toarray())
        return _checked_result(a, w[0], v[:, 0], w[-1], v[:, -1], rel_tol)

    ncv = min(n - 1, 32)
    maxiter = max(100, 50 * n // ncv)
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(n)
    arpack_tol = rel_tol * 1e-2
    try:
        wmax, vmax = spla.eigsh(
            a, k=1, which="LA", tol=arpack_tol, maxiter=maxiter, ncv=ncv, v0=v0
        )
        wmin, vmin = spla.eigsh(
            a.tocsc(), k=1, sigma=0.0, which="LM", tol=arpack_tol,
            maxiter=maxiter, ncv=ncv, v0=v0,
        )
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"Lanczos did not converge within {maxiter} iterations: {exc}"
        ) from exc
    return _checked_result(a, wmin[0], vmin[:, 0], wmax[0], vmax[:, 0], rel_tol)


def _checked_result(a, lmin, vmin, lmax, vmax, rel_tol):
    """SpectralResult of two extreme eigenpairs, with their measured residual."""
    lmin, lmax = float(lmin), float(lmax)
    if lmin <= 0.0:
        raise ValueError(f"matrix is not positive definite (lambda_min {lmin})")
    # For a symmetric matrix the eigenvalue error is bounded by the
    # residual norm, so this is an a-posteriori relative error bound.
    res_max = np.linalg.norm(a @ vmax - lmax * vmax) / lmax
    res_min = np.linalg.norm(a @ vmin - lmin * vmin) / lmin
    achieved = float(max(res_max, res_min))
    if achieved > rel_tol:
        raise ConvergenceError(
            f"residual {achieved:.3e} above requested tolerance {rel_tol:.3e}"
        )
    return SpectralResult(
        lambda_min=lmin, lambda_max=lmax, kappa=lmax / lmin,
        rel_tol_achieved=achieved,
    )


def _householder_tridiagonalize(a):
    """Reduce a symmetric matrix to tridiagonal form in place.

    Returns the diagonal and subdiagonal of the reduced matrix.
    """
    n = a.shape[0]
    for k in range(n - 2):
        x = a[k + 1:, k].copy()
        nrm = np.linalg.norm(x)
        if nrm == 0.0:
            continue
        alpha = -math.copysign(nrm, x[0])
        v = x
        v[0] -= alpha
        vn = np.linalg.norm(v)
        if vn == 0.0:
            continue
        v /= vn
        b = a[k + 1:, k + 1:]
        p = b @ v
        q = p - (v @ p) * v
        b -= 2.0 * np.outer(v, q)
        b -= 2.0 * np.outer(q, v)
        a[k + 1, k] = alpha
    return np.diag(a).copy(), np.diag(a, -1).copy()


def _ql_implicit(d, e, max_sweeps=100):
    """Eigenvalues of a symmetric tridiagonal matrix via implicit-shift QL."""
    n = len(d)
    d = np.array(d, dtype=float)
    e = np.append(np.array(e, dtype=float), 0.0)
    eps = np.finfo(float).eps
    for l in range(n):
        sweeps = 0
        while True:
            m = n - 1
            for mm in range(l, n - 1):
                dd = abs(d[mm]) + abs(d[mm + 1])
                if abs(e[mm]) <= eps * dd:
                    m = mm
                    break
            if m == l:
                break
            sweeps += 1
            if sweeps > max_sweeps:
                raise ConvergenceError(
                    f"QL sweep for eigenvalue {l} did not deflate "
                    f"(offdiagonal {e[l]:.3e})"
                )
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            if underflow:
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0
    return np.sort(d)


def _refine_extreme(a, lam, steps=3):
    """Sharpen one extreme eigenvalue by inverse iteration on the dense matrix.

    The QL value has absolute accuracy O(eps * ||A||), which for badly
    conditioned matrices is a poor relative accuracy at the small end of
    the spectrum; a few inverse-iteration steps restore it.
    """
    n = a.shape[0]
    # Offset the shift so an exact eigenvalue never yields a singular factor.
    scale = np.abs(a).max()
    sigma = lam + 1e-12 * (abs(lam) + scale)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(a - sigma * np.eye(n), check_finite=False)
    except scipy.linalg.LinAlgError:
        return lam
    x = np.random.default_rng(12345).standard_normal(n)
    x /= np.linalg.norm(x)
    for _ in range(steps):
        y = scipy.linalg.lu_solve((lu, piv), x, check_finite=False)
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
    """All eigenvalues of a symmetric matrix, sorted ascending.

    Independent verification path: in-repo Householder tridiagonalization
    plus an implicit-shift QL sweep; the two extreme eigenvalues are then
    polished by inverse iteration so they are accurate in a relative sense
    even for large condition numbers.
    """
    a = mat.toarray() if sp.issparse(mat) else np.array(mat, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if n > _ORACLE_MAX_ORDER:
        raise ValueError(f"dense oracle is capped at order {_ORACLE_MAX_ORDER}")
    scale = np.abs(a).max()
    if scale > 0 and np.abs(a - a.T).max() > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    if n == 1:
        return np.array([a[0, 0]])
    d, e = _householder_tridiagonalize(a.copy())
    eigs = _ql_implicit(d, e)
    eigs[0] = _refine_extreme(a, eigs[0])
    eigs[-1] = _refine_extreme(a, eigs[-1])
    return np.sort(eigs)


def cg_iteration_count(mat, rhs, tol, scaling=None, maxiter=None):
    """Iterations of (optionally Jacobi-preconditioned) CG to a residual tol.

    Solves ``A x = rhs`` from a zero start and returns the number of
    iterations needed to reach ``||r|| <= tol * ||rhs||``.  ``scaling``
    applies symmetric diagonal preconditioning with the given entries
    (preconditioner M = diag(s)^2).
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
    raise ConvergenceError(
        f"CG did not reach tol {tol:.3e} in {maxiter} iterations "
        f"(residual {np.linalg.norm(r) / bnorm:.3e})"
    )
