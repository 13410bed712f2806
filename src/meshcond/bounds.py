"""Conditioning estimates for the assembled mass and stiffness matrices.

Implements the two-sided mass-matrix bounds, the diagonal envelope for the
largest stiffness eigenvalue, its geometric (patchwise and quality-measure)
form, the dimension-dependent lower bounds on the smallest eigenvalue with
and without Jacobi scaling, the resulting condition-number bounds with
their three-factor decomposition, the M-uniform-mesh bound, and the
calibration of the single generic constant on uniform reference meshes.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .assembly import (
    _stiffness,
    apply_symmetric_scaling,
    assemble_mass,  # unused here; perfbench/tracing.py patches this name
    assemble_stiffness,  # unused here; perfbench/tracing.py patches this name
    jacobi_scaling,
)
from .diffusion import (
    _check_finite_product,
    _ElementGeometry,
    element_averages,
    field_spectral_bounds,
    mapped_metric_tensors,  # unused here; perfbench/tracing.py patches this name
    spd_norm2,
)
from .mesh import (
    element_volumes,
    generate_uniform_mesh,
    mesh_statistics,
    patch_sums,
    reference_gradient_bound,
)
from .spectral import ConvergenceError, extreme_eigenvalues, shared_inverses

__all__ = [
    "QualityMeasures",
    "CalibrationConstant",
    "ConditionBoundReport",
    "mass_condition_bounds",
    "lambda_max_bounds",
    "lambda_max_geometric_bound",
    "quality_measures",
    "lambda_min_bound",
    "condition_bounds",
    "m_uniform_bound",
    "calibrate_constant",
    "auto_reference_subdivisions",
]


@dataclass(frozen=True, eq=False)
class QualityMeasures:
    """Per-element mesh quality in the metric induced by the inverse diffusion.

    ``q_ali`` >= 1 measures alignment (1 iff the element is equilateral in
    the metric), ``q_eq`` measures volume equidistribution (its reciprocal
    averages to one over the mesh), ``sigma_h`` is the domain volume in the
    metric, and ``dk_norm`` holds the spectral norms of the per-element
    tensors (F'_K)^{-T} D_K (F'_K)^{-1}.
    """

    q_ali: np.ndarray
    q_eq: np.ndarray
    sigma_h: float
    dk_norm: np.ndarray


@dataclass(frozen=True)
class CalibrationConstant:
    """Single generic constant of the lower bounds, fitted on a uniform mesh.

    ``field`` is the canonical spec of the diffusion field the constant was
    fitted for; it is valid only for that field and dimension.
    """

    c: float
    dim: int
    n_ref: int
    field: str
    provenance: str


@dataclass(frozen=True)
class MassConditionBounds:
    two_sided: tuple[float, float]
    fried: float
    standard: float
    scaled_upper: float


@dataclass(frozen=True)
class LambdaMaxBounds:
    unscaled: tuple[float, float]
    scaled: tuple[float, float]


@dataclass(frozen=True)
class GeometricMaxBound:
    patchwise: float
    quality_form: float


@dataclass(frozen=True)
class ConditionBoundReport:
    """Exact extreme eigenvalues next to every estimate, scaled and unscaled.

    ``exact`` or ``exact_scaled`` is None when that eigensolve did not converge.
    Each ``est_*`` and ``factor_*`` field is the study CSV column of the same
    name, in the same order.
    """

    dim: int
    n_elements: int
    exact: object
    exact_scaled: object
    est_lambda_min: float
    est_lambda_min_scaled: float
    est_lambda_max_low: float
    est_lambda_max_high: float
    est_lambda_max_scaled_low: float
    est_lambda_max_scaled_high: float
    est_kappa: float
    est_kappa_scaled: float
    factor_base: float
    factor_d_nonuniformity: float
    factor_d_nonuniformity_scaled: float
    factor_volume: float


def _patch_max(mesh, weights):
    """max over interior vertices j of sum_{K in omega_j} weights[K]."""
    return float(patch_sums(mesh, weights).max())


def mass_condition_bounds(mesh):
    """All mass-matrix condition estimates for a mesh.

    ``two_sided`` is [r, (d+2) r] with r the diagonal ratio of the assembled
    mass matrix, computed as the patch-volume ratio because
    B_jj = 2 |omega_j| / ((d+1)(d+2)); ``fried`` is the classical
    (d+2) p_max |K_max|/|K_min| bound, ``standard`` the isotropic
    diameter-ratio estimate (with the constant (d+2) p_max), and
    ``scaled_upper`` the mesh-independent bound d+2 after Jacobi scaling.
    """
    d = mesh.dim
    stats = mesh_statistics(mesh)
    r = stats.omega_max / stats.omega_min
    fried = (d + 2) * stats.p_max * stats.k_max / stats.k_min
    standard = (d + 2) * stats.p_max * stats.h_ratio ** d
    return MassConditionBounds(
        two_sided=(r, (d + 2) * r),
        fried=fried,
        standard=standard,
        scaled_upper=float(d + 2),
    )


def lambda_max_bounds(diag, dim):
    """Envelope for the largest stiffness eigenvalue from the matrix diagonal.

    Unscaled: [max_j A_jj, (d+1) max_j A_jj]; after Jacobi scaling the
    envelope is the mesh-independent [1, d+1].
    """
    diag = np.asarray(diag, dtype=float)
    top = float(diag.max())
    return LambdaMaxBounds(
        unscaled=(top, (dim + 1) * top), scaled=(1.0, float(dim + 1))
    )


def quality_measures(mesh, field):
    """Alignment and equidistribution quality of a mesh for a diffusion field.

    q_ali(K) = ((tr M_K / d) / det(M_K)^(1/d))^(d / (2(d-1))) with
    M_K = (F'_K)^{-T} D_K (F'_K)^{-1} (defined as 1 in 1D, where every
    element is aligned), and q_eq(K) is the ratio of the average metric
    element volume sigma_h / N to |K| det(D_K)^{-1/2}.
    """
    return _quality_measures(_ElementGeometry(mesh, field))


def _quality_measures(geom):
    d, n = geom.dim, geom.n_elements
    dk_norm = geom.mk_norm  # rejects an overflowing field before det(D_K) warns
    metric_vols = geom.vols / np.sqrt(np.linalg.det(geom.dk))
    sigma_h = float(metric_vols.sum())
    q_eq = (sigma_h / n) / metric_vols
    if d == 1:
        q_ali = np.ones(n)
    else:
        tr = np.trace(geom.mk, axis1=1, axis2=2)
        det_m = np.linalg.det(geom.mk)
        ratio = (tr / d) / det_m ** (1.0 / d)
        q_ali = ratio ** (d / (2.0 * (d - 1)))
    return QualityMeasures(q_ali=q_ali, q_eq=q_eq, sigma_h=sigma_h, dk_norm=dk_norm)


def lambda_max_geometric_bound(mesh, field):
    """Geometric upper bounds for the largest stiffness eigenvalue.

    ``patchwise`` is (d+1) C_phi max_j sum_{K in omega_j} |K| ||M_K||_2
    with C_phi the largest squared reference basis gradient; the
    ``quality_form`` re-expresses ||M_K||_2 through the quality measures
    and is never smaller.
    """
    d = mesh.dim
    geom = _ElementGeometry(mesh, field)
    vols = geom.vols
    qm = _quality_measures(geom)
    c_phi = reference_gradient_bound(d)
    patchwise = (d + 1) * c_phi * _patch_max(mesh, vols * qm.dk_norm)
    n = mesh.n_elements
    combined = (qm.q_ali ** (d - 1) * qm.q_eq) ** (2.0 / d)
    quality = (
        (d + 1) * c_phi * d * (n / qm.sigma_h) ** (2.0 / d)
        * _patch_max(mesh, vols * combined)
    )
    return GeometricMaxBound(patchwise=patchwise, quality_form=quality)


def _volume_factor(vols, d):
    """Volume-nonuniformity bracket of the unscaled lower bound."""
    if d == 1:
        return 1.0
    k_bar = vols.sum() / len(vols)
    if d == 2:
        return 1.0 + math.log(k_bar / vols.min())
    return float(np.mean((k_bar / vols) ** ((d - 2) / 2.0)) ** (2.0 / d))


def _d_factor_unscaled(mesh, geom, d_min):
    """Mesh D-nonuniformity factor N^(1-2/d)/d_min max_j sum |K| ||M_K||."""
    d, n = geom.dim, geom.n_elements
    return n ** (1.0 - 2.0 / d) / d_min * _patch_max(mesh, geom.vols * geom.mk_norm)


def _d_factor_scaled(geom, d_min):
    """D-nonuniformity factor of the scaled bound.

    In 1D this is the average of D_K |K_bar|/|K| over elements (the factor
    printed in the 1D scaled bound); for d >= 2 it is the volume-weighted
    L^{d/2} mean of ||M_K||_2 normalized by d_min, raised to 2/d.
    """
    d, n, vols = geom.dim, geom.n_elements, geom.vols
    if d == 1:
        dk = geom.dk[:, 0, 0]
        k_bar = vols.sum() / n
        return float(np.sum(dk * k_bar / vols) / (n * d_min))
    norms = geom.mk_norm
    mean = np.sum(vols * norms ** (d / 2.0)) / (n * d_min ** (d / 2.0))
    return float(mean ** (2.0 / d))


def _log_factor_scaled(geom):
    """Residual logarithmic factor of the scaled bound (d = 2 only)."""
    if geom.dim != 2:
        return 1.0
    norms = geom.mk_norm
    ratio = norms.max() / float(np.sum(geom.vols * norms))
    return 1.0 + abs(math.log(ratio)) if ratio > 0.0 else math.inf


def lambda_min_bound(mesh, field, cal, scaled=False):
    """Calibrated lower bound for the smallest stiffness eigenvalue.

    Unscaled: c d_min / N divided by the volume-nonuniformity bracket.
    Scaled (Jacobi): c N^(-2/d) divided by the D-nonuniformity factor and,
    in 2D, the residual logarithmic factor.
    """
    check_calibration(cal, mesh.dim, field)
    d_min, _ = field_spectral_bounds(field)
    return _lambda_min_bound(_ElementGeometry(mesh, field), d_min, cal, scaled)


def _lambda_min_bound(geom, d_min, cal, scaled):
    d, n = geom.dim, geom.n_elements
    with np.errstate(all="ignore"):  # an estimate that does not fit is named below
        est = (cal.c * n ** (-2.0 / d) / _d_factor_scaled(geom, d_min)
               / _log_factor_scaled(geom) if scaled
               else cal.c * d_min / n / _volume_factor(geom.vols, d))
    if not 0.0 < est < math.inf:
        raise ValueError("the mesh is too ill-scaled for floating point "
                         f"({'scaled ' if scaled else ''}lambda_min estimate {est:.3g})")
    return est


def _eigenvalues_or_none(mat, rel_tol, inverse):
    """Extreme eigenvalues of ``mat``, or None if the eigensolver fails."""
    try:
        return extreme_eigenvalues(mat, rel_tol, inverse=inverse)
    except ConvergenceError:
        return None


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                     "BLIS_NUM_THREADS")


def _parallel_cpus():
    """CPUs this process may split its work over: ``len(os.sched_getaffinity(0))``,
    but 1 without that call or unless the BLAS thread variables that are set all
    say ``1`` and include ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS``, which
    the OpenBLAS in numpy's wheels reads; a BLAS's own threads would compete."""
    limits = {os.environ[var] for var in _BLAS_THREAD_VARS if var in os.environ}
    openblas = os.environ.keys() & {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}
    if limits != {"1"} or not openblas or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def condition_bounds(mesh, field, cal, rel_tol=1e-8):
    """Exact extreme eigenvalues next to every estimate for one mesh and field.

    Combines the diagonal lambda_max envelope with the calibrated
    lambda_min lower bound into upper bounds on kappa(A) and
    kappa(S^-1 A S^-1), and reports the three-factor decomposition (base
    power of N, D-nonuniformity, volume nonuniformity) separately.
    Once the one LU of A is made, the scaled eigensolve runs in a helper thread
    if :func:`_parallel_cpus` is above 1 (SuperLU's solve releases the GIL, see
    :mod:`.spectral`); results and errors are a serial run's, and no thread
    outlives the call.
    """
    d = mesh.dim
    n = mesh.n_elements
    check_calibration(cal, d, field)
    geom = _ElementGeometry(mesh, field)
    a = _stiffness(mesh, geom)
    lmax = lambda_max_bounds(a.diagonal(), d)
    d_min, _ = field_spectral_bounds(field)
    lmin = _lambda_min_bound(geom, d_min, cal, scaled=False)
    lmin_scaled = _lambda_min_bound(geom, d_min, cal, scaled=True)
    report = ConditionBoundReport(
        dim=d,
        n_elements=n,
        exact=None,
        exact_scaled=None,
        est_lambda_min=lmin,
        est_lambda_min_scaled=lmin_scaled,
        est_lambda_max_low=lmax.unscaled[0],
        est_lambda_max_high=lmax.unscaled[1],
        est_lambda_max_scaled_low=lmax.scaled[0],
        est_lambda_max_scaled_high=lmax.scaled[1],
        est_kappa=lmax.unscaled[1] / lmin,
        est_kappa_scaled=lmax.scaled[1] / lmin_scaled,
        factor_base=cal.c * n ** (2.0 / d),
        factor_d_nonuniformity=_d_factor_unscaled(mesh, geom, d_min),
        factor_d_nonuniformity_scaled=_d_factor_scaled(geom, d_min),
        factor_volume=_volume_factor(geom.vols, d),
    )
    del geom  # only scalars stay alive next to the LU of A
    # both lambda_min solves share one sparse LU of A; a failed solve gives None
    s = jacobi_scaling(a)
    inverse, inverse_scaled = shared_inverses(a, s)
    scaled = (apply_symmetric_scaling(a, s), rel_tol, inverse_scaled)
    if _parallel_cpus() > 1:
        with ThreadPoolExecutor(1) as pool:
            helper = pool.submit(_eigenvalues_or_none, *scaled)
            # an error here leaves the helper's result unread, as a serial run never made it
            exact = _eigenvalues_or_none(a, rel_tol, inverse)
            return replace(report, exact=exact, exact_scaled=helper.result())
    return replace(report, exact=_eigenvalues_or_none(a, rel_tol, inverse),
                   exact_scaled=_eigenvalues_or_none(*scaled))


def m_uniform_bound(mesh, field, metric, cal):
    """Scaled condition bound for a mesh uniform in a given metric tensor.

    ``metric`` holds one SPD matrix M_K per element, shape (ne, d, d).  The
    bound is (c / d_min) (N / sigma_{h,M})^(2/d)
    (sum_K |K| ||M_K D_K||_2^(d/2))^(2/d), where sigma_{h,M} uses the
    metric volumes |K| det(M_K)^(1/2).  Raises ValueError naming the first
    element whose M_K is not finite, symmetric and positive definite.
    """
    check_calibration(cal, mesh.dim, field)
    d = mesh.dim
    metric = np.asarray(metric, dtype=float)
    if metric.shape != (mesh.n_elements, d, d):
        raise ValueError(f"metric must have shape (ne, d, d), got {metric.shape}")
    _check_metric(metric)
    vols = element_volumes(mesh)
    sigma_hm = float(np.sum(vols * np.sqrt(np.linalg.det(metric))))
    with np.errstate(over="ignore", invalid="ignore"):  # named below
        prod = metric @ element_averages(field, mesh)
        # operator norm of the (nonsymmetric) product via its Gram matrix
        norms = np.sqrt(spd_norm2(prod.transpose(0, 2, 1) @ prod))
    _check_finite_product(norms, "M_K D_K")
    term = float(np.sum(vols * norms ** (d / 2.0)) ** (2.0 / d))
    d_min, _ = field_spectral_bounds(field)
    n = mesh.n_elements
    return cal.c / d_min * (n / sigma_hm) ** (2.0 / d) * term


def _check_metric(metric):
    """Raise ValueError naming the first element whose metric is not SPD."""
    finite = np.isfinite(metric).all(axis=(1, 2))
    symmetric, spd = finite.copy(), np.zeros_like(finite)
    m = metric[finite]  # symmetric to 1e-14 relative, as a constant field
    symmetric[finite] = (np.abs(m - m.transpose(0, 2, 1)).max(axis=(1, 2))
                         <= 1e-14 * np.abs(m).max(axis=(1, 2)))
    spd[symmetric] = np.linalg.eigvalsh(metric[symmetric])[:, 0] > 0.0
    if not spd.all():
        k = int(np.argmin(spd))
        cause = ("not finite" if not finite[k] else
                 "not symmetric" if not symmetric[k] else "not positive definite")
        raise ValueError(f"metric of element {k} is {cause}")


def check_calibration(cal, dim, field):
    """Raise ValueError unless ``cal`` was fitted for dimension ``dim`` and ``field``."""
    if (cal.dim, cal.field) != (dim, field.spec):
        raise ValueError(f"calibration {cal.provenance} is for d={cal.dim} "
                         f"field={cal.field}, the analysis has d={dim} field={field.spec}")


def auto_reference_subdivisions(dim):
    """Largest power-of-two subdivision whose uniform mesh has <= 2000 unknowns."""
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    n = 2
    while True:
        m = 2 * n
        interior = (m - 1) ** dim
        if interior > 2000:
            return n
        n = m


def calibrate_constant(dim, field, n_ref):
    """Fit the generic constant on the uniform reference mesh of a dimension.

    The constant is the ratio of the exact smallest stiffness eigenvalue,
    solved to relative tolerance 1e-8, to the uncalibrated lower-bound
    expression d_min / N (whose nonuniformity brackets equal one on a
    uniform mesh), so the returned bound matches the exact value at the
    calibration point.
    """
    mesh = generate_uniform_mesh(dim, n_ref)
    if mesh.n_interior < 3:
        raise ValueError(
            f"reference mesh n={n_ref} has only {mesh.n_interior} interior vertices"
        )
    geom = _ElementGeometry(mesh, field)
    d_min, _ = field_spectral_bounds(field)
    raw = d_min / mesh.n_elements / _volume_factor(geom.vols, dim)
    lmin = extreme_eigenvalues(_stiffness(mesh, geom), 1e-8).lambda_min
    return CalibrationConstant(
        c=lmin / raw,
        dim=dim,
        n_ref=n_ref,
        field=field.spec,
        provenance=f"uniform dim={dim} n={n_ref} N={mesh.n_elements}",
    )

