"""Acceptance suite: every criterion as one test printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest report.
"""

import functools
import time
from dataclasses import dataclass

import numpy as np
import pytest

from meshcond.assembly import (
    apply_symmetric_scaling,
    assemble_mass,
    assemble_stiffness,
    jacobi_scaling,
)
from meshcond.bounds import lambda_min_bound, quality_measures
from meshcond.diffusion import constant_field, identity_field, rotated_anisotropic_field
from meshcond.experiments import StudyConfig, fit_loglog_slope, run_study
from meshcond.mesh import (
    SimplicialMesh,
    element_volumes,
    generate_chebyshev_mesh,
    generate_skew_mesh_2d,
    generate_skew_mesh_3d,
    generate_uniform_mesh,
    reference_simplex,
)
from meshcond.spectral import dense_eigenvalues_oracle, extreme_eigenvalues

SLACK = 1e-7  # relative slack absorbing the eigensolver tolerance


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num} ({name}): FAIL", flush=True)
                raise
            print(f"ACCEPTANCE {num} ({name}): PASS"
                  + (f" [{detail}]" if detail else ""), flush=True)
        return wrapper
    return deco


@dataclass
class BatteryEntry:
    label: str
    mesh: object
    field: object
    stiff: object
    stiff_scaled: object
    exact: object
    exact_scaled: object
    mass_kappa: float
    mass_scaled_kappa: float
    mass_ratio: float


def battery_definitions():
    rot = lambda: rotated_anisotropic_field(1000.0, 1.0)
    cases = [
        ("uniform1d-n64", lambda: generate_uniform_mesh(1, 64),
         [("identity", lambda: identity_field(1))]),
        ("uniform2d-n32", lambda: generate_uniform_mesh(2, 32),
         [("identity", lambda: identity_field(2)), ("rotated", rot)]),
        ("uniform3d-n8", lambda: generate_uniform_mesh(3, 8),
         [("identity", lambda: identity_field(3))]),
        ("chebyshev-64", lambda: generate_chebyshev_mesh(64),
         [("identity", lambda: identity_field(1))]),
        ("chebyshev-256", lambda: generate_chebyshev_mesh(256),
         [("identity", lambda: identity_field(1))]),
        ("chebyshev-1024", lambda: generate_chebyshev_mesh(1024),
         [("identity", lambda: identity_field(1))]),
        ("skew2d-32-a8", lambda: generate_skew_mesh_2d(32, 8.0),
         [("identity", lambda: identity_field(2)), ("rotated", rot)]),
        ("skew2d-32-a125", lambda: generate_skew_mesh_2d(32, 125.0),
         [("identity", lambda: identity_field(2)), ("rotated", rot)]),
        ("skew3d-8-a25", lambda: generate_skew_mesh_3d(8, 25.0),
         [("identity", lambda: identity_field(3))]),
    ]
    out = []
    for label, make_mesh, field_list in cases:
        for field_label, make_field in field_list:
            out.append((f"{label}-{field_label}", make_mesh, make_field))
    return out


@pytest.fixture(scope="module")
def battery():
    entries = []
    start = time.time()
    for label, make_mesh, make_field in battery_definitions():
        mesh, field = make_mesh(), make_field()
        stiff = assemble_stiffness(mesh, field)
        stiff_scaled = apply_symmetric_scaling(stiff, jacobi_scaling(stiff))
        mass = assemble_mass(mesh)
        mass_scaled = apply_symmetric_scaling(mass, jacobi_scaling(mass))
        mass_diag = mass.diagonal()
        entries.append(BatteryEntry(
            label=label,
            mesh=mesh,
            field=field,
            stiff=stiff,
            stiff_scaled=stiff_scaled,
            exact=extreme_eigenvalues(stiff, 1e-8),
            exact_scaled=extreme_eigenvalues(stiff_scaled, 1e-8),
            mass_kappa=extreme_eigenvalues(mass, 1e-8).kappa,
            mass_scaled_kappa=extreme_eigenvalues(mass_scaled, 1e-8).kappa,
            mass_ratio=float(mass_diag.max() / mass_diag.min()),
        ))
    elapsed = time.time() - start
    return entries, elapsed


@criterion(1, "envelope suite")
def test_criterion_1_envelopes(battery):
    entries, elapsed = battery
    violations = []
    for e in entries:
        d = e.mesh.dim
        top = e.stiff.diagonal().max()
        if not top * (1 - SLACK) <= e.exact.lambda_max <= (d + 1) * top * (1 + SLACK):
            violations.append(f"{e.label}: lambda_max outside diagonal envelope")
        if not 1 - SLACK <= e.exact_scaled.lambda_max <= (d + 1) * (1 + SLACK):
            violations.append(f"{e.label}: scaled lambda_max outside [1, d+1]")
        r = e.mass_ratio
        if not r * (1 - SLACK) <= e.mass_kappa <= (d + 2) * r * (1 + SLACK):
            violations.append(f"{e.label}: mass kappa outside [r, (d+2) r]")
        if e.mass_scaled_kappa > (d + 2) * (1 + SLACK):
            violations.append(f"{e.label}: scaled mass kappa above d+2")
    assert violations == []
    assert elapsed < 120.0, f"envelope battery took {elapsed:.1f}s"
    return f"{len(entries)} mesh/field combinations, {elapsed:.1f}s"


@criterion(1, "uniform 3D base-bound slope, note to envelope suite")
def test_criterion_1_note_3d_slope():
    field = identity_field(3)
    sizes, kappas = [], []
    for n in (4, 6, 8, 10, 12):
        mesh = generate_uniform_mesh(3, n)
        a = assemble_stiffness(mesh, field)
        sizes.append(mesh.n_elements)
        kappas.append(extreme_eigenvalues(a, 1e-8).kappa)
    slope = fit_loglog_slope(sizes, kappas)
    assert slope == pytest.approx(2.0 / 3.0, abs=0.15)
    return f"slope {slope:.3f}"


@criterion(2, "1D closed-form oracle")
def test_criterion_2_closed_forms():
    worst = 0.0
    for n in (4, 64, 1024):
        mesh = generate_uniform_mesh(1, n)
        a = assemble_stiffness(mesh, identity_field(1))
        got = extreme_eigenvalues(a, 1e-8)
        k = np.arange(1, n)
        eigs = 2.0 * n * (1.0 - np.cos(k * np.pi / n))
        worst = max(worst, abs(got.lambda_min - eigs.min()) / eigs.min(),
                    abs(got.lambda_max - eigs.max()) / eigs.max())
        assert got.lambda_min == pytest.approx(eigs.min(), rel=1e-8)
        assert got.lambda_max == pytest.approx(eigs.max(), rel=1e-8)

        mass_kappa = extreme_eigenvalues(assemble_mass(mesh), 1e-8).kappa
        closed = (2.0 + np.cos(np.pi / n)) / (2.0 + np.cos((n - 1) * np.pi / n))
        assert mass_kappa == pytest.approx(closed, rel=1e-8)
    return f"worst relative deviation {worst:.2e}"


@criterion(3, "Chebyshev condition-number slopes")
def test_criterion_3_chebyshev_slopes():
    start = time.time()
    cfg = StudyConfig(case="chebyshev", n_values=(256, 512, 1024, 2048, 4096))
    rows, violations = run_study(cfg)
    elapsed = time.time() - start
    assert violations == []
    ns = [r.n for r in rows]
    slope = fit_loglog_slope(ns, [r.kappa for r in rows])
    slope_scaled = fit_loglog_slope(ns, [r.kappa_scaled for r in rows])
    est_slope = fit_loglog_slope(ns, [r.est_kappa for r in rows])
    est_slope_scaled = fit_loglog_slope(ns, [r.est_kappa_scaled for r in rows])
    assert slope == pytest.approx(3.0, abs=0.2)
    assert slope_scaled == pytest.approx(2.0, abs=0.25)
    assert est_slope == pytest.approx(slope, abs=0.25)
    assert est_slope_scaled == pytest.approx(slope_scaled, abs=0.25)
    assert elapsed < 60.0, f"chebyshev study took {elapsed:.1f}s"
    return (f"slopes exact {slope:.2f}/{slope_scaled:.2f} "
            f"est {est_slope:.2f}/{est_slope_scaled:.2f}, {elapsed:.1f}s")


@criterion(4, "aspect-ratio linearity at N = 20000")
def test_criterion_4_aspect_linearity():
    start = time.time()
    cfg = StudyConfig(
        case="skew2d-aspect", n=100,
        aspect_values=(4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
    )
    rows, violations = run_study(cfg)
    elapsed = time.time() - start
    assert violations == []
    assert rows[0].n_elements == 20000
    slope = fit_loglog_slope([r.aspect for r in rows], [r.kappa for r in rows])
    assert slope == pytest.approx(1.0, abs=0.2)
    last = rows[-1]
    assert last.aspect == 128.0
    assert last.kappa_scaled * 5.0 <= last.kappa
    assert elapsed < 300.0, f"aspect study took {elapsed:.1f}s"
    return (f"slope {slope:.3f}, kappa/kappa_scaled at 128 = "
            f"{last.kappa / last.kappa_scaled:.1f}, {elapsed:.1f}s")


@criterion(5, "scaled system comparable to uniform mesh")
def test_criterion_5_scaled_comparability():
    ns = (32, 64, 96, 128)
    skew_rows, violations = run_study(
        StudyConfig(case="skew2d-n", aspect=125.0, n_values=ns)
    )
    assert violations == []
    uniform_rows, violations = run_study(
        StudyConfig(case="uniform", dim=2, n_values=ns)
    )
    assert violations == []
    ratios = [s.kappa_scaled / u.kappa for s, u in zip(skew_rows, uniform_rows)]
    assert ratios[-1] < 3.0 and ratios[-2] < 3.0
    return "ratios " + ", ".join(f"{r:.2f}" for r in ratios)


@criterion(6, "calibration soundness")
def test_criterion_6_calibration(battery, cal1, cal2, cal3):
    assert cal1.c == pytest.approx(np.pi ** 2, rel=0.05)
    entries, _ = battery
    cals = {1: cal1, 2: cal2, 3: cal3}
    checked = 0
    for e in entries:
        if e.field.spec != "identity" or e.label.startswith("uniform"):
            continue
        bound = lambda_min_bound(e.mesh, e.field, cals[e.mesh.dim])
        assert bound <= e.exact.lambda_min * (1 + SLACK), e.label
        checked += 1
    assert checked >= 6
    return f"c_1d = {cal1.c:.5f}, one-sided on {checked} study meshes"


@criterion(7, "quality-measure identities")
def test_criterion_7_quality(battery):
    rng = np.random.default_rng(2718)
    checked = 0
    while checked < 1000:
        dim = int(rng.integers(2, 4))
        pts = rng.standard_normal((dim + 1, dim))
        if np.linalg.det(pts[1:] - pts[0]) < 0.05:
            continue
        raw = rng.standard_normal((dim, dim))
        mesh = SimplicialMesh(dim=dim, vertices=pts,
                              elements=np.arange(dim + 1)[None, :])
        field = constant_field(raw @ raw.T + 0.05 * np.eye(dim))
        assert quality_measures(mesh, field).q_ali[0] >= 1.0 - 1e-10
        checked += 1

    entries, _ = battery
    for e in entries:
        qm = quality_measures(e.mesh, e.field)
        assert np.mean(1.0 / qm.q_eq) == pytest.approx(1.0, abs=1e-12), e.label

    # metric-uniform synthetic configuration: c D^(1/2) K_ref elements
    for dim in (2, 3):
        ref = np.asarray(reference_simplex(dim))
        metric_vols = []
        for _ in range(5):
            raw = rng.standard_normal((dim, dim))
            d_mat = raw @ raw.T + 0.2 * np.eye(dim)
            w, q = np.linalg.eigh(d_mat)
            fprime = 1.3 * (q * np.sqrt(w)) @ q.T
            verts = ref @ fprime.T
            mesh = SimplicialMesh(dim=dim, vertices=verts,
                                  elements=np.arange(dim + 1)[None, :])
            qm = quality_measures(mesh, constant_field(d_mat))
            assert qm.q_ali[0] == pytest.approx(1.0, rel=1e-10)
            metric_vols.append(element_volumes(mesh)[0] / np.sqrt(np.linalg.det(d_mat)))
        metric_vols = np.array(metric_vols)
        assert metric_vols.mean() / metric_vols == pytest.approx(
            np.ones(5), rel=1e-10
        )
    return "1000 random elements, all study meshes, synthetic configurations"


@criterion(8, "iterative/dense solver cross-validation")
def test_criterion_8_solver_cross_validation(battery):
    entries, _ = battery
    seen = set()
    worst = 0.0
    for e in entries:
        if e.mesh.n_interior > 3000:
            continue
        if e.label in seen:
            continue
        seen.add(e.label)
        for mat, result in ((e.stiff, e.exact), (e.stiff_scaled, e.exact_scaled)):
            oracle = dense_eigenvalues_oracle(mat)
            dev_min = abs(result.lambda_min - oracle[0]) / oracle[0]
            dev_max = abs(result.lambda_max - oracle[-1]) / oracle[-1]
            worst = max(worst, dev_min, dev_max)
            assert dev_min <= 1e-8, e.label
            assert dev_max <= 1e-8, e.label
    assert len(seen) >= 12
    return f"{len(seen)} meshes, worst relative deviation {worst:.2e}"
