"""Desk-scale conditioning studies over mesh families, written as CSV tables.

A study sweeps one mesh family (uniform, Chebyshev, or a skew family at
fixed aspect or fixed size), computes exact extreme eigenvalues of the
stiffness matrix before and after Jacobi scaling, evaluates every estimate,
and checks the two-sided envelopes inline.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, fields as dataclass_fields
from multiprocessing import get_context

import numpy as np

from .assembly import assemble_stiffness  # unused; perfbench/tracing.py patches it
from .bounds import (
    CalibrationConstant,
    _parallel_cpus,
    auto_reference_subdivisions,
    calibrate_constant,
    check_calibration,
    condition_bounds,
)
from .diffusion import parse_field_spec
from .mesh import (
    ascii_float,
    ascii_int,
    check_generator_args,
    generate_chebyshev_mesh,
    generate_skew_mesh_2d,
    generate_skew_mesh_3d,
    generate_uniform_mesh,
)
from .spectral import check_tolerance

__all__ = [
    "StudyConfig",
    "StudyRow",
    "parse_study_config",
    "save_calibration",
    "load_calibration",
    "run_study",
    "write_study_csv",
    "fit_loglog_slope",
]

# case: (mesh family, dimension or 0 for the config's dim, swept key, fixed key);
# a case reads its two keys and _SHARED_KEYS
_CASES = {
    "uniform": ("uniform", 0, "n_values", "dim"),
    "chebyshev": ("chebyshev", 1, "n_values", None),
    "skew2d-n": ("skew", 2, "n_values", "aspect"),
    "skew2d-aspect": ("skew", 2, "aspect_values", "n"),
    "skew3d-n": ("skew", 3, "n_values", "aspect"),
    "skew3d-aspect": ("skew", 3, "aspect_values", "n"),
}
_SHARED_KEYS = ("case", "field", "tol", "calibration")

# Relative slack applied to the two-sided envelopes to absorb the eigenvalue
# solver tolerance.
ENVELOPE_SLACK = 1e-7


@dataclass(frozen=True)
class StudyConfig:
    """One study: a mesh family, a sweep list and a diffusion field."""

    case: str
    n_values: tuple[int, ...] = ()
    aspect_values: tuple[float, ...] = ()
    n: int = 0
    aspect: float = 1.0
    dim: int = 0
    field: str = "identity"
    tol: float = 1e-8
    calibration: str = "auto"


@dataclass
class StudyRow:
    n: int
    aspect: float
    n_elements: int
    n_interior: int
    lambda_min: float
    lambda_max: float
    kappa: float
    lambda_min_scaled: float
    lambda_max_scaled: float
    kappa_scaled: float
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
    status: str


CSV_COLUMNS = tuple(f.name for f in dataclass_fields(StudyRow))


def fit_loglog_slope(xs, ys):
    """Least-squares slope of log(y) against log(x); needs >= 3 points."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 3 or len(xs) != len(ys):
        raise ValueError("slope fit needs at least 3 matching points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("slope fit needs positive data")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def _parse_sweep(text, cast):
    values = tuple(cast(v.strip()) for v in text.split(",") if v.strip())
    if not values:
        raise ValueError("sweep list is empty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"sweep list must be strictly increasing, got {values}")
    return values


def _read_key_values(path, casts, required):
    """The ``key = value`` lines of a file, each value converted by ``casts[key]``.

    A ``#`` starts a comment anywhere on a line.  A line without ``=``, an
    unknown or repeated key, a bad value or a missing ``required`` key raises
    ValueError naming the file and line.
    """
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.partition("#")[0].strip()
            if not line:
                continue
            key, sep, value = (part.strip() for part in line.partition("="))
            try:
                if not sep:
                    raise ValueError(f"expected 'key = value', got {line!r}")
                if key not in casts:
                    raise ValueError(f"unknown key {key!r}, expected {tuple(casts)}")
                if key in values:
                    raise ValueError(f"repeated key {key!r}")
                values[key] = casts[key](value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    missing = [key for key in required if key not in values]
    if missing:
        raise ValueError(f"{path}: missing {', '.join(map(repr, missing))}")
    return values


_STUDY_CASTS = {f.name: str for f in dataclass_fields(StudyConfig)} | {
    "n_values": lambda text: _parse_sweep(text, ascii_int),
    "aspect_values": lambda text: _parse_sweep(text, ascii_float),
    "n": ascii_int, "aspect": ascii_float, "dim": ascii_int, "tol": ascii_float,
}


def parse_study_config(path):
    """Read a study from ``key = value`` lines; absent keys keep their defaults,
    and a key that the case does not read is rejected."""
    values = _read_key_values(path, _STUDY_CASTS, required=("case",))
    cfg = StudyConfig(**values)
    try:
        _check_config(cfg)
        for key in values:
            if key not in _SHARED_KEYS + _CASES[cfg.case][2:]:
                raise ValueError(f"case {cfg.case} does not read {key!r}")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return cfg


def _check_config(cfg):
    if cfg.case not in _CASES:
        raise ValueError(f"unknown case {cfg.case!r}, expected one of {tuple(_CASES)}")
    family, _, swept, fixed = _CASES[cfg.case]
    if not getattr(cfg, swept):
        raise ValueError(f"case {cfg.case} needs {swept}")
    if fixed == "n" and cfg.n <= 0:
        raise ValueError(f"case {cfg.case} needs a fixed n")
    if fixed == "dim" and cfg.dim not in (1, 2, 3):
        raise ValueError("uniform case needs dim in {1, 2, 3}")
    for value in _sweep(cfg):
        try:
            check_generator_args(family, *_mesh_size(cfg, value))
        except ValueError as exc:
            raise ValueError(f"case {cfg.case}: {exc}") from exc
    parse_field_spec(cfg.field, study_dimension(cfg))
    check_tolerance(cfg.tol, "tol")


def study_dimension(cfg):
    return _CASES[cfg.case][1] or cfg.dim


def _sweep(cfg):
    return getattr(cfg, _CASES[cfg.case][2])


def _mesh_size(cfg, value):
    """(n, aspect) of the mesh at sweep value ``value``."""
    _, _, swept, fixed = _CASES[cfg.case]
    if swept == "aspect_values":
        return cfg.n, value
    return value, cfg.aspect if fixed == "aspect" else 1.0


def _build_mesh(cfg, value):
    family, dim = _CASES[cfg.case][0], study_dimension(cfg)
    n, aspect = _mesh_size(cfg, value)
    if family == "uniform":
        mesh = generate_uniform_mesh(dim, n)
    elif family == "chebyshev":
        mesh = generate_chebyshev_mesh(n)
    else:
        mesh = (generate_skew_mesh_2d if dim == 2 else generate_skew_mesh_3d)(n, aspect)
    return mesh, n, aspect


def outside_envelope(label, value, envelope):
    """A one-message list if ``value`` lies outside ``envelope`` beyond the slack."""
    lo, hi = envelope
    if lo * (1 - ENVELOPE_SLACK) <= value <= hi * (1 + ENVELOPE_SLACK):
        return []
    return [f"{label} {value:.6e} outside [{lo:.6e}, {hi:.6e}]"]


def envelope_violations(report):
    """Two-sided envelope failures of a condition report; failed solves are skipped."""
    out = []
    if report.exact is not None:
        out += outside_envelope("lambda_max", report.exact.lambda_max,
                                (report.est_lambda_max_low, report.est_lambda_max_high))
    if report.exact_scaled is not None:
        out += outside_envelope("scaled lambda_max", report.exact_scaled.lambda_max,
                                (report.est_lambda_max_scaled_low,
                                 report.est_lambda_max_scaled_high))
    return out


def analyze_mesh(mesh, field, cal, tol=1e-8, n_label=0, aspect_label=1.0):
    """Condition report for one mesh as a study row plus envelope violations.

    The ``est_*`` and ``factor_*`` columns are the report's fields of the same
    name; a failed solve's exact columns are nan, and ``status`` is
    ``no-convergence`` if either eigensolve failed.
    """
    report = condition_bounds(mesh, field, cal, rel_tol=tol)
    exact = {name + suffix: getattr(result, name, math.nan)
             for suffix, result in (("", report.exact), ("_scaled", report.exact_scaled))
             for name in ("lambda_min", "lambda_max", "kappa")}
    estimates = {name: getattr(report, name) for name in CSV_COLUMNS
                 if name.startswith(("est_", "factor_"))}
    failed = report.exact is None or report.exact_scaled is None
    row = StudyRow(n=n_label, aspect=aspect_label, n_elements=mesh.n_elements,
                   n_interior=mesh.n_interior, **exact, **estimates,
                   status="no-convergence" if failed else "ok")
    return row, envelope_violations(report)


def _checked_int(key, ok, need):
    """Cast of ``key``'s value: an int, with ValueError unless ``ok(value)``."""
    def cast(text):
        if not ok(value := ascii_int(text)):
            raise ValueError(f"{key} must be {need}, got {value}")
        return value

    return cast


_CALIBRATION_CASTS = {
    "dim": _checked_int("dim", lambda dim: dim in (1, 2, 3), "1, 2 or 3"),
    "c": ascii_float, "field": str,
    # 2 is the uniform generator's least n
    "n_ref": _checked_int("n_ref", lambda n_ref: n_ref >= 2, "at least 2"),
}


def save_calibration(cal, path):
    """Write a calibration constant as ``key = value`` lines."""
    with open(path, "w") as fh:
        fh.write(f"dim = {cal.dim}\nc = {cal.c:.17g}\nfield = {cal.field}\n"
                 f"n_ref = {cal.n_ref}\n")


def load_calibration(path):
    """Read a file written by :func:`save_calibration`; every key is required,
    ``dim`` must be 1, 2 or 3 and ``n_ref`` at least 2."""
    raw = _read_key_values(path, _CALIBRATION_CASTS, required=tuple(_CALIBRATION_CASTS))
    try:
        if not 0.0 < raw["c"] < math.inf:
            raise ValueError(f"calibration constant must be positive, got {raw['c']}")
        field = parse_field_spec(raw["field"], raw["dim"]).spec
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return CalibrationConstant(c=raw["c"], dim=raw["dim"], n_ref=raw["n_ref"],
                               field=field, provenance=f"file:{path}")


def resolve_calibration(spec, dim, field):
    """Calibration constant for dimension ``dim``: ``spec`` is a file or ``auto``.

    ``auto`` fits the constant for ``field`` on the largest uniform
    reference mesh with at most 2000 unknowns.  A file must have been
    fitted for the same dimension and field.
    """
    if spec == "auto":
        return calibrate_constant(dim, field, auto_reference_subdivisions(dim))
    cal = load_calibration(spec)
    check_calibration(cal, dim, field)
    return cal


def _study_row(cfg, field, cal, value):
    """(row, violation messages) of one sweep value."""
    mesh, n, aspect = _build_mesh(cfg, value)
    row, bad = analyze_mesh(mesh, field, cal, cfg.tol, n, aspect)
    return row, [f"{cfg.case} n={n} aspect={aspect}: {msg}" for msg in bad]


def run_study(cfg):
    """Run a study; returns (rows, envelope violation messages) as a serial run
    would.  After calibrating, a process running no other Python thread (it would
    be copied into the workers mid-call) hands the rows to a pool of up to
    :func:`_parallel_cpus` forked workers, largest mesh first, and computes none
    itself; that is 1 unless the BLAS thread variables say one thread, as a
    BLAS's own threads would compete with them.  At most one row per worker is
    out at a time, so no row starts after the error that ends the study."""
    _check_config(cfg)
    dim = study_dimension(cfg)
    field = parse_field_spec(cfg.field, dim)
    cal = resolve_calibration(cfg.calibration, dim, field)
    values = _sweep(cfg)
    p = min(len(values), _parallel_cpus()) if threading.active_count() == 1 else 1
    if p == 1:
        results = [_study_row(cfg, field, cal, value) for value in values]
    else:  # read in sweep order, so the first error raised is a serial run's
        order = iter(sorted(range(len(values)),
                            key=lambda i: -_mesh_size(cfg, values[i])[0]))
        futures, results = {}, []
        with ProcessPoolExecutor(p, mp_context=get_context("fork")) as pool:
            for i in range(len(values)):
                # at most p rows out, so none waits in the pool's queue
                while i not in futures or not futures[i].done():
                    busy = [future for future in futures.values() if not future.done()]
                    if len(busy) < p and len(futures) < len(values):
                        j = next(order)
                        futures[j] = pool.submit(_study_row, cfg, field, cal, values[j])
                    else:
                        wait(busy, return_when=FIRST_COMPLETED)
                results.append(futures[i].result())
    return [row for row, _ in results], [msg for _, bad in results for msg in bad]


def _format_cell(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return f"{value:.17g}"


def write_study_csv(rows, path):
    """Write study rows with the fixed, documented column order."""
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(
                ",".join(_format_cell(getattr(row, c)) for c in CSV_COLUMNS) + "\n"
            )
