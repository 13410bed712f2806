"""Per-layer spans and counters, recorded by wrapping meshcond's public calls.

Nothing inside ``src/`` is edited: :func:`installed` replaces, for the
duration of a ``with`` block, each function on the module attribute that
its caller looks up (``meshcond.bounds.extreme_eigenvalues``,
``meshcond.experiments.condition_bounds``, ...), plus scipy's ``eigsh`` as
seen by ``meshcond.spectral`` and the ``splu`` that scipy's ARPACK module
calls.  Spans stay in memory; :meth:`Recorder.layer_metrics` turns the
spans of one traced iteration into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time

LAYERS = ("mesh", "diffusion", "assembly", "spectral", "bounds", "experiments", "cli")

# Per-layer metrics: name -> (unit, end-to-end metric and workload it should
# move).  Names ending in _calls, _nnz, _bytes, _matvecs, _solves, _exits and
# "elements" are counts; every other name is a time in seconds.
LAYER_METRICS = {
    "mesh.generate_s": ("s", "adj_wall_s on skew3d-cli-pipeline"),
    "mesh.write_s": ("s", "adj_wall_s on skew3d-cli-pipeline"),
    "mesh.read_s": ("s", "adj_wall_s on skew3d-cli-pipeline"),
    "mesh.file_bytes": ("bytes", "adj_wall_s on skew3d-cli-pipeline"),
    "mesh.elements": ("count", "adj_wall_s on skew3d-cli-pipeline"),
    "diffusion.metric_tensors_s": ("s", "adj_wall_s on skew2d-aniso-sweep"),
    "diffusion.metric_tensors_calls": ("count", "adj_wall_s on skew2d-aniso-sweep"),
    "diffusion.element_averages_s": ("s", "adj_wall_s on skew2d-aniso-sweep"),
    "diffusion.element_averages_calls": ("count", "adj_wall_s on skew2d-aniso-sweep"),
    "assembly.stiffness_s": ("s", "adj_wall_s on skew3d-cli-pipeline and skew2d-aniso-sweep"),
    "assembly.stiffness_calls": ("count", "adj_wall_s on skew3d-cli-pipeline and skew2d-aniso-sweep"),
    "assembly.mass_s": ("s", "adj_wall_s on skew3d-cli-pipeline and skew2d-aniso-sweep"),
    "assembly.scaling_s": ("s", "adj_wall_s on skew3d-cli-pipeline and skew2d-aniso-sweep"),
    "assembly.nnz": ("count", "adj_wall_s on skew3d-cli-pipeline and skew2d-aniso-sweep"),
    "spectral.eig_s": ("s", "adj_wall_s on every study and CLI workload"),
    "spectral.eig_calls": ("count", "adj_wall_s on every study and CLI workload"),
    "spectral.lanczos_max_s": ("s", "adj_wall_s on chebyshev-sweep and skew2d-aniso-sweep"),
    "spectral.lanczos_matvecs": ("count", "adj_wall_s on chebyshev-sweep and skew2d-aniso-sweep"),
    "spectral.shift_invert_s": ("s", "adj_wall_s and peak_rss_mb on skew3d-cli-pipeline"),
    "spectral.lu_s": ("s", "adj_wall_s and peak_rss_mb on skew3d-cli-pipeline"),
    "spectral.lu_nnz": ("count", "adj_wall_s and peak_rss_mb on skew3d-cli-pipeline"),
    "spectral.lu_solves": ("count", "adj_wall_s and peak_rss_mb on skew3d-cli-pipeline"),
    "spectral.oracle_s": ("s", "adj_wall_s on oracle-crossval"),
    "spectral.oracle_calls": ("count", "adj_wall_s on oracle-crossval"),
    "bounds.self_s": ("s", "adj_wall_s on skew2d-aniso-sweep"),
    "bounds.calibrate_s": ("s", "adj_wall_s on skew2d-aniso-sweep"),
    "bounds.calibrate_calls": ("count", "adj_wall_s on skew2d-aniso-sweep"),
    "experiments.study_s": ("s", "boundary span of run_study"),
    "experiments.row_s": ("s", "boundary span of analyze_mesh"),
    "experiments.csv_s": ("s", "boundary span of write_study_csv"),
    "cli.command_s": ("s", "boundary span of cli.main"),
    "cli.nonzero_exits": ("count", "ops_ok_frac on skew3d-cli-pipeline"),
    **{f"self.{layer}_s": ("s", "self time of the layer; sums to trace.wall_s")
       for layer in LAYERS},
    "trace.wall_s": ("s", "traced wall time of one iteration"),
    "trace.untraced_wall_s": ("s", "untraced wall time, same run"),
    "trace.overhead_s": ("s", "trace.wall_s minus trace.untraced_wall_s"),
    "trace.unattributed_frac": ("frac", "share of trace.wall_s in no layer span"),
}

# Spans whose self time is bound evaluation (bounds.self_s).
_ESTIMATE_SPANS = ("bounds.condition", "bounds.mass_condition")

# Spans whose total duration is reported as <span>_s.
_TOTAL_SPANS = (
    "mesh.generate", "mesh.write", "mesh.read",
    "diffusion.metric_tensors", "diffusion.element_averages",
    "assembly.stiffness", "assembly.mass", "assembly.scaling",
    "spectral.eig", "spectral.lanczos_max", "spectral.shift_invert",
    "spectral.lu", "spectral.oracle", "bounds.calibrate",
    "experiments.study", "experiments.row", "experiments.csv", "cli.command",
)


class Recorder:
    """Spans (name, parent, start, end) and counters of one traced run."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.trace_id = 0
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        rec = {"id": len(self.spans), "parent": parent, "trace": self.trace_id,
               "name": name, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name, n=1):
        self.counts[(self.trace_id, name)] = self.counts.get((self.trace_id, name), 0) + n

    def layer_metrics(self, trace_id, wall_s):
        """Per-layer totals, counts and self times of one traced iteration."""
        spans = [s for s in self.spans if s["trace"] == trace_id]
        child_time = {}
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (
                    child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
                )
        total, self_by_name = {}, {}
        for s in spans:
            dur = s["end"] - s["start"]
            total[s["name"]] = total.get(s["name"], 0.0) + dur
            self_by_name[s["name"]] = (
                self_by_name.get(s["name"], 0.0) + dur - child_time.get(s["id"], 0.0)
            )
        out = {f"{name}_s": total.get(name, 0.0) for name in _TOTAL_SPANS}
        out["bounds.self_s"] = sum(self_by_name.get(n, 0.0) for n in _ESTIMATE_SPANS)
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, value in self_by_name.items():
            layer_self[name.split(".")[0]] += value
        for layer, value in layer_self.items():
            out[f"self.{layer}_s"] = value
        for name, (unit, _) in LAYER_METRICS.items():
            if unit != "s":
                out[name] = float(self.counts.get((trace_id, name), 0))
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_frac"] = (wall_s - sum(layer_self.values())) / wall_s
        return out


def _wrap(rec, fn, span_name, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with rec.span(span_name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(rec, args, result)
        return result
    return traced


def _count_calls(metric):
    return lambda rec, args, result: rec.count(metric)


def _after_generate(rec, args, mesh):
    rec.count("mesh.elements", mesh.n_elements)


def _after_write(rec, args, result):
    rec.count("mesh.file_bytes", os.path.getsize(args[1]))


def _after_assemble(metric):
    def after(rec, args, mat):
        rec.count("assembly.nnz", mat.nnz)
        if metric:
            rec.count(metric)
    return after


def _after_main(rec, args, code):
    if code != 0:
        rec.count("cli.nonzero_exits")


_GENERATORS = ("generate_chebyshev_mesh", "generate_skew_mesh_2d",
               "generate_skew_mesh_3d", "generate_uniform_mesh")

# (module, attribute, span name, after-call hook).  Each entry patches the
# name that the calling module looks up, so nested calls are traced where
# they are made and nothing is traced twice.
_PATCHES = (
    *[("meshcond.experiments", g, "mesh.generate", _after_generate) for g in _GENERATORS],
    *[("meshcond.cli", g, "mesh.generate", _after_generate) for g in _GENERATORS],
    ("meshcond.bounds", "generate_uniform_mesh", "mesh.generate", _after_generate),
    ("meshcond.cli", "write_mesh", "mesh.write", _after_write),
    ("meshcond.cli", "read_mesh", "mesh.read", None),
    ("meshcond.bounds", "mapped_metric_tensors", "diffusion.metric_tensors",
     _count_calls("diffusion.metric_tensors_calls")),
    ("meshcond.bounds", "element_averages", "diffusion.element_averages",
     _count_calls("diffusion.element_averages_calls")),
    ("meshcond.assembly", "element_averages", "diffusion.element_averages",
     _count_calls("diffusion.element_averages_calls")),
    ("meshcond.diffusion", "element_averages", "diffusion.element_averages",
     _count_calls("diffusion.element_averages_calls")),
    ("meshcond.bounds", "assemble_stiffness", "assembly.stiffness",
     _after_assemble("assembly.stiffness_calls")),
    ("meshcond.experiments", "assemble_stiffness", "assembly.stiffness",
     _after_assemble("assembly.stiffness_calls")),
    ("meshcond.bounds", "assemble_mass", "assembly.mass", _after_assemble(None)),
    ("meshcond.cli", "assemble_mass", "assembly.mass", _after_assemble(None)),
    ("meshcond.bounds", "jacobi_scaling", "assembly.scaling", None),
    ("meshcond.bounds", "apply_symmetric_scaling", "assembly.scaling", None),
    ("meshcond.bounds", "extreme_eigenvalues", "spectral.eig",
     _count_calls("spectral.eig_calls")),
    ("meshcond.cli", "extreme_eigenvalues", "spectral.eig",
     _count_calls("spectral.eig_calls")),
    ("meshcond.spectral", "dense_eigenvalues_oracle", "spectral.oracle",
     _count_calls("spectral.oracle_calls")),
    ("meshcond.experiments", "condition_bounds", "bounds.condition", None),
    ("meshcond.cli", "mass_condition_bounds", "bounds.mass_condition", None),
    ("meshcond.experiments", "calibrate_constant", "bounds.calibrate",
     _count_calls("bounds.calibrate_calls")),
    ("meshcond.cli", "calibrate_constant", "bounds.calibrate",
     _count_calls("bounds.calibrate_calls")),
    ("meshcond.experiments", "run_study", "experiments.study", None),
    ("meshcond.experiments", "analyze_mesh", "experiments.row", None),
    ("meshcond.cli", "analyze_mesh", "experiments.row", None),
    ("meshcond.cli", "write_study_csv", "experiments.csv", None),
    ("meshcond.cli", "main", "cli.command", _after_main),
)


class _CountedLU:
    """SuperLU factor whose solves are counted."""

    def __init__(self, rec, lu):
        self._rec, self._lu = rec, lu

    def solve(self, *args, **kwargs):
        self._rec.count("spectral.lu_solves")
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _SplaView:
    """``scipy.sparse.linalg`` as seen by meshcond.spectral, with eigsh traced."""

    def __init__(self, real, eigsh):
        self._real = real
        self.eigsh = eigsh

    def __getattr__(self, name):
        return getattr(self._real, name)


def _traced_eigsh(rec, spla):
    real_eigsh = spla.eigsh

    def eigsh(a, *args, sigma=None, **kwargs):
        if sigma is not None:
            with rec.span("spectral.shift_invert"):
                return real_eigsh(a, *args, sigma=sigma, **kwargs)

        def matvec(x):
            rec.count("spectral.lanczos_matvecs")
            return a @ x

        op = spla.LinearOperator(a.shape, matvec=matvec, dtype=a.dtype)
        with rec.span("spectral.lanczos_max"):
            return real_eigsh(op, *args, **kwargs)

    return eigsh


def _traced_splu(rec, real_splu):
    def splu(*args, **kwargs):
        with rec.span("spectral.lu"):
            lu = real_splu(*args, **kwargs)
        rec.count("spectral.lu_nnz", lu.L.nnz + lu.U.nnz)
        return _CountedLU(rec, lu)
    return splu


@contextlib.contextmanager
def installed(rec):
    """Install every wrapper for the body of the block, then restore."""
    saved = []

    def patch(module, attr, value):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    try:
        for mod_name, attr, span_name, after in _PATCHES:
            module = importlib.import_module(mod_name)
            patch(module, attr, _wrap(rec, getattr(module, attr), span_name, after))
        spectral = importlib.import_module("meshcond.spectral")
        patch(spectral, "spla", _SplaView(spectral.spla, _traced_eigsh(rec, spectral.spla)))
        arpack = importlib.import_module("scipy.sparse.linalg._eigen.arpack.arpack")
        patch(arpack, "splu", _traced_splu(rec, arpack.splu))
        yield rec
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)
