"""The four benchmark workloads: inputs drawn from a seed, runs and checks.

Each workload builds its inputs from the seed in :meth:`prepare` (set-up),
then :meth:`run` performs one timed iteration through meshcond's public API
and checks every operation against the stored references.  An operation is
one study row, one CLI command or one oracle call; it fails if it raises,
reports ``no-convergence``, exits nonzero, reports an envelope violation or
misses its reference value.  A failure is recorded and the run goes on.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import os
import re
import shutil
import tempfile
import traceback

import numpy as np

import meshcond.cli
import meshcond.experiments
import meshcond.spectral
from meshcond.assembly import apply_symmetric_scaling, assemble_stiffness, jacobi_scaling
from meshcond.diffusion import identity_field
from meshcond.experiments import CSV_COLUMNS, StudyConfig
from meshcond.mesh import (
    generate_chebyshev_mesh,
    generate_skew_mesh_2d,
    generate_skew_mesh_3d,
    generate_uniform_mesh,
)

REL_TOL = 1e-8
ORACLE_TOL = 1e-8

# Columns compared to the reference bit for bit; the exact eigenvalue
# columns are compared to REL_TOL instead, and the kappa columns follow
# from them.
EXACT_COLUMNS = ("lambda_min", "lambda_max", "lambda_min_scaled", "lambda_max_scaled")
BITWISE_COLUMNS = tuple(
    c for c in CSV_COLUMNS
    if c.startswith(("est_", "factor_")) or c in ("n", "n_elements", "n_interior", "status")
)

# Sizes per --size.  "full" is the benchmark; "smoke" runs the same code
# paths on tiny inputs for the benchmark's own tests.
SIZES = {
    "full": {
        "skew2d_n": 150,
        "cheb_lo": 1024,
        "skew3d_n": 20,
        "battery": dict(n1=64, n2=20, n3=8, cheb=(64, 256, 512)),
    },
    "smoke": {
        "skew2d_n": 16,
        "cheb_lo": 64,
        "skew3d_n": 6,
        "battery": dict(n1=16, n2=6, n3=4, cheb=(16, 32, 64)),
    },
}

ASPECT_FIELD = "rotated:1000,1"
SKEW3D_ASPECT = 25.0
# Aspects are 4 * 2**(j/8) for j in 0..40, log-uniform over [4, 128];
# one j is drawn from each of three strata.
ASPECT_STRATA = ((0, 13), (14, 27), (28, 40))
DEFAULT_ASPECT_STEPS = (8, 24, 40)  # aspects 8, 32, 128


def aspect_of(j):
    return 4.0 * 2.0 ** (j / 8)


def draw_aspects(rng):
    """Three aspects, log-uniform over [4, 128], one per third of the range."""
    if rng is None:
        return tuple(aspect_of(j) for j in DEFAULT_ASPECT_STEPS)
    return tuple(aspect_of(int(rng.integers(lo, hi + 1))) for lo, hi in ASPECT_STRATA)


# The Chebyshev sweep's solve time grows about like n to this power.
CHEBYSHEV_COST_EXP = 2.5


def chebyshev_grid(lo):
    """Every size the Chebyshev sweep can draw: multiples of lo/16 in [lo, 4 lo]."""
    step = lo // 16
    return tuple(range(lo, 4 * lo + 1, step))


def draw_chebyshev_sizes(rng, lo):
    """Chebyshev element counts in [lo, 4 lo].

    The default is the doubling ladder lo, 2 lo, 4 lo.  A seed draws a pair
    in each third [a, b] of the logarithmic range: one size n log-uniform,
    the other m with m^p = a^p + b^p - n^p, where p = CHEBYSHEV_COST_EXP.
    The solve time grows about like n^p, so each pair costs about the same
    for every seed, and the seed moves the sizes but not the run's total
    work.
    """
    if rng is None:
        return (lo, 2 * lo, 4 * lo)
    p = CHEBYSHEV_COST_EXP
    step = lo // 16
    sizes = []
    for k in range(3):
        a, b = lo * 4.0 ** (k / 3), lo * 4.0 ** ((k + 1) / 3)
        n = lo * 4.0 ** ((k + float(rng.random())) / 3)
        m = (a ** p + b ** p - n ** p) ** (1 / p)
        sizes += [int(round(x / step)) * step for x in (n, m)]
    return tuple(sorted(sizes))


def oracle_battery(size):
    """The criterion-8 identity battery, (label, stiffness matrix) pairs.

    Every mesh family of the acceptance battery, each matrix unscaled and
    Jacobi-scaled.
    """
    b = SIZES[size]["battery"]
    meshes = [
        (f"uniform1d-n{b['n1']}", generate_uniform_mesh(1, b["n1"])),
        (f"uniform2d-n{b['n2']}", generate_uniform_mesh(2, b["n2"])),
        (f"uniform3d-n{b['n3']}", generate_uniform_mesh(3, b["n3"])),
        *[(f"chebyshev-{n}", generate_chebyshev_mesh(n)) for n in b["cheb"]],
        (f"skew2d-{b['n2']}-a8", generate_skew_mesh_2d(b["n2"], 8.0)),
        (f"skew2d-{b['n2']}-a125", generate_skew_mesh_2d(b["n2"], 125.0)),
        (f"skew3d-{b['n3']}-a25", generate_skew_mesh_3d(b["n3"], 25.0)),
    ]
    out = []
    for label, mesh in meshes:
        a = assemble_stiffness(mesh, identity_field(mesh.dim))
        out.append((f"{label}-unscaled", a))
        out.append((f"{label}-scaled", apply_symmetric_scaling(a, jacobi_scaling(a))))
    return out


def row_key(case, n, aspect, field_spec):
    return f"{case}:n={n}:aspect={float(aspect)!r}:field={field_spec}"


def row_record(row):
    """The reference-relevant columns of a study row, as plain values."""
    return {c: getattr(row, c) for c in BITWISE_COLUMNS + EXACT_COLUMNS}


def _same(a, b):
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b


def row_mismatches(record, ref):
    """Columns in which a row record misses its reference."""
    if ref is None:
        return ["no stored reference"]
    bad = [c for c in BITWISE_COLUMNS if not _same(record[c], ref[c])]
    bad += [
        c for c in EXACT_COLUMNS
        if not abs(record[c] - ref[c]) <= REL_TOL * abs(ref[c])
    ]
    return bad


@dataclasses.dataclass
class Outcome:
    """Operations attempted and failed in one iteration, with reasons."""

    attempted: int = 0
    failures: list = dataclasses.field(default_factory=list)

    def check(self, label, problems):
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")

    def crashed(self, label, count):
        self.attempted += count
        self.failures.extend(
            [f"{label}: {traceback.format_exc(limit=-1).strip()}"] * count
        )


class StudyWorkload:
    """run_study over one sweep; every row is one operation."""

    def __init__(self, refs, seed, size, workdir):
        self.refs = refs["rows"]
        rng = None if seed is None else np.random.default_rng(seed)
        self.config = self.make_config(rng, SIZES[size])

    def prepare(self):
        # The study builds its own meshes; set-up only warms the code paths
        # on a tiny sweep of the same case.
        meshcond.experiments.run_study(dataclasses.replace(self.config, **self.warm_sizes()))
        return self.config

    @staticmethod
    def describe(cfg):
        return dataclasses.asdict(cfg)

    def run(self, cfg):
        out = Outcome()
        sweep = cfg.aspect_values or cfg.n_values
        try:
            rows, violations = meshcond.experiments.run_study(cfg)
        except Exception:
            out.crashed(f"run_study {cfg.case}", len(sweep))
            return out
        for row in rows:
            label = f"{cfg.case} n={row.n} aspect={row.aspect}"
            problems = [v for v in violations if v.startswith(label + ":")]
            if row.status != "ok":
                problems.append(f"status {row.status}")
            ref = self.refs.get(row_key(cfg.case, row.n, row.aspect, cfg.field))
            bad = row_mismatches(row_record(row), ref)
            if bad:
                problems.append(f"misses reference in {bad}")
            out.check(label, problems)
        for _ in range(len(sweep) - len(rows)):
            out.check(f"{cfg.case} missing row", ["run_study returned no row"])
        return out


class Skew2dSweep(StudyWorkload):
    name = "skew2d-aniso-sweep"

    @staticmethod
    def make_config(rng, sizes):
        return StudyConfig(case="skew2d-aspect", n=sizes["skew2d_n"],
                           aspect_values=draw_aspects(rng), field=ASPECT_FIELD,
                           tol=REL_TOL, calibration="auto")

    @staticmethod
    def warm_sizes():
        return {"n": 8, "aspect_values": (4.0,)}


class ChebyshevSweep(StudyWorkload):
    name = "chebyshev-sweep"

    @staticmethod
    def make_config(rng, sizes):
        return StudyConfig(case="chebyshev",
                           n_values=draw_chebyshev_sizes(rng, sizes["cheb_lo"]),
                           tol=REL_TOL, calibration="auto")

    @staticmethod
    def warm_sizes():
        return {"n_values": (128,)}


def cli_key(n, aspect):
    return f"skew3d:n={n}:aspect={float(aspect)!r}"


MASS_KAPPA = re.compile(r"mass kappa ([0-9.eE+-]+)\)")


class Skew3dCliPipeline:
    """``meshcond generate`` then ``meshcond analyze`` on that file, in process.

    Files go to a scratch directory inside the working directory.
    """

    name = "skew3d-cli-pipeline"

    def __init__(self, refs, seed, size, workdir):
        self.n = SIZES[size]["skew3d_n"]
        self.ref = refs["cli"].get(cli_key(self.n, SKEW3D_ASPECT)) or {}
        self.workdir = workdir

    @staticmethod
    def commands(tmp, n):
        mesh_path = os.path.join(tmp, "skew3d.msh")
        csv_path = os.path.join(tmp, "report.csv")
        generate = ["generate", "--case", "skew3d", "--n", str(n),
                    "--aspect", repr(SKEW3D_ASPECT), "-o", mesh_path]
        analyze = ["analyze", "--mesh", mesh_path, "--calibration", "auto",
                   "--tol", repr(REL_TOL), "--csv", csv_path]
        return generate, analyze, mesh_path, csv_path

    def prepare(self):
        os.makedirs(self.workdir, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="cli-", dir=self.workdir)
        generate, analyze, _, _ = self.commands(tmp, 4)  # warm-up on a tiny mesh
        quiet_main(generate)
        quiet_main(analyze)
        return tmp

    def describe(self, tmp):
        return {"case": "skew3d", "n": self.n, "aspect": SKEW3D_ASPECT}

    def run(self, tmp):
        out = Outcome()
        generate, analyze, mesh_path, csv_path = self.commands(tmp, self.n)
        for path in (mesh_path, csv_path):
            if os.path.exists(path):
                os.remove(path)
        try:
            code, log = quiet_main(generate)
            problems = [] if code == 0 else [f"exit {code}: {log.strip()}"]
            with open(mesh_path) as fh:
                header = fh.readline().split()
            if header != self.ref.get("header"):
                problems.append(f"header {header} != reference {self.ref.get('header')}")
            out.check("generate", problems)
        except Exception:
            out.crashed("generate", 1)
        try:
            code, log = quiet_main(analyze)
            out.check("analyze", self.analyze_problems(code, log, csv_path))
        except Exception:
            out.crashed("analyze", 1)
        return out

    def analyze_problems(self, code, log, csv_path):
        if code != 0:
            return [f"exit {code}: {log.strip()}"]
        problems = []
        bad = row_mismatches(read_csv_row(csv_path), self.ref.get("row"))
        if bad:
            problems.append(f"misses reference in {bad}")
        match = MASS_KAPPA.search(log)
        want = self.ref.get("mass_kappa_printed")
        if match is None or match.group(1) != want:
            problems.append(f"mass kappa {match and match.group(1)} != reference {want}")
        return problems

    @staticmethod
    def cleanup(tmp):
        shutil.rmtree(tmp, ignore_errors=True)


def quiet_main(argv):
    """meshcond.cli.main with its output captured: (exit code, output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = meshcond.cli.main(argv)
    return code, buf.getvalue()


def read_csv_row(path):
    """The single data row of an analyze report, typed like a StudyRow.

    Parsed here rather than with meshcond's own CSV reader, so the check does
    not depend on the code it checks.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        cells = fh.readline().strip().split(",")
    record = {}
    for key, cell in zip(header, cells):
        if key == "status":
            record[key] = cell
        elif key in ("n", "n_elements", "n_interior"):
            record[key] = int(cell)
        else:
            record[key] = float(cell)
    return record


class OracleCrossval:
    """dense_eigenvalues_oracle on the battery, checked against LAPACK extremes."""

    name = "oracle-crossval"

    def __init__(self, refs, seed, size, workdir):
        self.refs = refs["oracle"]
        self.size = size
        self.seed = seed

    def prepare(self):
        battery = oracle_battery(self.size)
        if self.seed is not None:
            order = np.random.default_rng(self.seed).permutation(len(battery))
            battery = [battery[i] for i in order]
        meshcond.spectral.dense_eigenvalues_oracle(battery[0][1][:8, :8])
        return battery

    @staticmethod
    def describe(battery):
        return [label for label, _ in battery]

    def run(self, battery):
        out = Outcome()
        for label, mat in battery:
            try:
                eigs = meshcond.spectral.dense_eigenvalues_oracle(mat)
            except Exception:
                out.crashed(label, 1)
                continue
            ref = self.refs.get(label)
            if ref is None:
                out.check(label, ["no stored reference"])
                continue
            problems = [
                f"{which} {got!r} vs LAPACK {want!r}"
                for which, got, want in (("min", eigs[0], ref[0]), ("max", eigs[-1], ref[1]))
                if not abs(got - want) <= ORACLE_TOL * abs(want)
            ]
            out.check(label, problems)
        return out


WORKLOADS = {
    cls.name: cls
    for cls in (Skew2dSweep, Skew3dCliPipeline, ChebyshevSweep, OracleCrossval)
}

