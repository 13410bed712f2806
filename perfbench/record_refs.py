"""Record the correctness references of every input the benchmark can draw.

Run from the root of a checkout, on the commit whose outputs are the
reference::

    python3 perfbench/record_refs.py

Writes ``perfbench/refs.json``: for every study row the estimate, factor
and exact-eigenvalue columns, for the CLI pipeline the mesh header, report
row and printed mass condition number, and for the oracle battery the
LAPACK ``eigvalsh`` extremes.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from run import BLAS_THREADS, THREAD_VARS  # noqa: E402

os.environ.update({var: BLAS_THREADS for var in THREAD_VARS})

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import meshcond.experiments  # noqa: E402
import workloads as wl  # noqa: E402


def study_rows(cfg):
    rows, violations = meshcond.experiments.run_study(cfg)
    if violations or any(r.status != "ok" for r in rows):
        raise SystemExit(f"reference study {cfg.case} is not clean: {violations}")
    return {wl.row_key(cfg.case, r.n, r.aspect, cfg.field): wl.row_record(r) for r in rows}


def cli_reference(n, workdir):
    tmp = tempfile.mkdtemp(prefix="refs-", dir=workdir)
    generate, analyze, mesh_path, csv_path = wl.Skew3dCliPipeline.commands(tmp, n)
    codes = [wl.quiet_main(generate)[0]]
    code, log = wl.quiet_main(analyze)
    codes.append(code)
    if codes != [0, 0]:
        raise SystemExit(f"reference CLI pipeline exited {codes}: {log}")
    with open(mesh_path) as fh:
        header = fh.readline().split()
    match = wl.MASS_KAPPA.search(log)
    ref = {"header": header, "row": wl.read_csv_row(csv_path),
           "mass_kappa_printed": match.group(1)}
    wl.Skew3dCliPipeline.cleanup(tmp)
    return ref


def main():
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    refs = {
        "meta": {"commit": commit, "numpy": np.__version__, "scipy": scipy.__version__},
        "rows": {}, "cli": {}, "oracle": {},
    }
    workdir = os.path.join(ROOT, ".perfbench", "work")
    os.makedirs(workdir, exist_ok=True)
    for size, sizes in wl.SIZES.items():
        aspects = tuple(wl.aspect_of(j) for j in range(wl.ASPECT_STRATA[-1][1] + 1))
        refs["rows"].update(study_rows(wl.StudyConfig(
            case="skew2d-aspect", n=sizes["skew2d_n"], aspect_values=aspects,
            field=wl.ASPECT_FIELD, tol=wl.REL_TOL, calibration="auto")))
        refs["rows"].update(study_rows(wl.StudyConfig(
            case="chebyshev", n_values=wl.chebyshev_grid(sizes["cheb_lo"]),
            tol=wl.REL_TOL, calibration="auto")))
        refs["cli"][wl.cli_key(sizes["skew3d_n"], wl.SKEW3D_ASPECT)] = cli_reference(
            sizes["skew3d_n"], workdir)
        for label, mat in wl.oracle_battery(size):
            eigs = np.linalg.eigvalsh(mat.toarray())
            refs["oracle"][label] = [float(eigs[0]), float(eigs[-1])]
        print(f"recorded {size} references", flush=True)
    with open(os.path.join(HERE, "refs.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
