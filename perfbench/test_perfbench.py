"""Fast tests of the benchmark itself, on smoke-size inputs.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)
with open(os.path.join(HERE, "refs.json")) as _fh:
    REFS = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(workload, trace=0, refs=None, cwd=ROOT, seed=1):
    argv = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
            "--workload", workload, "--seconds", "0.01",
            "--trace", str(trace), "--size", "smoke"]
    if seed is not None:
        argv += ["--seed", str(seed)]
    if refs is not None:
        argv += ["--refs", refs]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=170, check=False)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace):
    result = last_json(run_bench(workload, trace=trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    if trace:
        assert result["metrics"]["trace.unattributed_frac"]["value"] <= 0.05


def _perturb_row(refs):
    key = workloads.row_key("skew2d-aspect", 16, 8.0, workloads.ASPECT_FIELD)
    refs["rows"][key]["est_kappa"] = math.nextafter(refs["rows"][key]["est_kappa"], math.inf)
    return "skew2d-aniso-sweep"


def _perturb_cli(refs):
    row = refs["cli"][workloads.cli_key(6, workloads.SKEW3D_ASPECT)]["row"]
    row["factor_volume"] = math.nextafter(row["factor_volume"], math.inf)
    return "skew3d-cli-pipeline"


def _perturb_oracle(refs):
    label = next(label for label in refs["oracle"] if label.startswith("chebyshev-64"))
    refs["oracle"][label][1] *= 1 + 1e-6
    return "oracle-crossval"


@pytest.mark.parametrize("perturb", [_perturb_row, _perturb_cli, _perturb_oracle])
def test_perturbed_reference_counts_as_failed(perturb):
    refs = json.loads(json.dumps(REFS))
    workload = perturb(refs)
    path = os.path.join(ROOT, ".perfbench", f"refs-{perturb.__name__}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(refs, fh)
    try:
        result = last_json(run_bench(workload, refs=path, seed=None))
    finally:
        os.remove(path)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["ops_ok_frac"]["value"] < 1.0


def test_missing_program_exits_nonzero():
    # A directory holding only BENCHMARK.json and the benchmark, no src/.
    stripped = os.path.join(ROOT, ".perfbench", f"stripped-{os.getpid()}")
    shutil.rmtree(stripped, ignore_errors=True)
    os.makedirs(stripped)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
        shutil.copytree(HERE, os.path.join(stripped, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=stripped, capture_output=True, text=True, timeout=170, check=False)
    finally:
        shutil.rmtree(stripped, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_per_layer_spec_matches_tracing():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit) for name, (unit, _) in tracing.LAYER_METRICS.items()
    ]


@pytest.mark.parametrize("size", ["full", "smoke"])
def test_every_drawable_input_has_a_reference(size):
    sizes = workloads.SIZES[size]
    for seed in [None, *range(300)]:
        rng = None if seed is None else np.random.default_rng(seed)
        for aspect in workloads.draw_aspects(rng):
            assert 4.0 <= aspect <= 128.0
            key = workloads.row_key("skew2d-aspect", sizes["skew2d_n"], aspect,
                                    workloads.ASPECT_FIELD)
            assert key in REFS["rows"]
        for n in workloads.draw_chebyshev_sizes(rng, sizes["cheb_lo"]):
            assert sizes["cheb_lo"] <= n <= 4 * sizes["cheb_lo"]
            assert workloads.row_key("chebyshev", n, 1.0, "identity") in REFS["rows"]
    assert workloads.cli_key(sizes["skew3d_n"], workloads.SKEW3D_ASPECT) in REFS["cli"]


def test_default_seed_gives_the_fixed_inputs():
    assert workloads.draw_aspects(None) == (8.0, 32.0, 128.0)
    assert workloads.draw_chebyshev_sizes(None, 1024) == (1024, 2048, 4096)
    rng_a, rng_b = (np.random.default_rng(7) for _ in range(2))
    assert workloads.draw_chebyshev_sizes(rng_a, 1024) == workloads.draw_chebyshev_sizes(
        rng_b, 1024)
