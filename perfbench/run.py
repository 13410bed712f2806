"""meshcond benchmark: one workload per process, end-to-end or traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload skew2d-aniso-sweep --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28

One run sets up ``SETUP_REPEATS`` times, then repeats the workload until
``--seconds`` of timed work are spent.  With ``--trace 0`` it also times the
host probe of :mod:`hostprobe` after every iteration, and reports the
end-to-end metrics: ``adj_wall_s`` (the mean iteration) and ``setup_s`` (the
median import time of a fresh interpreter plus the median set-up), both
scaled by the probe's reference time over its mean in this run, then
``peak_rss_mb`` (set-up and the first iteration) and ``ops_ok_frac``.  The
measured times are printed too.
With ``--trace 1`` it alternates untraced and traced iterations and reports
the per-layer metrics of :mod:`tracing`.  The last line of standard output
is the result as JSON; the environment, the per-iteration times and the
spans are written under ``.perfbench/`` in the checkout.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("skew2d-aniso-sweep", "skew3d-cli-pipeline", "chebyshev-sweep",
                  "oracle-crossval")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS")
BLAS_THREADS = "1"
SETUP_REPEATS = 5
# What a fresh interpreter imports before a workload can be set up; timed in
# a child process, SETUP_REPEATS times.
IMPORT_PROBE = (
    "import sys, time; t0 = time.perf_counter(); "
    "sys.path[:0] = sys.argv[1:]; import tracing, workloads; "
    "print(time.perf_counter() - t0)"
)
# A traced iteration may leave at most this share of its wall time outside
# every layer span.
UNATTRIBUTED_BOUND = 0.05


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed; omitted, the fixed default inputs are used")
    p.add_argument("--seconds", type=float, default=28.0,
                   help="timed work per run; at least one iteration always runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--refs", default=os.path.join(HERE, "refs.json"))
    return p.parse_args(argv)


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "machine": platform.machine(),
    }


def import_times():
    """Import times of SETUP_REPEATS fresh interpreters, each waited for."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC, HERE],
                              capture_output=True, text=True, check=True, timeout=120)
        times.append(float(proc.stdout))
    return times


def _write_json(name, payload):
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(payload, fh, indent=1)


def run_one(args):
    if not os.path.isfile(os.path.join(SRC, "meshcond", "__init__.py")):
        print(f"perfbench: meshcond sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, SRC)

    import hostprobe
    import meshcond
    import tracing
    import workloads

    if not os.path.abspath(meshcond.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported meshcond from {meshcond.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    first_import_s = time.perf_counter() - START
    import_s = import_times()

    with open(args.refs) as fh:
        refs = json.load(fh)
    wl = workloads.WORKLOADS[args.workload](refs, args.seed, args.size,
                                            os.path.join(OUT, "work"))
    cleanup = getattr(wl, "cleanup", lambda state: None)
    prep_times, state = [], None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            cleanup(state)
        t0 = time.perf_counter()
        state = wl.prepare()
        prep_times.append(time.perf_counter() - t0)

    # End-to-end runs time the host probe after every iteration.  The probe
    # allocates more than some workloads do, so the peak RSS is read after
    # the first iteration, before the probe is built; the probe's first call
    # only warms it up.
    probe = peak_rss_mb = None
    rec = tracing.Recorder()
    untraced, traced, outcomes, probe_times = [], [], [], []
    elapsed = 0.0
    try:
        while True:
            is_traced = args.trace == 1 and len(outcomes) % 2 == 1
            rec.trace_id = len(outcomes)
            with tracing.installed(rec) if is_traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                outcome = wl.run(state)
                dt = time.perf_counter() - t0
            (traced if is_traced else untraced).append((rec.trace_id, dt))
            outcomes.append(outcome)
            elapsed += dt
            if args.trace == 0:
                if probe is None:
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                    probe = hostprobe.HostProbe()
                    probe()
                probe_times.append(probe())
                elapsed += probe_times[-1]
            if args.trace == 1 and not traced:
                continue
            if elapsed + dt > args.seconds:
                break
    finally:
        cleanup(state)

    attempted = sum(o.attempted for o in outcomes)
    failures = [f for o in outcomes for f in o.failures]
    wall = statistics.median(dt for _, dt in untraced)
    mean_wall = statistics.mean(dt for _, dt in untraced)
    setup = statistics.median(import_s) + statistics.median(prep_times)
    if args.trace == 0:
        speed = hostprobe.REFERENCE_S / statistics.mean(probe_times)
        metrics = {
            "adj_wall_s": (mean_wall * speed, "s"),
            "setup_s": (setup * speed, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ops_ok_frac": (1.0 - len(failures) / attempted, "frac"),
        }
    else:
        per_iter = [rec.layer_metrics(tid, dt) for tid, dt in traced]
        metrics = {
            name: (statistics.median(m[name] for m in per_iter), unit)
            for name, (unit, _) in tracing.LAYER_METRICS.items()
            if name in per_iter[0]
        }
        metrics["trace.untraced_wall_s"] = (wall, "s")
        metrics["trace.overhead_s"] = (metrics["trace.wall_s"][0] - wall, "s")
        metrics = {name: metrics[name] for name in tracing.LAYER_METRICS}

    env = environment()
    tag = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    _write_json(f"result-{tag}.json", {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "environment": env,
        "inputs": wl.describe(state),
        "setup_prepare_s": prep_times, "import_s": import_s,
        "first_import_s": first_import_s, "probe_s": probe_times,
        "wall_s": mean_wall, "raw_setup_s": setup,
        "untraced_s": [dt for _, dt in untraced], "traced_s": [dt for _, dt in traced],
        "metrics": metrics, "failures": failures,
    })
    if args.trace == 1:
        with open(os.path.join(OUT, f"spans-{tag}.jsonl"), "w") as fh:
            for span in rec.spans:
                fh.write(json.dumps(span) + "\n")

    for msg in failures[:10]:
        print(f"perfbench: failed: {msg}", file=sys.stderr)
    print("environment " + json.dumps(env))
    print(f"inputs {json.dumps(wl.describe(state))}")
    print(f"iterations untraced={len(untraced)} traced={len(traced)}")
    print(f"ops_failed_frac {len(failures) / attempted!r} ({len(failures)}/{attempted})")
    print(f"wall_s {mean_wall!r} s (measured, mean of {len(untraced)} iterations)")
    if args.trace == 0:
        print(f"raw_setup_s {setup!r} s (measured)")
        print(f"host probe {statistics.mean(probe_times)!r} s (mean of "
              f"{len(probe_times)}), reference {hostprobe.REFERENCE_S} s: "
              f"times below are scaled by {speed:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    if args.trace == 1:
        share = metrics["trace.unattributed_frac"][0]
        verdict = "within" if abs(share) <= UNATTRIBUTED_BOUND else "OUTSIDE"
        print(f"layer self times cover the traced wall time to {share:.2%}, "
              f"{verdict} the {UNATTRIBUTED_BOUND:.0%} bound")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Run every workload in its own process and print one table."""
    rows = []
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seconds", repr(args.seconds), "--trace", str(args.trace),
                "--size", args.size, "--refs", args.refs]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        measured = next(line for line in lines if line.startswith("wall_s "))
        rows.append((name, measured, json.loads(lines[-1])))
    for name, measured, result in rows:
        print(f"== {name}: {result['failed']}/{result['attempted']} operations failed, "
              f"ops_failed_frac {result['failed'] / result['attempted']!r}")
        print(f"   {measured}")
        for metric, m in result["metrics"].items():
            print(f"   {metric:34s} {m['value']:.6g} {m['unit']}")
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
