import csv
import dataclasses
import math
import multiprocessing
import os
import re
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from meshcond import bounds, cli, experiments
from meshcond.bounds import CalibrationConstant, ConditionBoundReport
from meshcond.diffusion import FieldError, parse_field_spec
from meshcond.experiments import (
    CSV_COLUMNS,
    StudyConfig,
    envelope_violations,
    fit_loglog_slope,
    load_calibration,
    parse_study_config,
    run_study,
    save_calibration,
    study_dimension,
    write_study_csv,
)
from meshcond.mesh import generate_skew_mesh_2d


class TestFitSlope:
    def test_quadratic(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0])
        assert fit_loglog_slope(xs, xs ** 2) == pytest.approx(2.0, abs=1e-12)

    def test_scaled_cubic(self):
        xs = np.array([3.0, 9.0, 27.0])
        assert fit_loglog_slope(xs, 5.0 * xs ** 3) == pytest.approx(3.0, abs=1e-12)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([1.0, 2.0], [1.0, 4.0])

    def test_needs_positive_data(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([1.0, 2.0, 3.0], [1.0, -4.0, 9.0])


class TestConfigParsing:
    def test_full_config(self, tmp_path):
        path = tmp_path / "study.cfg"
        path.write_text(
            "# chebyshev sweep\n"
            "case = chebyshev\n"
            "n_values = 64, 128, 256\n"
            "field = identity\n"
            "tol = 1e-8\n"
            "calibration = auto\n"
        )
        cfg = parse_study_config(path)
        assert cfg.case == "chebyshev"
        assert cfg.n_values == (64, 128, 256)
        assert study_dimension(cfg) == 1

    def test_aspect_case_needs_fixed_n(self, tmp_path):
        path = tmp_path / "study.cfg"
        path.write_text("case = skew2d-aspect\naspect_values = 2, 4\n")
        with pytest.raises(ValueError, match="fixed n"):
            parse_study_config(path)

    def test_sweep_must_increase(self, tmp_path):
        path = tmp_path / "study.cfg"
        path.write_text("case = chebyshev\nn_values = 64, 64, 128\n")
        with pytest.raises(ValueError, match="strictly increasing"):
            parse_study_config(path)

    def test_unknown_case(self, tmp_path):
        path = tmp_path / "study.cfg"
        path.write_text("case = spiral\nn_values = 4, 8\n")
        with pytest.raises(ValueError, match="unknown case"):
            parse_study_config(path)

    def test_uniform_needs_dim(self):
        with pytest.raises(ValueError, match="dim"):
            run_study(StudyConfig(case="uniform", n_values=(4, 8)))

    def test_run_study_rejects_unknown_case(self):
        with pytest.raises(ValueError, match="unknown case 'spiral'"):
            run_study(StudyConfig(case="spiral", n_values=(4, 8)))

    @pytest.mark.parametrize("tol", [0.5, 0.0, float("nan")])
    def test_run_study_rejects_tol_before_calibrating(self, monkeypatch, tol):
        import meshcond.experiments as experiments

        def calibrate(*args):
            raise AssertionError("calibrated before the config was checked")

        monkeypatch.setattr(experiments, "calibrate_constant", calibrate)
        with pytest.raises(ValueError, match=re.escape("tol must be in (0, 1e-4]")):
            run_study(StudyConfig(case="chebyshev", n_values=(32, 64, 128), tol=tol))

    @pytest.mark.parametrize("cfg, message", [
        (StudyConfig(case="skew2d-aspect", n=16, aspect_values=(0.5, 2.0)),
         "case skew2d-aspect: aspect must be finite and at least 1, got 0.5"),
        (StudyConfig(case="skew2d-aspect", n=16, aspect_values=(2.0, float("nan"))),
         "case skew2d-aspect: aspect must be finite and at least 1, got nan"),
        (StudyConfig(case="skew3d-aspect", n=3, aspect_values=(2.0, 4.0)),
         "case skew3d-aspect: n must be at least 4, got 3"),
        (StudyConfig(case="skew3d-n", n_values=(8, 16), aspect=float("inf")),
         "case skew3d-n: aspect must be finite and at least 1, got inf"),
        (StudyConfig(case="skew2d-aspect", n=16, aspect_values=(2.0, 1e300)),
         "case skew2d-aspect: aspect 1e+300 squeezes the grid layer of the n = 16 mesh "
         "below floating-point resolution"),
        (StudyConfig(case="skew3d-n", n_values=(8, 150), aspect=1e15),
         "case skew3d-n: aspect 1e+15 squeezes the grid layer of the n = 150 mesh"),
        (StudyConfig(case="chebyshev", n_values=(2, 8)),
         "case chebyshev: n must be at least 3, got 2"),
        (StudyConfig(case="uniform", dim=2, n_values=(1, 4)),
         "case uniform: n must be at least 2, got 1"),
    ], ids=["aspect-below-1", "aspect-nan", "skew-n", "aspect-inf", "aspect-huge",
            "aspect-unresolved-at-n", "chebyshev-n", "uniform-n"])
    def test_run_study_rejects_sweep_before_calibrating(self, monkeypatch, cfg, message):
        import meshcond.experiments as experiments

        def calibrate(*args):
            raise AssertionError("calibrated before the config was checked")

        monkeypatch.setattr(experiments, "calibrate_constant", calibrate)
        with pytest.raises(ValueError, match=re.escape(message)):
            run_study(cfg)

    @pytest.mark.parametrize("lines, message", [
        ("case = skew2d-aspect\nn = 16\naspect_values = 0.5, 2\n", "got 0.5"),
        ("case = skew3d-aspect\nn = 3\naspect_values = 2, 4\n", "got 3"),
        ("case = chebyshev\nn_values = 2, 8\n", "got 2"),
        ("case = skew2d-aspect\nn = 16\naspect_values = 2, nan\n", "got nan"),
    ], ids=["aspect-below-1", "skew-n", "chebyshev-n", "aspect-nan"])
    def test_bad_sweep_value_names_file(self, tmp_path, lines, message):
        path = tmp_path / "study.cfg"
        path.write_text(lines)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: case .*{message}$"):
            parse_study_config(path)

    def test_comment_anywhere_on_a_line(self, tmp_path):
        path = tmp_path / "study.cfg"
        path.write_text("case = chebyshev   # 1D\nn_values = 64, 128, 256#sizes\n"
                        "  # indented comment\ntol = 1e-6 # looser\n")
        cfg = parse_study_config(path)
        assert (cfg.case, cfg.n_values, cfg.tol) == ("chebyshev", (64, 128, 256), 1e-6)

    @pytest.mark.parametrize("line, message", [
        ("tolerance = 1e-3", "study.cfg:3: unknown key 'tolerance'"),
        ("n_values = 8, 16", "study.cfg:3: repeated key 'n_values'"),
        ("tol 1e-3", "study.cfg:3: expected 'key = value'"),
        ("tol = tight", "study.cfg:3: could not convert string to float: 'tight'"),
        ("dim = 2.5", "study.cfg:3: invalid literal for int()"),
        # Python's int and float read these two as 16 and 1e-8
        ("aspect_values = 8, 1_6", "study.cfg:3: bad float '1_6': a number is ASCII"),
        ("tol = \u0661e-8", "study.cfg:3: bad float '\u0661e-8': a number is ASCII"),
        # checked with the whole config, as tol's range is: they name the file
        ("field = rotated:1_000,1", "study.cfg: bad number in field spec 'rotated:1_000,1'"),
        ("field = bogus", "study.cfg: unknown field spec 'bogus'"),
        ("aspect_values = ,", "study.cfg:3: sweep list is empty"),
    ], ids=["unknown-key", "repeated-key", "no-equals", "bad-float", "bad-int",
            "sweep-underscore", "arabic-indic-tol", "field-underscore", "field-unknown",
            "empty-sweep"])
    def test_bad_line_names_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "study.cfg"
        path.write_text(f"case = chebyshev\nn_values = 64, 128, 256\n{line}\n")
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_study_config(path)

    @pytest.mark.parametrize("lines, key", [
        ("case = skew2d-n\nn_values = 8, 16\naspect_values = 4, 16\ndim = 3\n",
         "aspect_values"),
        ("case = skew3d-n\nn_values = 8, 16\naspect = 4\nn = 8\n", "n"),
        ("case = skew2d-aspect\nn = 8\naspect_values = 4, 16\naspect = 4\n", "aspect"),
        ("case = skew3d-aspect\nn = 8\naspect_values = 4, 16\nn_values = 8, 16\n",
         "n_values"),
        ("case = chebyshev\nn_values = 8, 16\ndim = 1\n", "dim"),
        ("case = uniform\ndim = 2\nn_values = 8, 16\naspect = 4\n", "aspect"),
    ], ids=["skew2d-n", "skew3d-n", "skew2d-aspect", "skew3d-aspect", "chebyshev",
            "uniform"])
    def test_key_the_case_does_not_read_names_file(self, tmp_path, lines, key):
        path = tmp_path / "study.cfg"
        path.write_text(lines)
        case = lines.partition("\n")[0].partition("= ")[2]
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: case {case} does not read {key!r}") + "$"):
            parse_study_config(path)

    @pytest.mark.parametrize("case", sorted(experiments._CASES))
    def test_case_mesh_has_study_dimension(self, case):
        cfg = StudyConfig(case=case, n_values=(4,), aspect_values=(2.0,), n=4, dim=3)
        experiments._check_config(cfg)
        mesh, _, _ = experiments._build_mesh(cfg, experiments._sweep(cfg)[0])
        assert mesh.dim == study_dimension(cfg)

    def test_missing_case_names_file(self, tmp_path):
        path = tmp_path / "study.cfg"
        path.write_text("n_values = 64, 128, 256\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: missing 'case'")):
            parse_study_config(path)


def _readme_block(heading):
    """The first fenced block after a heading of the README."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.search(re.escape(heading) + r".*?```\n(.*?)```", text, re.S).group(1)


class TestReadmeExamples:
    def test_study_block_parses(self, tmp_path):
        path = tmp_path / "study.cfg"
        path.write_text(_readme_block("### Study configuration"))
        cfg = parse_study_config(path)
        assert (cfg.case, cfg.n, cfg.field, cfg.calibration) == (
            "skew2d-aspect", 100, "identity", "auto")
        assert cfg.aspect_values == (4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

    def test_calibration_block_loads(self, tmp_path):
        path = tmp_path / "cal.txt"
        path.write_text(_readme_block("### Calibration file format"))
        cal = load_calibration(path)
        assert (cal.dim, cal.field, cal.n_ref) == (1, "identity", 1024)


class TestRunStudy:
    def test_chebyshev_small_sweep(self):
        cfg = StudyConfig(case="chebyshev", n_values=(64, 128, 256))
        rows, violations = run_study(cfg)
        assert violations == []
        assert [r.n for r in rows] == [64, 128, 256]
        assert all(r.status == "ok" for r in rows)
        slope = fit_loglog_slope([r.n for r in rows], [r.kappa for r in rows])
        assert slope == pytest.approx(3.0, abs=0.3)
        for r in rows:
            assert r.est_lambda_max_low <= r.lambda_max <= r.est_lambda_max_high
            assert r.est_lambda_min <= r.lambda_min

    def test_uniform_2d_scaling_neutral(self):
        # constant diagonal: Jacobi scaling is a scalar and cannot change kappa
        cfg = StudyConfig(case="uniform", dim=2, n_values=(4, 8))
        rows, violations = run_study(cfg)
        assert violations == []
        for r in rows:
            assert r.kappa_scaled == pytest.approx(r.kappa, rel=1e-9)

    def test_skew_aspect_sweep(self):
        cfg = StudyConfig(case="skew2d-aspect", n=8, aspect_values=(4.0, 8.0, 16.0))
        rows, violations = run_study(cfg)
        assert violations == []
        assert [r.aspect for r in rows] == [4.0, 8.0, 16.0]
        assert all(r.n == 8 for r in rows)
        kappas = [r.kappa for r in rows]
        assert kappas == sorted(kappas)

    def test_reproducible(self):
        cfg = StudyConfig(case="chebyshev", n_values=(32, 64, 128))
        rows1, _ = run_study(cfg)
        rows2, _ = run_study(cfg)
        for r1, r2 in zip(rows1, rows2):
            for column in CSV_COLUMNS:
                a, b = getattr(r1, column), getattr(r2, column)
                if column.startswith(("est_", "factor_")):
                    assert a == b, column  # estimates are deterministic, bitwise
                elif isinstance(a, float):
                    assert a == pytest.approx(b, rel=1e-8)
                else:
                    assert a == b


def _same_value(a, b):
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


def _run_with_cpus(use_cpus, cfg, n):
    use_cpus(n)
    try:
        return run_study(cfg)
    finally:
        assert multiprocessing.active_children() == []


def _refuse_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", no_pool)


@pytest.fixture
def helpers(monkeypatch):
    """The pid of the process that started each helper thread of condition_bounds;
    a forked worker appends to its own copy."""
    started, real_pool = [], bounds.ThreadPoolExecutor

    def pool(*args, **kwargs):
        started.append(os.getpid())
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(bounds, "ThreadPoolExecutor", pool)
    return started


def _failing_values(monkeypatch, failures):
    """Make the row of each sweep value in ``failures`` raise FieldError(message)."""
    build = experiments._build_mesh

    def failing_build(cfg, value):
        if value in failures:
            raise FieldError(failures[value])
        return build(cfg, value)

    monkeypatch.setattr(experiments, "_build_mesh", failing_build)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the parallel study forks its workers")
class TestParallelStudy:
    """With 2 usable CPUs the study forks a pool of two workers, which compute
    every row; rows, messages and errors are those of the serial run."""

    @pytest.mark.parametrize("cfg", [
        StudyConfig(case="skew2d-aspect", n=8, aspect_values=(4.0, 16.0, 64.0),
                    field="rotated:1000,1"),
        StudyConfig(case="chebyshev", n_values=(16, 32, 64, 128)),
    ], ids=["skew2d-aspect", "chebyshev"])
    def test_rows_and_violations_match_serial(self, monkeypatch, cfg, use_cpus):
        # one fabricated violation per row, so their order is checked too
        monkeypatch.setattr(experiments, "envelope_violations",
                            lambda report: [f"N={report.n_elements}"])
        serial_rows, serial_violations = _run_with_cpus(use_cpus, cfg, 1)
        rows, violations = _run_with_cpus(use_cpus, cfg, 2)
        assert len(rows) == len(serial_rows) == len(experiments._sweep(cfg))
        for row, serial in zip(rows, serial_rows):
            for column in CSV_COLUMNS:
                assert _same_value(getattr(row, column), getattr(serial, column)), column
        assert violations == serial_violations
        assert len(violations) == len(rows)

    def test_workers_compute_every_row(self, monkeypatch, use_cpus):
        # which worker takes which row is up to the pool
        monkeypatch.setattr(experiments, "envelope_violations",
                            lambda report: [str(os.getpid())])
        cfg = StudyConfig(case="skew2d-aspect", n=4, aspect_values=(4.0, 8.0, 16.0, 32.0))
        _, violations = _run_with_cpus(use_cpus, cfg, 2)
        pids = [int(v.rpartition(": ")[2]) for v in violations]
        assert len(pids) == 4 and os.getpid() not in pids

    def test_one_cpu_forks_nothing(self, monkeypatch, use_cpus):
        _refuse_pool(monkeypatch)
        rows, _ = _run_with_cpus(use_cpus, StudyConfig(case="chebyshev",
                                                         n_values=(16, 32)), 1)
        assert [r.n for r in rows] == [16, 32]

    def test_no_affinity_call_runs_serially(self, monkeypatch, use_cpus):
        use_cpus(2)
        monkeypatch.delattr(os, "sched_getaffinity")
        _refuse_pool(monkeypatch)
        rows, _ = run_study(StudyConfig(case="chebyshev", n_values=(16, 32)))
        assert [r.n for r in rows] == [16, 32]

    def test_another_thread_runs_serially(self, monkeypatch, use_cpus):
        # a running Python thread must not be copied into a worker mid-call
        use_cpus(2)
        _refuse_pool(monkeypatch)
        stop = threading.Event()
        waiter = threading.Thread(target=stop.wait)
        waiter.start()
        try:
            rows, _ = run_study(StudyConfig(case="chebyshev", n_values=(16, 32)))
        finally:
            stop.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert [r.n for r in rows] == [16, 32]

    @pytest.mark.parametrize("cfg, forks", [
        (StudyConfig(case="chebyshev", n_values=(1024, 2048, 4096)), True),
        (StudyConfig(case="chebyshev", n_values=(5000, 10000)), True),
        (StudyConfig(case="skew2d-aspect", n=70, aspect_values=(4.0, 16.0)), True),
        (StudyConfig(case="skew2d-aspect", n=71, aspect_values=(4.0, 16.0)), True),
        (StudyConfig(case="skew3d-aspect", n=4, aspect_values=(4.0, 16.0)), True),
        (StudyConfig(case="skew3d-aspect", n=11, aspect_values=(4.0, 16.0)), True),
        (StudyConfig(case="skew3d-aspect", n=12, aspect_values=(4.0, 16.0)), True),
        (StudyConfig(case="chebyshev", n_values=(10000,)), False),
        (StudyConfig(case="skew3d-aspect", n=12, aspect_values=(16.0,)), False),
    ], ids=["chebyshev-4096", "chebyshev-10000", "skew2d-9800", "skew2d-10082", "skew3d-384",
            "skew3d-7986", "skew3d-10368", "chebyshev-one-value", "skew3d-one-value"])
    def test_forks_for_two_values_or_more(self, monkeypatch, cfg, forks, use_cpus):
        # each row reports the pid that computed it, without building its mesh;
        # the size of the meshes does not matter
        monkeypatch.setattr(experiments, "_build_mesh",
                            lambda cfg, value: (None, *experiments._mesh_size(cfg, value)))
        monkeypatch.setattr(experiments, "analyze_mesh",
                            lambda mesh, *args: (os.getpid(), []))
        if not forks:
            _refuse_pool(monkeypatch)
        pids, _ = _run_with_cpus(use_cpus, cfg, 2)
        assert len(pids) == len(experiments._sweep(cfg))
        # a study that forks computes no row itself
        assert (os.getpid() not in pids) == forks

    # the sweep of one skew2d-n study (aspect 8) in three orders; its meshes
    # have 2 n^2 elements
    SKEW2D_ORDERS = [(72, 102, 125, 144), (72, 125, 102, 144), (144, 72, 125, 102)]

    @staticmethod
    def _stub_rows(monkeypatch, failures=()):
        """Each row is (pid, n), made without a mesh; a value in ``failures``
        raises FieldError naming it."""
        def build(cfg, value):
            if value in failures:
                raise FieldError(f"row {value}")
            return (None, *experiments._mesh_size(cfg, value))

        monkeypatch.setattr(experiments, "_build_mesh", build)
        monkeypatch.setattr(experiments, "analyze_mesh",
                            lambda mesh, field, cal, tol, n, aspect: ((os.getpid(), n), []))

    @pytest.mark.parametrize("order", SKEW2D_ORDERS, ids=lambda order: "-".join(map(str, order)))
    def test_rows_go_out_largest_first(self, monkeypatch, order, use_cpus):
        # a pool fed largest mesh first is LPT list scheduling (Graham 1969)
        self._stub_rows(monkeypatch)
        submitted = []

        class Pool(ThreadPoolExecutor):  # one thread runs the rows as they go out
            def __init__(self, p, mp_context):
                super().__init__(1)

            def submit(self, fn, cfg, field, cal, value):
                submitted.append(value)
                return super().submit(fn, cfg, field, cal, value)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", Pool)
        cfg = StudyConfig(case="skew2d-n", n_values=order, aspect=8.0)
        rows, _ = _run_with_cpus(use_cpus, cfg, 2)
        assert submitted == sorted(order, reverse=True)
        assert [n for _, n in rows] == list(order)

    @pytest.mark.parametrize("failures, message", [
        ((125,), "row 125"),
        # 102 and 144 fail: 144 goes out first, but the serial run meets 102 first
        ((102, 144), "row 102"),
        ((72, 125), "row 72"),
    ], ids=["worker", "worker-first", "parent-first"])
    def test_balanced_error_in_sweep_order(self, monkeypatch, failures, message, use_cpus):
        self._stub_rows(monkeypatch, failures)
        cfg = StudyConfig(case="skew2d-n", n_values=self.SKEW2D_ORDERS[0], aspect=8.0)
        for cpus in (1, 2):
            with pytest.raises(FieldError, match=f"^{message}$"):
                _run_with_cpus(use_cpus, cfg, cpus)

    def test_python_thread_keeps_study_serial_not_halves(self, monkeypatch, use_cpus,
                                                          helpers):
        use_cpus(2)
        _refuse_pool(monkeypatch)
        stop = threading.Event()
        waiter = threading.Thread(target=stop.wait)
        waiter.start()
        try:
            rows, _ = run_study(StudyConfig(case="skew2d-aspect", n=8,
                                            aspect_values=(4.0, 16.0)))
        finally:
            stop.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert [r.status for r in rows] == ["ok", "ok"]
        assert helpers == [os.getpid()] * 2

    def test_native_thread_keeps_both_serial(self, monkeypatch, use_cpus):
        # a BLAS thread variable other than 1 lets the BLAS run threads of its own
        use_cpus(2)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        _refuse_pool(monkeypatch)

        def refused(*args, **kwargs):
            raise AssertionError("a helper thread was started")

        monkeypatch.setattr(bounds, "ThreadPoolExecutor", refused)
        rows, _ = run_study(StudyConfig(case="skew2d-aspect", n=8, aspect_values=(4.0, 16.0)))
        assert [r.status for r in rows] == ["ok", "ok"]

    def test_study_processes_split_halves(self, monkeypatch, use_cpus, helpers):
        # each row reports its process and the helper threads it started there
        use_cpus(2)

        def report_helpers(report):
            started = helpers.count(os.getpid())
            helpers.clear()
            return [f"{os.getpid()} {started}"]

        monkeypatch.setattr(experiments, "envelope_violations", report_helpers)
        cfg = StudyConfig(case="skew2d-aspect", n=8, aspect_values=(4.0, 16.0))
        _, violations = run_study(cfg)
        reports = [v.rpartition(": ")[2].split() for v in violations]
        assert str(os.getpid()) not in {pid for pid, _ in reports}
        assert [count for _, count in reports] == ["1", "1"]

    def test_forks_right_after_concurrent_halves(self, monkeypatch, use_cpus, helpers):
        # the helper of the halves is joined, so the study may fork
        use_cpus(2)
        field = parse_field_spec("identity", 2)
        cal = experiments.resolve_calibration("auto", 2, field)
        row, _ = experiments.analyze_mesh(generate_skew_mesh_2d(8, 4.0), field, cal)
        assert row.status == "ok" and helpers == [os.getpid()]
        self._stub_rows(monkeypatch)
        rows, _ = run_study(StudyConfig(case="skew2d-aspect", n=8, aspect_values=(4.0, 16.0)))
        assert multiprocessing.active_children() == []
        assert len(rows) == 2 and os.getpid() not in {pid for pid, _ in rows}

    def test_overflowing_field_raises_as_serial(self, monkeypatch, tmp_path, use_cpus):
        # the calibration file lets the study reach its rows, which each overflow
        cal_path = tmp_path / "cal.txt"
        save_calibration(CalibrationConstant(c=1.0, dim=2, n_ref=4, field="rotated:1e308,1",
                                             provenance="test"), cal_path)
        cfg = StudyConfig(case="skew2d-aspect", n=8, aspect_values=(4.0, 16.0),
                          field="rotated:1e308,1", calibration=str(cal_path))
        errors = []
        for cpus in (1, 2):
            with pytest.raises(ValueError) as info:
                _run_with_cpus(use_cpus, cfg, cpus)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]
        assert "the diffusion field overflows" in errors[0][1]

    @pytest.mark.parametrize("failures, message", [
        ({16.0: "worker row"}, "worker row"),
        # rows 1 and 2 fail: both may run at once, but the serial run meets row 1 first
        ({16.0: "worker row", 64.0: "later row"}, "worker row"),
        ({4.0: "first row", 16.0: "worker row"}, "first row"),
    ], ids=["worker", "worker-first", "parent-first"])
    def test_first_error_in_sweep_order(self, monkeypatch, failures, message, use_cpus):
        _failing_values(monkeypatch, failures)
        cfg = StudyConfig(case="skew2d-aspect", n=4, aspect_values=(4.0, 16.0, 64.0))
        for cpus in (1, 2):
            with pytest.raises(FieldError, match=f"^{message}$"):
                _run_with_cpus(use_cpus, cfg, cpus)

    def test_no_row_starts_after_the_first_error(self, monkeypatch, tmp_path, use_cpus):
        # the first row raises at once; with 2 CPUs only the second may have
        # started by then, and no later row starts
        def build(cfg, value):
            if value == 4.0:
                raise FieldError("first row")
            (tmp_path / f"cpus{cpus}-{value}").touch()
            time.sleep(0.2)
            return (None, *experiments._mesh_size(cfg, value))

        monkeypatch.setattr(experiments, "_build_mesh", build)
        monkeypatch.setattr(experiments, "analyze_mesh", lambda mesh, *args: (None, []))
        cfg = StudyConfig(case="skew2d-aspect", n=4,
                          aspect_values=(4.0, 8.0, 16.0, 32.0, 64.0, 128.0))
        for cpus in (1, 2):
            with pytest.raises(FieldError, match="^first row$"):
                _run_with_cpus(use_cpus, cfg, cpus)
        assert {path.name for path in tmp_path.iterdir()} <= {"cpus2-8.0"}

    def test_killed_worker_exits_one(self, monkeypatch, tmp_path, capsys, use_cpus):
        # the kernel's OOM killer ends a worker this way
        build, parent = experiments._build_mesh, os.getpid()

        def build_or_die(cfg, value):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return build(cfg, value)

        monkeypatch.setattr(experiments, "_build_mesh", build_or_die)
        use_cpus(2)
        config = tmp_path / "study.cfg"
        config.write_text("case = chebyshev\nn_values = 16, 32\n")
        assert cli.main(["study", "--config", str(config),
                         "--csv", str(tmp_path / "s.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("meshcond: error: ") and err.count("\n") == 1
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "s.csv").exists()

    def test_cli_csv_byte_identical(self, monkeypatch, tmp_path, use_cpus):
        config = tmp_path / "study.cfg"
        config.write_text("case = skew2d-aspect\nn = 8\naspect_values = 4, 16, 64\n"
                          "field = rotated:1000,1\n")
        outputs = []
        for cpus in (1, 2):
            use_cpus(cpus)
            out = tmp_path / f"cpus{cpus}.csv"
            assert cli.main(["study", "--config", str(config), "--csv", str(out)]) == 0
            assert multiprocessing.active_children() == []
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestEnvelopeCheck:
    def test_flags_fabricated_violation(self):
        from meshcond.spectral import SpectralResult

        good = SpectralResult(lambda_min=1.0, lambda_max=3.0, kappa=3.0,
                              rel_tol_achieved=1e-12)
        bad = SpectralResult(lambda_min=1.0, lambda_max=10.0, kappa=10.0,
                             rel_tol_achieved=1e-12)
        report = ConditionBoundReport(
            dim=2, n_elements=10, exact=bad, exact_scaled=good,
            est_lambda_min=0.5, est_lambda_min_scaled=0.5,
            est_lambda_max_low=2.0, est_lambda_max_high=6.0,
            est_lambda_max_scaled_low=1.0, est_lambda_max_scaled_high=3.0,
            est_kappa=12.0, est_kappa_scaled=6.0,
            factor_base=1.0, factor_d_nonuniformity=1.0,
            factor_d_nonuniformity_scaled=1.0, factor_volume=1.0,
        )
        messages = envelope_violations(report)
        assert len(messages) == 1
        assert "lambda_max" in messages[0]


def test_report_fields_are_the_csv_estimate_columns():
    """A column added to the report or to StudyRow alone fails here."""

    def estimates(names):
        return [name for name in names if name.startswith(("est_", "factor_"))]

    report = [f.name for f in dataclasses.fields(ConditionBoundReport)]
    assert estimates(report) == estimates(CSV_COLUMNS)


class TestCsvRoundtrip:
    def test_write_and_read(self, tmp_path):
        cfg = StudyConfig(case="chebyshev", n_values=(16, 32, 64))
        rows, _ = run_study(cfg)
        path = tmp_path / "out.csv"
        write_study_csv(rows, path)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        with open(path, newline="") as fh:
            back = list(csv.DictReader(fh))
        assert len(back) == len(rows)
        for row, parsed in zip(rows, back):
            for column in CSV_COLUMNS:
                original = getattr(row, column)
                if isinstance(original, float):
                    assert float(parsed[column]) == pytest.approx(original, rel=1e-15)
                else:
                    assert parsed[column] == str(original)

    def test_columns_cover_study_row(self):
        from meshcond.experiments import StudyRow

        assert CSV_COLUMNS == tuple(
            f.name for f in dataclasses.fields(StudyRow)
        )


class TestNoConvergenceRow:
    """A failed eigensolve blanks only its own exact columns."""

    EXACT = ("lambda_min", "lambda_max", "kappa")

    @pytest.fixture
    def case(self):
        from meshcond.bounds import calibrate_constant
        from meshcond.diffusion import rotated_anisotropic_field
        from meshcond.mesh import generate_skew_mesh_2d

        field = rotated_anisotropic_field(100.0, 1.0)
        return generate_skew_mesh_2d(12, 9.0), field, calibrate_constant(2, field, 32)

    @staticmethod
    def _count_stiffness(monkeypatch):
        import meshcond.bounds as bounds_mod
        import meshcond.experiments as experiments_mod

        calls = []
        # condition_bounds assembles from its geometry record through _stiffness
        for module, name in ((bounds_mod, "assemble_stiffness"),
                             (experiments_mod, "assemble_stiffness"),
                             (bounds_mod, "_stiffness")):
            real = getattr(module, name)

            def counted(*args, _real=real, **kwargs):
                calls.append(1)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("fail_unscaled", [True, False])
    def test_row_keeps_estimates(self, case, monkeypatch, tmp_path, fail_unscaled):
        import meshcond.bounds as bounds_mod
        from meshcond.experiments import analyze_mesh
        from meshcond.spectral import ConvergenceError

        ok, violations = analyze_mesh(*case, n_label=12, aspect_label=9.0)
        assert ok.status == "ok" and violations == []

        real = bounds_mod.extreme_eigenvalues

        def fake(mat, rel_tol=1e-8, **kwargs):
            scaled = np.allclose(mat.diagonal(), 1.0)
            if scaled or fail_unscaled:
                raise ConvergenceError("forced")
            return real(mat, rel_tol, **kwargs)

        monkeypatch.setattr(bounds_mod, "extreme_eigenvalues", fake)
        calls = self._count_stiffness(monkeypatch)
        row, violations = analyze_mesh(*case, n_label=12, aspect_label=9.0)
        assert len(calls) == 1
        assert row.status == "no-convergence"
        assert violations == []
        for name in self.EXACT:
            assert np.isnan(getattr(row, name + "_scaled")), name
            if fail_unscaled:
                assert np.isnan(getattr(row, name)), name
            else:
                assert getattr(row, name) == pytest.approx(getattr(ok, name), rel=1e-8)
        for column in CSV_COLUMNS:
            if column.startswith(("est_", "factor_")):
                assert getattr(row, column) == getattr(ok, column), column
        assert (row.n, row.aspect, row.n_elements, row.n_interior) == (
            ok.n, ok.aspect, ok.n_elements, ok.n_interior)
        write_study_csv([row], tmp_path / "r.csv")
        with open(tmp_path / "r.csv", newline="") as fh:
            (cells,) = csv.DictReader(fh)
        assert cells["status"] == "no-convergence"
        for name in self.EXACT:
            assert cells[name + "_scaled"] == "nan", name
            assert (cells[name] == "nan") == fail_unscaled, name

    def test_lapack_failure_on_1d_row(self, monkeypatch):
        import scipy.linalg

        from meshcond.bounds import calibrate_constant
        from meshcond.diffusion import identity_field
        from meshcond.experiments import analyze_mesh
        from meshcond.mesh import generate_chebyshev_mesh

        def fail(*args, **kwargs):
            raise scipy.linalg.LinAlgError("stein failed to converge")

        field = identity_field(1)
        cal = calibrate_constant(1, field, 64)
        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", fail)
        row, _ = analyze_mesh(generate_chebyshev_mesh(128), field, cal, n_label=128)
        assert row.status == "no-convergence"
        assert np.isnan(row.lambda_max) and np.isnan(row.lambda_max_scaled)
