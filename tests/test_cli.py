import csv

import numpy as np
import pytest

from meshcond import cli
from meshcond.experiments import load_calibration
from meshcond.mesh import (
    element_volumes,
    generate_skew_mesh_2d,
    generate_skew_mesh_3d,
    generate_uniform_mesh,
    read_mesh,
    write_mesh,
)
from meshcond.spectral import ConvergenceError


def run(argv):
    return cli.main(argv)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestGenerate:
    def test_uniform_2d(self, tmp_path):
        out = tmp_path / "u.msh"
        assert run(["generate", "--case", "uniform2d", "--n", "4", "-o", str(out)]) == 0
        mesh = read_mesh(out)
        assert mesh.dim == 2
        assert mesh.n_elements == 32

    def test_skew_with_aspect(self, tmp_path):
        out = tmp_path / "s.msh"
        code = run(["generate", "--case", "skew2d", "--n", "8",
                    "--aspect", "20", "-o", str(out)])
        assert code == 0
        mesh = read_mesh(out)
        assert element_volumes(mesh).sum() == pytest.approx(1.0, rel=1e-12)

    def test_usage_error_exits_one(self):
        assert run(["generate", "--case", "uniform2d"]) == 1

    def test_bad_argument_exits_one(self, tmp_path):
        out = tmp_path / "x.msh"
        code = run(["generate", "--case", "chebyshev", "--n", "1", "-o", str(out)])
        assert code == 1

    @pytest.mark.parametrize("case", ["uniform1d", "uniform2d", "uniform3d", "chebyshev"])
    def test_aspect_rejected_where_ignored(self, tmp_path, capsys, case):
        out = tmp_path / "x.msh"
        code = run(["generate", "--case", case, "--n", "4", "--aspect", "7",
                    "-o", str(out)])
        assert code == 1
        assert f"--aspect applies only to the skew cases, not {case}" in (
            capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("case, make", [
        ("skew2d", generate_skew_mesh_2d), ("skew3d", generate_skew_mesh_3d)])
    def test_skew_aspect_defaults_to_one(self, tmp_path, case, make):
        out = tmp_path / "s.msh"
        assert run(["generate", "--case", case, "--n", "4", "-o", str(out)]) == 0
        mesh = read_mesh(out)
        assert np.array_equal(mesh.vertices, make(4, 1.0).vertices)

    def test_memory_error_exits_one(self, tmp_path, capsys, monkeypatch):
        def exhausted(dim, n):
            raise MemoryError("Unable to allocate 5.2 TiB for an array")

        monkeypatch.setattr(cli, "generate_uniform_mesh", exhausted)
        code = run(["generate", "--case", "uniform3d", "--n", "6000",
                    "-o", str(tmp_path / "x.msh")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "meshcond: error: Unable to allocate 5.2 TiB for an array\n"


class TestCalibrate:
    def test_writes_file(self, tmp_path):
        out = tmp_path / "cal.txt"
        code = run(["calibrate", "--dim", "1", "--field", "identity",
                    "--n-ref", "256", "-o", str(out)])
        assert code == 0
        text = out.read_text()
        assert "dim = 1" in text
        c = float([l for l in text.splitlines() if l.startswith("c =")][0][3:])
        assert c == pytest.approx(np.pi ** 2, rel=0.02)

    def test_writes_canonical_field(self, tmp_path):
        out = tmp_path / "cal.txt"
        assert run(["calibrate", "--dim", "2", "--field", "rotated",
                    "--n-ref", "4", "-o", str(out)]) == 0
        assert "field = rotated:1000,1\n" in out.read_text()


def _skew_mesh(tmp_path):
    mesh_path = tmp_path / "s.msh"
    run(["generate", "--case", "skew2d", "--n", "8", "--aspect", "4",
         "-o", str(mesh_path)])
    return mesh_path


class TestCalibrationFile:
    CAL = "dim = 2\nc = 9.5\nfield = {field}\nn_ref = 8\n"

    def analyze(self, tmp_path, cal_text, field):
        cal_path = tmp_path / "cal.txt"
        cal_path.write_text(cal_text)
        return run(["analyze", "--mesh", str(_skew_mesh(tmp_path)), "--field", field,
                    "--calibration", str(cal_path), "--csv", str(tmp_path / "r.csv")])

    @pytest.mark.parametrize("cal_text, message", [
        (CAL.format(field="identity") + "junk\n", "cal.txt:5: expected 'key = value'"),
        ("dim = 2\nc = 9.5\nn_ref = 8\n", "cal.txt: missing 'field'"),
        (CAL.format(field="identity") + "c = 1\n", "cal.txt:5: repeated key 'c'"),
        (CAL.format(field="identity") + "order = 1\n", "cal.txt:5: unknown key 'order'"),
        (CAL.format(field="checkerboard"), "unknown field spec 'checkerboard'"),
        (CAL.format(field="identity").replace("9.5", "nan"), "must be positive"),
    ], ids=["junk-line", "no-field", "repeated-key", "unknown-key", "unknown-field",
            "nan-constant"])
    def test_malformed_file_exits_one(self, tmp_path, capsys, cal_text, message):
        assert self.analyze(tmp_path, cal_text, "identity") == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert message in err

    def test_other_field_exits_one(self, tmp_path, capsys):
        cal_path = tmp_path / "cal.txt"
        assert run(["calibrate", "--dim", "2", "--field", "rotated:1000,1",
                    "--n-ref", "4", "-o", str(cal_path)]) == 0
        code = run(["analyze", "--mesh", str(_skew_mesh(tmp_path)), "--field", "identity",
                    "--calibration", str(cal_path), "--csv", str(tmp_path / "r.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert "field=rotated:1000,1" in err and "field=identity" in err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("file_field, field", [
        ("const:1,0,0,1", "identity"), ("identity", "const:1,0,0,1")])
    def test_identity_matches_const_i(self, tmp_path, file_field, field):
        assert self.analyze(tmp_path, self.CAL.format(field=file_field), field) == 0

    def test_calibrated_const_i_accepted_by_identity(self, tmp_path):
        cal_path = tmp_path / "cal.txt"
        assert run(["calibrate", "--dim", "2", "--field", "const:1,0,0,1",
                    "--n-ref", "4", "-o", str(cal_path)]) == 0
        assert "field = identity\n" in cal_path.read_text()
        code = run(["analyze", "--mesh", str(_skew_mesh(tmp_path)), "--field", "identity",
                    "--calibration", str(cal_path), "--csv", str(tmp_path / "r.csv")])
        assert code == 0

    def test_field_matched_in_canonical_form(self, tmp_path):
        cal_text = self.CAL.format(field="rotated  # default l1, l2")
        assert self.analyze(tmp_path, cal_text, "rotated:1000,1") == 0
        assert load_calibration(tmp_path / "cal.txt").field == "rotated:1000,1"


class TestAnalyze:
    def test_report_roundtrip(self, tmp_path):
        mesh_path = tmp_path / "c.msh"
        cal_path = tmp_path / "cal.txt"
        csv_path = tmp_path / "report.csv"
        assert run(["generate", "--case", "chebyshev", "--n", "64",
                    "-o", str(mesh_path)]) == 0
        assert run(["calibrate", "--dim", "1", "--field", "identity",
                    "--n-ref", "256", "-o", str(cal_path)]) == 0
        code = run(["analyze", "--mesh", str(mesh_path), "--field", "identity",
                    "--calibration", str(cal_path), "--csv", str(csv_path)])
        assert code == 0
        rows = read_csv(csv_path)
        assert len(rows) == 1
        row = {k: float(v) for k, v in rows[0].items() if k != "status"}
        assert row["est_lambda_max_low"] <= row["lambda_max"]
        assert row["lambda_max"] <= row["est_lambda_max_high"]

    def test_one_splu_per_matrix(self, tmp_path, splu_calls):
        mesh_path = tmp_path / "s.msh"
        assert run(["generate", "--case", "skew3d", "--n", "8", "--aspect", "4",
                    "-o", str(mesh_path)]) == 0
        code = run(["analyze", "--mesh", str(mesh_path),
                    "--csv", str(tmp_path / "r.csv")])
        assert code == 0
        # the calibration (uniform n=8), the stiffness pair and the mass matrix
        assert splu_calls == [(7 ** 3, 7 ** 3)] * 3

    def test_overflowing_field_exits_one(self, tmp_path, capsys):
        code = run(["analyze", "--mesh", str(_skew_mesh(tmp_path)),
                    "--field", "rotated:1e308,1", "--csv", str(tmp_path / "r.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert "the diffusion field overflows on this mesh" in err
        assert not (tmp_path / "r.csv").exists()

    def test_missing_mesh_exits_one(self, tmp_path):
        code = run(["analyze", "--mesh", str(tmp_path / "nope.msh"),
                    "--csv", str(tmp_path / "r.csv")])
        assert code == 1

    def test_wrong_dim_calibration_exits_one(self, tmp_path):
        mesh_path = tmp_path / "c.msh"
        cal_path = tmp_path / "cal.txt"
        run(["generate", "--case", "uniform2d", "--n", "4", "-o", str(mesh_path)])
        run(["calibrate", "--dim", "1", "--field", "identity",
             "--n-ref", "128", "-o", str(cal_path)])
        code = run(["analyze", "--mesh", str(mesh_path),
                    "--calibration", str(cal_path),
                    "--csv", str(tmp_path / "r.csv")])
        assert code == 1

    def test_non_finite_field_exits_one(self, tmp_path, capsys):
        mesh_path = tmp_path / "u.msh"
        run(["generate", "--case", "uniform2d", "--n", "4", "-o", str(mesh_path)])
        capsys.readouterr()
        code = run(["analyze", "--mesh", str(mesh_path), "--field", "rotated:nan,1",
                    "--csv", str(tmp_path / "r.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("meshcond: error:") and "finite" in err

    @pytest.mark.parametrize("spec", ["const:", "const:1,x,0,1", "rotated:1e3,x"])
    def test_bad_number_in_field_exits_one(self, tmp_path, capsys, spec):
        mesh_path = tmp_path / "u.msh"
        write_mesh(generate_uniform_mesh(2, 4), mesh_path)
        code = run(["analyze", "--mesh", str(mesh_path), "--field", spec,
                    "--csv", str(tmp_path / "r.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"meshcond: error: bad number in field spec {spec!r}\n")

    @pytest.mark.parametrize("tol", ["0.5", "0", "nan"])
    def test_bad_tol_exits_one_before_calibrating(self, tmp_path, capsys, monkeypatch,
                                                  tol):
        import meshcond.experiments as experiments

        def calibrate(*args):
            raise AssertionError("calibrated before --tol was checked")

        monkeypatch.setattr(experiments, "calibrate_constant", calibrate)
        mesh_path = tmp_path / "u.msh"
        write_mesh(generate_uniform_mesh(2, 4), mesh_path)
        code = run(["analyze", "--mesh", str(mesh_path), "--tol", tol,
                    "--csv", str(tmp_path / "r.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"meshcond: error: --tol must be in (0, 1e-4], got {float(tol)}\n")
        assert not (tmp_path / "r.csv").exists()

    def test_mass_eigensolve_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        def fail(mat, rel_tol, **kwargs):
            raise ConvergenceError("mass eigensolve did not converge")

        monkeypatch.setattr(cli, "extreme_eigenvalues", fail)
        mesh_path = tmp_path / "u.msh"
        run(["generate", "--case", "uniform1d", "--n", "8", "-o", str(mesh_path)])
        capsys.readouterr()
        code = run(["analyze", "--mesh", str(mesh_path),
                    "--csv", str(tmp_path / "r.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "meshcond: error: mass eigensolve did not converge\n"

    def test_mass_eigensolve_failure_leaves_no_report(self, tmp_path, monkeypatch):
        def fail(mat, rel_tol, **kwargs):
            raise ConvergenceError("mass eigensolve did not converge")

        mesh_path = tmp_path / "u.msh"
        run(["generate", "--case", "uniform1d", "--n", "8", "-o", str(mesh_path)])
        monkeypatch.setattr(cli, "extreme_eigenvalues", fail)
        csv_path = tmp_path / "r.csv"
        assert run(["analyze", "--mesh", str(mesh_path), "--csv", str(csv_path)]) == 1
        assert not csv_path.exists()

    def test_lapack_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        import scipy.linalg

        def fail(*args, **kwargs):
            raise scipy.linalg.LinAlgError("failed to converge")

        mesh_path = tmp_path / "u.msh"
        run(["generate", "--case", "uniform1d", "--n", "8", "-o", str(mesh_path)])
        capsys.readouterr()
        monkeypatch.setattr(scipy.linalg, "eigh", fail)
        code = run(["analyze", "--mesh", str(mesh_path),
                    "--csv", str(tmp_path / "r.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == ("meshcond: error: LAPACK eigh did not converge: "
                       "failed to converge\n")

    def test_envelope_violation_exits_two(self, tmp_path, monkeypatch):
        # the envelopes are theorems, so fake a violating analysis to check
        # the exit-code wiring
        import meshcond.cli as cli_mod

        real = cli_mod.analyze_mesh

        def tampered(mesh, field, cal, tol=1e-8, n_label=0, aspect_label=1.0):
            row, _ = real(mesh, field, cal, tol=tol, n_label=n_label,
                          aspect_label=aspect_label)
            return row, ["lambda_max 10 outside [1, 2]"]

        monkeypatch.setattr(cli_mod, "analyze_mesh", tampered)
        mesh_path = tmp_path / "u.msh"
        run(["generate", "--case", "uniform1d", "--n", "8", "-o", str(mesh_path)])
        code = run(["analyze", "--mesh", str(mesh_path),
                    "--csv", str(tmp_path / "r.csv")])
        assert code == 2
        assert len(read_csv(tmp_path / "r.csv")) == 1


# Text edits of the uniform 2D n=4 mesh file: a header line, 25 vertex
# lines ending in the boundary flag, then 32 element lines.

def _orphan_vertex(lines):
    return [lines[0].replace("nv=25", "nv=26"), *lines[1:26], "0.5 0.5 0", *lines[26:]]


def _all_boundary(lines):
    return ["meshcond v1 dim=2 nv=3 ne=1", "0 0 1", "1 0 1", "0 1 1", "0 1 2"]


def _trailing_text(lines):
    return [*lines, "0 1 2", "hello world"]


def _clockwise(lines):
    i0, i1, i2 = lines[29].split()  # element 3
    return [*lines[:29], f"{i0} {i2} {i1}", *lines[30:]]


def _tangled(lines):
    # vertex 6 of the grid, (0.25, 0.25), moved across its neighbors
    return [*lines[:7], "0.6 0.6 0", *lines[8:]]


class TestMeshFileChecks:
    @pytest.mark.parametrize("edit, code, message", [
        (_tangled, 1,
         "facet (6, 7) has elements 3, 10 on the same side: the mesh is tangled"),
        (_orphan_vertex, 1, "interior vertex 25 belongs to no element"),
        (_all_boundary, 1, "mesh has no interior vertex"),
        (_trailing_text, 1,
         "line 59: text after the 25 vertex and 32 element lines: '0 1 2'"),
        (_clockwise, 0, ""),
    ])
    def test_analyze(self, tmp_path, capsys, edit, code, message):
        mesh_path = tmp_path / "m.msh"
        write_mesh(generate_uniform_mesh(2, 4), mesh_path)
        lines = mesh_path.read_text().splitlines()
        mesh_path.write_text("\n".join(edit(lines)) + "\n")
        assert run(["analyze", "--mesh", str(mesh_path),
                    "--csv", str(tmp_path / "r.csv")]) == code
        err = capsys.readouterr().err
        assert err == (f"meshcond: error: {message}\n" if code else "")

    # edits of the uniform 2D n=6 file: 49 vertex lines, then 72 element lines
    @pytest.mark.parametrize("edit, message", [
        (lambda lines: [lines[0].replace("ne=72", "ne=73"), *lines[1:], lines[60]],
         "facet (5, 13) is shared by more than two elements: 10, 11, 72"),
        (lambda lines: [lines[0], lines[1],
                        *(line[:-1] + "0" for line in lines[2:50]), *lines[50:]],
         "line 3: vertex 1 has boundary flag 0, but its elements put it on the boundary"),
    ], ids=["duplicated-element", "only-vertex-0-flagged"])
    def test_non_conforming_file_exits_one(self, tmp_path, capsys, edit, message):
        mesh_path = tmp_path / "m.msh"
        write_mesh(generate_uniform_mesh(2, 6), mesh_path)
        lines = mesh_path.read_text().splitlines()
        mesh_path.write_text("\n".join(edit(lines)) + "\n")
        assert run(["analyze", "--mesh", str(mesh_path),
                    "--csv", str(tmp_path / "r.csv")]) == 1
        assert capsys.readouterr().err == f"meshcond: error: {message}\n"
        assert not (tmp_path / "r.csv").exists()

    def test_analyze_assembles_mass_once(self, tmp_path, monkeypatch):
        import meshcond.bounds as bounds_mod

        calls = []
        for module in (cli, bounds_mod):
            real = module.assemble_mass

            def counted(*args, _real=real, **kwargs):
                calls.append(1)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, "assemble_mass", counted)
        mesh_path = tmp_path / "u.msh"
        run(["generate", "--case", "skew3d", "--n", "4", "--aspect", "5",
             "-o", str(mesh_path)])
        assert run(["analyze", "--mesh", str(mesh_path),
                    "--csv", str(tmp_path / "r.csv")]) == 0
        assert len(calls) == 1


class TestStudy:
    def test_study_from_config(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        csv_path = tmp_path / "study.csv"
        cfg.write_text(
            "case = chebyshev\n"
            "n_values = 32, 64, 128\n"
            "field = identity\n"
            "calibration = auto\n"
        )
        assert run(["study", "--config", str(cfg), "--csv", str(csv_path)]) == 0
        rows = read_csv(csv_path)
        assert [int(r["n"]) for r in rows] == [32, 64, 128]

    def test_misspelled_key_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("case = chebyshev\nn_values = 32, 64, 128\ntolerance = 1e-3\n")
        assert run(["study", "--config", str(cfg),
                    "--csv", str(tmp_path / "s.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"meshcond: error: {cfg}:3: unknown key 'tolerance'")
        assert not (tmp_path / "s.csv").exists()

    def test_bad_tol_names_file(self, tmp_path, capsys):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("case = chebyshev\nn_values = 32, 64, 128\ntol = 0.5\n")
        assert run(["study", "--config", str(cfg),
                    "--csv", str(tmp_path / "s.csv")]) == 1
        assert capsys.readouterr().err == (
            f"meshcond: error: {cfg}: tol must be in (0, 1e-4], got 0.5\n")
        assert not (tmp_path / "s.csv").exists()

    def test_bad_config_exits_one(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("case = chebyshev\nn_values = 128, 64\n")
        assert run(["study", "--config", str(cfg),
                    "--csv", str(tmp_path / "s.csv")]) == 1
