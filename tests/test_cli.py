import csv
import warnings

import numpy as np
import pytest

from meshcond import cli
from meshcond.experiments import load_calibration
from meshcond.mesh import (
    element_volumes,
    generate_chebyshev_mesh,
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

    @pytest.mark.parametrize("argv, message", [
        (["generate", "--case", "uniform2d", "--n", "\u0664"],
         "meshcond generate: error: argument --n: invalid int value: '\u0664'"),
        (["generate", "--case", "skew2d", "--n", "8", "--aspect", "1_6"],
         "meshcond generate: error: argument --aspect: invalid float value: '1_6'"),
        (["calibrate", "--n-ref", "8", "--dim", "\u0662"],
         "meshcond calibrate: error: argument --dim: invalid int value: '\u0662'"),
    ], ids=["n-arabic-indic", "aspect-underscore", "dim-arabic-indic"])
    def test_non_ascii_number_option_exits_one(self, tmp_path, capsys, argv, message):
        # Python's int and float read each value
        out = tmp_path / "x.out"
        assert run([*argv, "-o", str(out)]) == 1
        assert capsys.readouterr().err.endswith(f"\n{message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("case, n, aspect", [
        ("skew2d", 8, "1e16"), ("skew3d", 150, "1e15"), ("skew2d", 4, "1e300")])
    def test_unresolved_layer_exits_one(self, tmp_path, capsys, case, n, aspect):
        # the squeezed layer's height rounds away next to the grid line below it
        out = tmp_path / "x.msh"
        code = run(["generate", "--case", case, "--n", str(n), "--aspect", aspect,
                    "-o", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"meshcond: error: aspect {float(aspect):g} squeezes the grid layer of the "
            f"n = {n} mesh below floating-point resolution\n")
        assert not out.exists()

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
        (CAL.format(field="identity").replace("n_ref = 8", "n_ref = \u0668"),
         "cal.txt:4: bad int '\u0668': a number is ASCII, without '_'"),
        (CAL.format(field="identity").replace("dim = 2", "dim = 7"),
         "cal.txt:1: dim must be 1, 2 or 3, got 7"),
        (CAL.format(field="identity").replace("dim = 2", "dim = -1"),
         "cal.txt:1: dim must be 1, 2 or 3, got -1"),
        (CAL.format(field="identity").replace("n_ref = 8", "n_ref = -3"),
         "cal.txt:4: n_ref must be at least 2, got -3"),
    ], ids=["junk-line", "no-field", "repeated-key", "unknown-key", "unknown-field",
            "nan-constant", "arabic-indic-n-ref", "dim-7", "dim-negative", "n-ref-negative"])
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
        # the calibration (uniform n=8) and the stiffness pair; the mass
        # matrix's Wathen bound proves kappa(B) small, so it gets no LU
        assert splu_calls == [(7 ** 3, 7 ** 3)] * 2

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

    @pytest.mark.parametrize("spec, dim, message", [
        ("const:nan", 2, "constant field matrix has non-finite entries"),
        ("const:1,0,0,1", 1, "const field is 2D but the mesh is 1D"),
        ("rotated:1", 2, "rotated field needs two eigenvalues, got 'rotated:1'"),
    ], ids=["const-nan", "const-dim", "rotated-one"])
    def test_bad_field_exits_one(self, tmp_path, capsys, spec, dim, message):
        mesh_path = tmp_path / "u.msh"
        write_mesh(generate_uniform_mesh(dim, 4), mesh_path)
        code = run(["analyze", "--mesh", str(mesh_path), "--field", spec,
                    "--csv", str(tmp_path / "r.csv")])
        assert code == 1
        assert capsys.readouterr().err == f"meshcond: error: {message}\n"

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


def _ill_scaled(make, vertex, axis, value):
    """Edit of a generated mesh file that sets one vertex coordinate to ``value``."""
    def edit(path):
        write_mesh(make(), path)
        lines = path.read_text().splitlines()
        tokens = lines[1 + vertex].split()
        tokens[axis] = value
        lines[1 + vertex] = " ".join(tokens)
        path.write_text("\n".join(lines) + "\n")
    return edit


_TOO_WIDE = ("the mesh is too ill-scaled for floating point "
             "(scaled lambda_min estimate 0)")


class TestIllScaledElements:
    """A vertex moved to 1e-320 or 1e308 leaves a mesh whose element geometry
    or whose estimates do not fit in floating point; it exits 1 naming the
    element or blaming the mesh's scale."""

    @pytest.mark.parametrize("edit, message", [
        # vertex 7, (1, 1/3), moved to (1, 1e-320): |K| = 1.67e-321
        (_ill_scaled(lambda: generate_uniform_mesh(2, 3), 7, 1, "1e-320"),
         "element 4 of the mesh is too ill-scaled for floating point "
         "(volume 1.67e-321, Jacobian inverse not finite)"),
        (_ill_scaled(lambda: generate_uniform_mesh(2, 3), 1, 0, "1e-320"),
         "element 0 of the mesh is too ill-scaled for floating point "
         "(volume 1.67e-321, Jacobian inverse not finite)"),
        (_ill_scaled(lambda: generate_uniform_mesh(2, 3), 15, 0, "1e308"),
         "element 16 of the mesh is too ill-scaled for floating point "
         "(volume 0.0556, Jacobian inverse not finite)"),
        (_ill_scaled(lambda: generate_uniform_mesh(3, 2), 26, 2, "1e308"),
         "element 43 of the mesh is too ill-scaled for floating point "
         "(volume 0.0208, Jacobian inverse not finite)"),
        # a boundary vertex moved far out stretches the domain, not one element:
        # the geometry fits, but the scaled lambda_min estimate underflows to 0
        (_ill_scaled(lambda: generate_chebyshev_mesh(8), 8, 0, "1e308"), _TOO_WIDE),
        (_ill_scaled(lambda: generate_chebyshev_mesh(8), 0, 0, "-1e308"), _TOO_WIDE),
        (_ill_scaled(lambda: generate_uniform_mesh(3, 2), 2, 0, "1e308"), _TOO_WIDE),
        (_ill_scaled(lambda: generate_uniform_mesh(2, 3), 3, 0, "1e308"), _TOO_WIDE),
        # the determinant of the edge matrix divides by zero inside numpy
        (_ill_scaled(lambda: generate_uniform_mesh(2, 3), 5, 0, "1e-320"),
         "element 1 is degenerate (volume -0.0)"),
    ], ids=["uniform2d-v7-1e-320", "uniform2d-v1-1e-320", "uniform2d-v15-1e308",
            "uniform3d-v26-1e308", "chebyshev8-v8-1e308", "chebyshev8-v0--1e308",
            "uniform3d-v2-1e308", "uniform2d-v3-1e308", "uniform2d-v5-1e-320"])
    def test_exits_one_naming_the_element(self, tmp_path, capsys, edit, message):
        mesh_path = tmp_path / "m.msh"
        edit(mesh_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["analyze", "--mesh", str(mesh_path),
                        "--csv", str(tmp_path / "r.csv")])
        assert code == 1
        assert capsys.readouterr().err == f"meshcond: error: {message}\n"
        assert caught == []
        assert not (tmp_path / "r.csv").exists()


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

    def test_unresolved_layer_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("case = skew2d-aspect\nn = 8\naspect_values = 4, 1e16\n")
        assert run(["study", "--config", str(cfg),
                    "--csv", str(tmp_path / "s.csv")]) == 1
        assert capsys.readouterr().err == (
            f"meshcond: error: {cfg}: case skew2d-aspect: aspect 1e+16 squeezes the "
            "grid layer of the n = 8 mesh below floating-point resolution\n")
        assert not (tmp_path / "s.csv").exists()

    def test_empty_sweep_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("case = chebyshev\nn_values = ,\n")
        assert run(["study", "--config", str(cfg),
                    "--csv", str(tmp_path / "s.csv")]) == 1
        assert capsys.readouterr().err == f"meshcond: error: {cfg}:2: sweep list is empty\n"
        assert not (tmp_path / "s.csv").exists()

    def test_bad_config_exits_one(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("case = chebyshev\nn_values = 128, 64\n")
        assert run(["study", "--config", str(cfg),
                    "--csv", str(tmp_path / "s.csv")]) == 1


class TestMutationFuzz:
    """Seeded mutations of small mesh, calibration and study files, run
    through ``cli.main``: each exits 0, 1 or 2, an exit 1 prints one line,
    and no exception or warning escapes."""

    # numbers Python's float or int reads but the file formats may not, an
    # overflow, a NaN, an int64 overflow and an empty token
    TOKENS = ("1_0", "\u0661", "1e400", "nan", "12345678901234567890", "")

    @classmethod
    def _mutate(cls, rng, text):
        lines = text.splitlines()
        kind, k = int(rng.integers(7)), int(rng.integers(len(lines)))
        if kind <= 2:
            tokens = lines[k].split(" ")
            token = cls.TOKENS[int(rng.integers(len(cls.TOKENS)))]
            tokens[int(rng.integers(len(tokens)))] = token
            lines[k] = " ".join(tokens)
        elif kind == 3:
            del lines[k]
        elif kind == 4:
            lines.insert(k, lines[k])
        elif kind == 5:
            j = int(rng.integers(len(lines)))
            lines[k], lines[j] = lines[j], lines[k]
        else:
            return text[:int(rng.integers(len(text)))]
        return "\n".join(lines) + "\n"

    def test_mutated_inputs(self, tmp_path, capsys, use_cpus):
        use_cpus(1)  # a study's rows run in this process
        inputs = {}
        meshes = [generate_chebyshev_mesh(8), generate_uniform_mesh(2, 3),
                  generate_uniform_mesh(3, 2)]
        for mesh in meshes:
            d = mesh.dim
            write_mesh(mesh, tmp_path / f"m{d}.msh")
            (tmp_path / f"c{d}.txt").write_text(
                f"dim = {d}\nc = 9.5\nfield = identity\nn_ref = 8\n")
            inputs[f"m{d}.msh"] = ["analyze", "--mesh", "{}",
                                   "--calibration", str(tmp_path / f"c{d}.txt")]
        inputs["c2.txt"] = ["analyze", "--mesh", str(tmp_path / "m2.msh"),
                            "--calibration", "{}"]
        (tmp_path / "s1.cfg").write_text(
            f"case = chebyshev\nn_values = 8, 16\ncalibration = {tmp_path / 'c1.txt'}\n")
        (tmp_path / "s2.cfg").write_text(
            "case = skew2d-aspect\nn = 4\naspect_values = 4, 16\nfield = identity\n"
            f"tol = 1e-8\ncalibration = {tmp_path / 'c2.txt'}\n")
        inputs["s1.cfg"] = inputs["s2.cfg"] = ["study", "--config", "{}"]
        texts = {name: (tmp_path / name).read_text() for name in inputs}
        rng = np.random.default_rng(19)
        path, csv_path = tmp_path / "mutated", str(tmp_path / "r.csv")
        codes = set()
        for case in range(300):
            name = list(inputs)[int(rng.integers(len(inputs)))]
            text = self._mutate(rng, texts[name])
            path.write_text(text)
            argv = [str(path) if arg == "{}" else arg for arg in inputs[name]]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run([*argv, "--csv", csv_path])
            err = capsys.readouterr().err
            assert code in (0, 1, 2) and caught == [], (case, name, text)
            if code == 1:
                assert err.count("\n") == 1, (case, name, text, err)
            elif code == 0:
                assert err == "", (case, name, text, err)
            codes.add(code)
        assert codes >= {0, 1}

