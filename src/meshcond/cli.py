"""Command line interface: generate meshes, analyze them, run studies.

Exit codes: 0 on success, 1 on usage, input or I/O errors, when memory
runs out and when an eigensolver does not converge, 2 when an exact value
falls outside one of the two-sided envelopes.
"""

from __future__ import annotations

import argparse
import sys

from .assembly import assemble_mass
from .bounds import calibrate_constant, mass_condition_bounds
from .diffusion import parse_field_spec
from .experiments import (
    analyze_mesh,
    outside_envelope,
    parse_study_config,
    resolve_calibration,
    run_study,
    save_calibration,
    write_study_csv,
)
from .mesh import (
    generate_chebyshev_mesh,
    generate_skew_mesh_2d,
    generate_skew_mesh_3d,
    generate_uniform_mesh,
    read_mesh,
    write_mesh,
)
from .spectral import ConvergenceError, check_tolerance, extreme_eigenvalues

GENERATE_CASES = ("uniform1d", "uniform2d", "uniform3d", "chebyshev", "skew2d", "skew3d")


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1; argparse's default of 2 is reserved for
    # envelope violations
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser():
    parser = _Parser(prog="meshcond", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a mesh file")
    gen.add_argument("--case", required=True, choices=GENERATE_CASES)
    gen.add_argument("--n", required=True, type=int,
                     help="subdivisions per axis (element count for chebyshev)")
    gen.add_argument("--aspect", type=float,
                     help="target aspect ratio for the skew cases (default 1)")
    gen.add_argument("-o", "--output", required=True)

    ana = sub.add_parser("analyze", help="conditioning report for one mesh")
    ana.add_argument("--mesh", required=True)
    ana.add_argument("--field", default="identity")
    ana.add_argument("--calibration", default="auto",
                     help="calibration file, or 'auto' to fit on a uniform mesh")
    ana.add_argument("--tol", type=float, default=1e-8)
    ana.add_argument("--csv", required=True)

    stu = sub.add_parser("study", help="run a sweep study from a config file")
    stu.add_argument("--config", required=True)
    stu.add_argument("--csv", required=True)

    cal = sub.add_parser("calibrate", help="fit the bound constant for a dimension")
    cal.add_argument("--dim", required=True, type=int, choices=(1, 2, 3))
    cal.add_argument("--field", default="identity")
    cal.add_argument("--n-ref", required=True, type=int)
    cal.add_argument("-o", "--output", required=True)
    return parser


def _exit_code(violations):
    """2 after printing each envelope violation, 0 if there is none."""
    for msg in violations:
        print(f"envelope violation: {msg}", file=sys.stderr)
    return 2 if violations else 0


def _cmd_generate(args):
    if args.aspect is not None and not args.case.startswith("skew"):
        raise ValueError(f"--aspect applies only to the skew cases, not {args.case}")
    aspect = 1.0 if args.aspect is None else args.aspect
    if args.case == "chebyshev":
        mesh = generate_chebyshev_mesh(args.n)
    elif args.case == "skew2d":
        mesh = generate_skew_mesh_2d(args.n, aspect)
    elif args.case == "skew3d":
        mesh = generate_skew_mesh_3d(args.n, aspect)
    else:
        mesh = generate_uniform_mesh(int(args.case[-2]), args.n)
    write_mesh(mesh, args.output)
    print(f"wrote {args.case} mesh ({mesh.n_vertices} vertices, "
          f"{mesh.n_elements} elements) to {args.output}")
    return 0


def _cmd_analyze(args):
    check_tolerance(args.tol, "--tol")
    mesh = read_mesh(args.mesh)
    field = parse_field_spec(args.field, mesh.dim)
    cal = resolve_calibration(args.calibration, mesh.dim, field)
    row, violations = analyze_mesh(mesh, field, cal, tol=args.tol,
                                   n_label=mesh.n_elements)
    mass = assemble_mass(mesh)
    # B - diag(B)/2 is a sum of positive semidefinite element matrices, so
    # lambda_min(B) >= min_j B_jj / 2 (Wathen 1987)
    mass_exact = extreme_eigenvalues(mass, args.tol,
                                     lower_bound=0.5 * mass.diagonal().min())
    violations += outside_envelope("mass kappa", mass_exact.kappa,
                                   mass_condition_bounds(mesh).two_sided)
    # written only once every solve has succeeded, so a failure leaves no report
    write_study_csv([row], args.csv)
    print(f"wrote report to {args.csv} "
          f"(kappa {row.kappa:.6e}, scaled {row.kappa_scaled:.6e}, "
          f"mass kappa {mass_exact.kappa:.6e})")
    return _exit_code(violations)


def _cmd_study(args):
    cfg = parse_study_config(args.config)
    rows, violations = run_study(cfg)
    write_study_csv(rows, args.csv)
    print(f"wrote {len(rows)} rows to {args.csv}")
    return _exit_code(violations)


def _cmd_calibrate(args):
    field = parse_field_spec(args.field, args.dim)
    cal = calibrate_constant(args.dim, field, args.n_ref)
    save_calibration(cal, args.output)
    print(f"calibrated c = {cal.c:.12g} for {cal.field} on {cal.provenance}; "
          f"wrote {args.output}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "analyze": _cmd_analyze,
    "study": _cmd_study,
    "calibrate": _cmd_calibrate,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError, ConvergenceError, MemoryError) as exc:
        print(f"meshcond: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
