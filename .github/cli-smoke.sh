#!/usr/bin/env bash
# CLI smoke run: bash .github/cli-smoke.sh
#
# It works in a new temporary directory, removed on exit, and imports
# meshcond from this checkout's src, so it leaves no file in the checkout.
#
# generate then analyze end to end; its mass matrix takes the
# two-ended Lanczos path, so that path runs on each numpy and scipy.
# On a multi-CPU runner analyze solves the unscaled and the scaled
# eigenpairs in two threads, in 3D and in 1D alike; pinned to one CPU it
# solves them in turn, and the two reports must match byte for byte.
# The 3-row studies run their rows in a pool of forked workers on a
# multi-CPU runner, whatever the size of their meshes; pinned to one CPU
# each computes its rows and halves in turn, and the CSVs must match.
# The skew2d-n and Chebyshev studies' meshes differ in size, so the pool
# gets their rows largest first, out of sweep order.
# The 1D Chebyshev analyze makes all three kinds of LU: the
# calibration's and the mass pole's on SuperLU's defaults, the stiffness
# row's on its symmetric options, so SymmetricMode runs on each scipy.
# Every command runs with RuntimeWarning as an error. The last file's
# one bad token, 1_0, is a number to Python but not to this numpy's
# loadtxt, which defines the mesh format: analyze must exit 1 with one
# line naming line 4.
set -eo pipefail
export PYTHONPATH="$(cd "$(dirname "$0")/.." && pwd)/src"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cd "$tmp"
python -W error::RuntimeWarning -m meshcond.cli generate --case skew3d --n 6 --aspect 25 -o s.msh
python -W error::RuntimeWarning -m meshcond.cli analyze --mesh s.msh --calibration auto --csv r.csv
taskset -c 0 python -W error::RuntimeWarning -m meshcond.cli analyze --mesh s.msh --calibration auto --csv r1.csv
cmp r.csv r1.csv
python -W error::RuntimeWarning -m meshcond.cli generate --case chebyshev --n 512 -o c.msh
python -W error::RuntimeWarning -m meshcond.cli analyze --mesh c.msh --csv c.csv
taskset -c 0 python -W error::RuntimeWarning -m meshcond.cli analyze --mesh c.msh --csv c1.csv
cmp c.csv c1.csv
printf 'case = skew2d-aspect\nn = 71\naspect_values = 4, 16, 64\n' > q.cfg
python -W error::RuntimeWarning -m meshcond.cli study --config q.cfg --csv q.csv
taskset -c 0 python -W error::RuntimeWarning -m meshcond.cli study --config q.cfg --csv q1.csv
cmp q.csv q1.csv
printf 'case = skew2d-n\nn_values = 71, 90, 110\naspect = 16\n' > u.cfg
python -W error::RuntimeWarning -m meshcond.cli study --config u.cfg --csv u.csv
taskset -c 0 python -W error::RuntimeWarning -m meshcond.cli study --config u.cfg --csv u1.csv
cmp u.csv u1.csv
printf 'case = chebyshev\nn_values = 1024, 2048, 4096\n' > h.cfg
python -W error::RuntimeWarning -m meshcond.cli study --config h.cfg --csv h.csv
taskset -c 0 python -W error::RuntimeWarning -m meshcond.cli study --config h.cfg --csv h1.csv
cmp h.csv h1.csv
printf 'meshcond v1 dim=1 nv=3 ne=2\n0 1\n0.5 0\n1_0 1\n0 1\n1 2\n' > bad.msh
code=0
python -W error::RuntimeWarning -m meshcond.cli analyze --mesh bad.msh --csv bad.csv 2> err.txt || code=$?
test "$code" = 1
test "$(wc -l < err.txt)" = 1
grep -Fx "meshcond: error: line 4: bad coordinate in ['1_0']" err.txt
