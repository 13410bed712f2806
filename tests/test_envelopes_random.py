"""Seeded random checks of the paper's two-sided envelopes and other theorems.

The envelopes are theorems for arbitrary conforming simplicial meshes:
lambda_max(A) in [max A_jj, (d+1) max A_jj], lambda_max(S^-1 A S^-1) in
[1, d+1], kappa(B) in [r, (d+2) r] and kappa(S^-1 B S^-1) <= d+2, the last
from Wathen's element-wise bound 1/2 <= lambda(S^-1 B S^-1) <= (d+2)/2
(Wathen 1987), whose lower half is the proven bound that picks the mass
solve's path: plain Lanczos on B when the Gershgorin bound over it is
small, the shift-invert pole just below it otherwise.  So
are the geometric bounds lambda_max(A) <= patchwise <= quality form, van
der Sluis's kappa(S^-1 A S^-1) <= m kappa(D A D) for every positive
diagonal D (Numer. Math. 14, 1969; m is the most nonzeros in a row of A),
and in 1D lambda_min(A) >= d_min / sum_j x_j (1 - x_j) >= 4 d_min / (N - 1),
from u(x)^2 <= x (1 - x) int u'^2 for u(0) = u(1) = 0, where alt_scaling
also equals the Jacobi scaling of A.  Most meshes here are uniform
grids with moved vertices over the same elements; the others are Delaunay
triangulations and tetrahedralizations of random points, some with a
corner cut away, so valence, topology and the domain vary too.  Each
mesh's Dirichlet boundary follows from its elements as for any other
mesh.  Each matrix has at most about 500 unknowns.
"""

import itertools

import numpy as np
import pytest
from scipy.spatial import Delaunay

from meshcond.assembly import (
    alt_scaling,
    apply_symmetric_scaling,
    assemble_mass,
    assemble_stiffness,
    jacobi_scaling,
)
from meshcond.bounds import (
    lambda_max_bounds,
    lambda_max_geometric_bound,
    mass_condition_bounds,
    quality_measures,
)
from meshcond.diffusion import (
    constant_field,
    field_spectral_bounds,
    identity_field,
    rotated_anisotropic_field,
)
from meshcond.experiments import outside_envelope
from meshcond.mesh import SimplicialMesh, generate_chebyshev_mesh, generate_uniform_mesh
import meshcond.spectral as spectral
from meshcond.spectral import extreme_eigenvalues

SEEDS = range(6)
# subdivisions per axis drawn from [lo, hi]; n**d interior unknowns stay below 500
SUBDIVISIONS = {1: (16, 400), 2: (6, 20), 3: (3, 8)}


def moved(mesh, vertices):
    """``mesh`` with its vertices moved; no element may turn over."""
    out = SimplicialMesh(dim=mesh.dim, vertices=vertices, elements=mesh.elements)
    assert np.array_equal(out.elements, mesh.elements), "an element turned over"
    return out


def jittered_mesh(rng, dim):
    """Uniform mesh whose interior vertices move by up to 0.15 h per axis."""
    n = int(rng.integers(*SUBDIVISIONS[dim], endpoint=True))
    mesh = generate_uniform_mesh(dim, n)
    verts = np.array(mesh.vertices)
    inner = ~mesh.boundary
    verts[inner] += rng.uniform(-0.15 / n, 0.15 / n, (np.count_nonzero(inner), dim))
    return moved(mesh, verts)


def graded_mesh(rng, dim):
    """Uniform mesh whose grid layers move monotonically, each axis on its own.

    Layer spacings are log-normal with sigma 1.5, so neighboring layers
    differ in thickness by up to a few hundred and most elements are
    anisotropic.
    """
    n = int(rng.integers(*SUBDIVISIONS[dim], endpoint=True))
    mesh = generate_uniform_mesh(dim, n)
    grid = np.rint(mesh.vertices * n).astype(np.int64)
    verts = np.empty_like(mesh.vertices)
    for axis in range(dim):
        layers = np.concatenate(([0.0], np.cumsum(rng.lognormal(0.0, 1.5, n))))
        verts[:, axis] = (layers / layers[-1])[grid[:, axis]]
    return moved(mesh, verts)


# random points of a Delaunay mesh, plus the unit box's corners
DELAUNAY_POINTS = {2: 340, 3: 220}


def delaunay_mesh(rng, dim, cut):
    """Delaunay mesh of random points in the unit box and its corners.

    The flat elements that Delaunay leaves on the hull, |det| <= 1e-9, are
    dropped.  ``cut`` also drops the elements whose centroid lies in the
    corner (0.5, 1]^d, which leaves a non-convex domain.  Vertices that no
    element uses are removed.
    """
    corners = np.array(list(itertools.product((0.0, 1.0), repeat=dim)))
    points = np.vstack([corners, rng.uniform(0.0, 1.0, (DELAUNAY_POINTS[dim], dim))])
    elements = Delaunay(points).simplices
    edges = points[elements[:, 1:]] - points[elements[:, :1]]
    elements = elements[np.abs(np.linalg.det(edges)) > 1e-9]
    if cut:
        elements = elements[~(points[elements].mean(axis=1) > 0.5).all(axis=1)]
    used, elements = np.unique(elements, return_inverse=True)
    return SimplicialMesh(dim=dim, vertices=points[used],
                          elements=elements.reshape(-1, dim + 1))


def random_constant_field(rng, dim):
    """SPD constant field with eigenvalues log-uniform over [1e-2, 1e2]."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    mat = (q * 10.0 ** rng.uniform(-2.0, 2.0, dim)) @ q.T
    return constant_field(0.5 * (mat + mat.T))


def fields(rng, dim):
    out = [identity_field(dim), random_constant_field(rng, dim)]
    if dim == 2:
        out.append(rotated_anisotropic_field(*10.0 ** rng.uniform(-1.0, 3.0, 2)))
    return out


def envelope_failures(mesh, rng):
    """Every envelope miss of the mesh's mass matrix and of its stiffness
    matrices over the random fields."""
    d = mesh.dim
    out = []
    mass = assemble_mass(mesh)
    mass_env = mass_condition_bounds(mesh)
    out += outside_envelope("mass kappa", extreme_eigenvalues(mass).kappa,
                            mass_env.two_sided)
    scaled_mass = apply_symmetric_scaling(mass, jacobi_scaling(mass))
    scaled_mass_eigs = extreme_eigenvalues(scaled_mass)
    out += outside_envelope("scaled mass kappa", scaled_mass_eigs.kappa,
                            (1.0, mass_env.scaled_upper))
    wathen = (0.5, 0.5 * (d + 2))
    out += outside_envelope("scaled mass lambda_min", scaled_mass_eigs.lambda_min, wathen)
    out += outside_envelope("scaled mass lambda_max", scaled_mass_eigs.lambda_max, wathen)
    for field in fields(rng, d):
        a = assemble_stiffness(mesh, field)
        env = lambda_max_bounds(a.diagonal(), d)
        scaled = apply_symmetric_scaling(a, jacobi_scaling(a))
        out += outside_envelope(f"{field.spec} lambda_max",
                                extreme_eigenvalues(a).lambda_max, env.unscaled)
        out += outside_envelope(f"{field.spec} scaled lambda_max",
                                extreme_eigenvalues(scaled).lambda_max, env.scaled)
        q_eq = quality_measures(mesh, field).q_eq
        assert np.mean(1.0 / q_eq) == pytest.approx(1.0, abs=1e-12), field.spec
    return out


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("make", [jittered_mesh, graded_mesh],
                         ids=["jittered", "graded"])
def test_envelopes_hold(make, dim, seed):
    rng = np.random.default_rng([seed, dim, make is graded_mesh])
    mesh = make(rng, dim)
    assert envelope_failures(mesh, rng) == []


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_mass_pole_at_wathen_bound(dim, seed):
    """The pole at min_j B_jj / 2 gives lambda_min(B); a bound above it raises."""
    rng = np.random.default_rng([seed, dim, 2])
    mesh = graded_mesh(rng, dim)
    mass = assemble_mass(mesh)
    lmin = extreme_eigenvalues(mass).lambda_min
    shifted = extreme_eigenvalues(mass, lower_bound=0.5 * mass.diagonal().min())
    assert shifted.lambda_min == pytest.approx(lmin, rel=1e-10)
    with pytest.raises(ValueError, match="below its proven lower bound"):
        extreme_eigenvalues(mass, lower_bound=lmin * (1.0 + 1e-4))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("make", [jittered_mesh, graded_mesh],
                         ids=["jittered", "graded"])
def test_mass_lambda_min_same_on_both_paths(monkeypatch, make, dim, seed):
    """Plain Lanczos on B and the pole at min_j B_jj / 2 give one lambda_min(B).

    The Gershgorin bound over Wathen's decides the path; it is moved here so
    that each mesh takes both.  1D matrices are tridiagonal and always take
    the pole.
    """
    rng = np.random.default_rng([seed, dim, make is graded_mesh, 6])
    mass = assemble_mass(make(rng, dim))
    bound = 0.5 * mass.diagonal().min()
    lmin = {}
    for path, kappa_max in (("lanczos", np.inf), ("pole", 0.0)):
        monkeypatch.setattr(spectral, "_LANCZOS_KAPPA_MAX", kappa_max)
        lmin[path] = extreme_eigenvalues(mass, lower_bound=bound).lambda_min
    assert lmin["lanczos"] == pytest.approx(lmin["pole"], rel=1e-10)


def theorem_failures(mesh, rng):
    """Every miss of the geometric lambda_max bounds and of van der Sluis's
    theorem over the random fields."""
    out = []
    for field in fields(rng, mesh.dim):
        a = assemble_stiffness(mesh, field)
        geo = lambda_max_geometric_bound(mesh, field)
        out += outside_envelope(f"{field.spec} lambda_max under patchwise",
                                extreme_eigenvalues(a).lambda_max, (0.0, geo.patchwise))
        out += outside_envelope(f"{field.spec} patchwise under quality form",
                                geo.patchwise, (0.0, geo.quality_form))
        m = int((a != 0).sum(axis=1).max())
        jacobi = extreme_eigenvalues(apply_symmetric_scaling(a, jacobi_scaling(a))).kappa
        diagonals = {"alt_scaling": alt_scaling(mesh, field)}
        for k in range(2):
            diagonals[f"log-normal {k}"] = rng.lognormal(0.0, 1.0, a.shape[0])
        for name, s in diagonals.items():
            other = extreme_eigenvalues(apply_symmetric_scaling(a, s)).kappa
            out += outside_envelope(f"{field.spec} Jacobi kappa against {name}",
                                    jacobi, (0.0, m * other))
    return out


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("make", [jittered_mesh, graded_mesh],
                         ids=["jittered", "graded"])
def test_geometric_bound_and_van_der_sluis_hold(make, dim, seed):
    rng = np.random.default_rng([seed, dim, make is graded_mesh, 3])
    mesh = make(rng, dim)
    assert theorem_failures(mesh, rng) == []


# lambda_max(A) <= patchwise misses where the patch sums of ||M_K||, M_K =
# F'^-T D_K F'^-1, fall below max A_jj, which bounds lambda_max from below;
# A_jj is bounded through the transposed F'^-1 D_K F'^-T (ROADMAP item 6)
TRANSPOSE_MK = pytest.mark.xfail(strict=True, reason=(
    "lambda_max 1.185e4 > patchwise 8.87e3 < max A_jj 1.184e4 for the const: field; "
    "the sum over F'^-1 D_K F'^-T is 7.47e4 and holds (ROADMAP item 6, transpose M_K)"))


def delaunay_cases(marks):
    """Seeded Delaunay cases (seed, dim, cut), each with its ``marks``."""
    return [pytest.param(seed, dim, cut, marks=marks.get((seed, dim, cut), ()),
                         id=f"{dim}d-{'cut' if cut else 'convex'}-{seed}")
            for dim in (2, 3) for cut in (False, True) for seed in SEEDS]


@pytest.mark.parametrize("seed, dim, cut", delaunay_cases({}))
def test_delaunay_envelopes_hold(seed, dim, cut):
    mesh = delaunay_mesh(np.random.default_rng([seed, dim, cut, 7]), dim, cut)
    assert envelope_failures(mesh, np.random.default_rng([seed, dim, cut, 8])) == []


@pytest.mark.parametrize("seed, dim, cut", delaunay_cases({(3, 3, True): TRANSPOSE_MK}))
def test_delaunay_geometric_bound_and_van_der_sluis_hold(seed, dim, cut):
    mesh = delaunay_mesh(np.random.default_rng([seed, dim, cut, 7]), dim, cut)
    assert theorem_failures(mesh, np.random.default_rng([seed, dim, cut, 9])) == []


def chebyshev_mesh(rng, dim):
    return generate_chebyshev_mesh(int(rng.integers(*SUBDIVISIONS[1], endpoint=True)))


def uniform_mesh(rng, dim):
    return generate_uniform_mesh(1, int(rng.integers(*SUBDIVISIONS[1], endpoint=True)))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("make", [chebyshev_mesh, uniform_mesh, jittered_mesh, graded_mesh],
                         ids=["chebyshev", "uniform", "jittered", "graded"])
def test_1d_lambda_min_floor(make, seed):
    """lambda_min(A) >= d_min / sum_j x_j (1 - x_j) >= 4 d_min / (N - 1) in 1D."""
    rng = np.random.default_rng([seed, 1, 4])
    mesh = make(rng, 1)
    x = mesh.vertices[~mesh.boundary, 0]
    for field in (identity_field(1), constant_field([[10.0 ** rng.uniform(-2.0, 2.0)]])):
        d_min, _ = field_spectral_bounds(field)
        sharp = d_min / float(np.sum(x * (1.0 - x)))
        assert sharp >= 4.0 * d_min / (mesh.n_elements - 1)
        lmin = extreme_eigenvalues(assemble_stiffness(mesh, field)).lambda_min
        assert outside_envelope(f"{field.spec} lambda_min", lmin, (sharp, np.inf)) == []


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("make", [jittered_mesh, graded_mesh],
                         ids=["jittered", "graded"])
def test_1d_alt_scaling_is_jacobi(make, seed):
    rng = np.random.default_rng([seed, 1, make is graded_mesh, 5])
    mesh = make(rng, 1)
    for field in fields(rng, 1):
        jacobi = jacobi_scaling(assemble_stiffness(mesh, field))
        assert alt_scaling(mesh, field) == pytest.approx(jacobi, rel=1e-12), field.spec


def test_graded_1d_lambda_min_at_tight_tolerance():
    """A lambda_min pair that shift-invert Lanczos leaves above rel_tol is
    sharpened, not refused: the order-342 graded mesh with kappa about 1.9e7
    had a residual of 1.9e-10 at rel_tol 1e-10."""
    a = assemble_stiffness(graded_mesh(np.random.default_rng(0), 1), identity_field(1))
    assert a.shape == (342, 342)
    eigs = np.linalg.eigvalsh(a.toarray())
    result = extreme_eigenvalues(a, 1e-10)
    assert result.rel_tol_achieved <= 1e-10
    assert result.lambda_min == pytest.approx(eigs[0], rel=1e-9)
    assert result.lambda_max == pytest.approx(eigs[-1], rel=1e-10)
