"""SPD diffusion tensor fields, element averages and spectral bounds.

Fields are immutable closed-form objects: a constant SPD matrix (the
identity field is the constant field I), or the rotated anisotropic tensor
R(psi) diag(l1, l2) R(psi)^T with psi = pi sin(x) cos(y).
Element averages use one-point barycenter quadrature, which is exact for
the constant fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mesh import element_edge_matrices, reference_simplex

__all__ = [
    "FieldError",
    "DiffusionField",
    "identity_field",
    "constant_field",
    "rotated_anisotropic_field",
    "parse_field_spec",
    "element_averages",
    "field_spectral_bounds",
    "mapped_metric_tensors",
    "spd_norm2",
]


class FieldError(ValueError):
    """Raised when a diffusion tensor is not symmetric positive definite."""


@dataclass(frozen=True, eq=False)
class DiffusionField:
    """Closed-form SPD tensor field D(x) on the unit domain.

    ``kind`` is ``constant`` or ``rotated``; the extra payload is ``matrix``
    for a constant field and ``(l1, l2)`` eigenvalues for the rotated
    anisotropic field.  Fields compare and hash by identity; compare
    ``spec`` to ask whether two fields are the same.
    """

    dim: int
    kind: str
    matrix: np.ndarray | None = None
    eigenvalues: tuple[float, float] | None = None

    @property
    def spec(self):
        """Canonical CLI string for this field; ``identity`` for D = I."""
        if self.kind == "constant":
            if np.array_equal(self.matrix, np.eye(self.dim)):
                return "identity"
            return "const:" + ",".join(f"{v:.17g}" for v in self.matrix.ravel())
        l1, l2 = self.eigenvalues
        return f"rotated:{l1:.17g},{l2:.17g}"


def identity_field(dim):
    return constant_field(np.eye(dim))


def constant_field(matrix):
    """Constant field D(x) = M for an SPD matrix M."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (1, 2, 3):
        raise FieldError(f"constant field matrix must be d x d, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise FieldError("constant field matrix has non-finite entries")
    scale = max(abs(m).max(), 1.0)
    if abs(m - m.T).max() > 1e-14 * scale:
        raise FieldError("constant field matrix is not symmetric")
    m = 0.5 * (m + m.T)
    if np.linalg.eigvalsh(m).min() <= 0.0:
        raise FieldError("constant field matrix is not positive definite")
    m.flags.writeable = False
    return DiffusionField(dim=m.shape[0], kind="constant", matrix=m)


def rotated_anisotropic_field(l1=1000.0, l2=1.0):
    """2D field R(psi) diag(l1, l2) R(psi)^T with psi = pi sin(x) cos(y)."""
    if not (0.0 < l1 < math.inf and 0.0 < l2 < math.inf):
        raise FieldError(
            f"rotated field eigenvalues must be positive and finite, got {l1}, {l2}"
        )
    return DiffusionField(dim=2, kind="rotated", eigenvalues=(float(l1), float(l2)))


def parse_field_spec(spec, dim):
    """Build a field from a CLI string: identity, const:<entries>, rotated:<l1>,<l2>.

    Constant entries are the d*d values of the matrix in row-major order.
    """
    spec = spec.strip()
    if spec == "identity":
        return identity_field(dim)
    if spec.startswith("const:"):
        values = _spec_numbers(spec, "const:")
        d = math.isqrt(len(values))
        if d * d != len(values):
            raise FieldError(f"const field needs d*d entries, got {len(values)}")
        field = constant_field(np.array(values).reshape(d, d))
        if field.dim != dim:
            raise FieldError(f"const field is {field.dim}D but the mesh is {dim}D")
        return field
    if spec == "rotated":
        field = rotated_anisotropic_field()
    elif spec.startswith("rotated:"):
        values = _spec_numbers(spec, "rotated:")
        if len(values) != 2:
            raise FieldError(f"rotated field needs two eigenvalues, got {spec!r}")
        field = rotated_anisotropic_field(*values)
    else:
        raise FieldError(f"unknown field spec {spec!r}")
    if dim != 2:
        raise FieldError("rotated field is only defined in 2D")
    return field


def _spec_numbers(spec, prefix):
    """The comma-separated numbers after ``prefix``; FieldError names the spec."""
    try:
        return [float(v) for v in spec[len(prefix):].split(",")]
    except ValueError:
        raise FieldError(f"bad number in field spec {spec!r}") from None


def _rotated_tensors(field, points):
    """Rotated field at an array of points, shape (m, 2, 2)."""
    l1, l2 = field.eigenvalues
    psi = np.pi * np.sin(points[:, 0]) * np.cos(points[:, 1])
    c, s = np.cos(psi), np.sin(psi)
    out = np.empty((len(points), 2, 2))
    out[:, 0, 0] = l1 * c * c + l2 * s * s
    out[:, 1, 1] = l1 * s * s + l2 * c * c
    out[:, 0, 1] = out[:, 1, 0] = (l1 - l2) * c * s
    return out


def _tensors_at(field, points):
    if field.kind == "constant":
        return np.broadcast_to(field.matrix, (len(points), field.dim, field.dim))
    return _rotated_tensors(field, points)


def element_averages(field, mesh):
    """Barycenter value of D on every element, shape (ne, d, d)."""
    if field.dim != mesh.dim:
        raise FieldError(f"field dim {field.dim} does not match mesh dim {mesh.dim}")
    centers = mesh.vertices[mesh.elements].mean(axis=1)
    return _tensors_at(field, centers)


def field_spectral_bounds(field):
    """Exact field-wide eigenvalue bounds (d_min, d_max) for closed-form kinds."""
    if field.kind == "constant":
        eigs = np.linalg.eigvalsh(field.matrix)
        return float(eigs[0]), float(eigs[-1])
    l1, l2 = field.eigenvalues
    return min(l1, l2), max(l1, l2)


def spd_norm2(mats):
    """Spectral norms of a stack of symmetric d x d matrices, d <= 3.

    Closed form for d <= 2; the trigonometric characteristic-root solve
    for d = 3.
    """
    mats = np.asarray(mats, dtype=float)
    single = mats.ndim == 2
    if single:
        mats = mats[None]
    d = mats.shape[-1]
    if d == 1:
        out = np.abs(mats[:, 0, 0])
    elif d == 2:
        a, b, c = mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 1]
        half = 0.5 * np.sqrt((a - c) ** 2 + 4.0 * b * b)
        out = 0.5 * (a + c) + half
    else:
        a11, a22, a33 = mats[:, 0, 0], mats[:, 1, 1], mats[:, 2, 2]
        a12, a13, a23 = mats[:, 0, 1], mats[:, 0, 2], mats[:, 1, 2]
        p1 = a12 ** 2 + a13 ** 2 + a23 ** 2
        q = (a11 + a22 + a33) / 3.0
        p2 = (a11 - q) ** 2 + (a22 - q) ** 2 + (a33 - q) ** 2 + 2.0 * p1
        p = np.sqrt(np.maximum(p2 / 6.0, 0.0))
        out = np.empty(len(mats))
        diag_like = p == 0.0
        if np.any(diag_like):
            out[diag_like] = np.max(
                np.abs(mats[diag_like][:, (0, 1, 2), (0, 1, 2)]), axis=1
            )
        rest = ~diag_like
        if np.any(rest):
            b = (mats[rest] - q[rest, None, None] * np.eye(3)) / p[rest, None, None]
            r = np.clip(np.linalg.det(b) / 2.0, -1.0, 1.0)
            phi = np.arccos(r) / 3.0
            out[rest] = q[rest] + 2.0 * p[rest] * np.cos(phi)
    return out[0] if single else out


def mapped_metric_tensors(mesh, field):
    """Per-element tensors (F'_K)^{-T} D_K (F'_K)^{-1}, shape (ne, d, d).

    F'_K is the Jacobian of the affine map from the regular unit-volume
    reference simplex onto the element.
    """
    return _ElementGeometry(mesh, field).mk


class _ElementGeometry:
    """Per-element data of one (mesh, field) pair, each array computed once.

    ``vols`` holds |K|, ``grads`` the (ne, d+1, d) basis gradients and ``dk``
    the averages D_K.  ``mk`` holds M_K = (F'_K)^{-T} D_K (F'_K)^{-1} and
    ``mk_norm`` their spectral norms, computed on first use, after the
    stiffness assembly.  The stiffness diagonal is bounded by the transposed
    (F'_K)^{-1} D_K (F'_K)^{-T} instead; they differ for an anisotropic
    field (ROADMAP.md, item 3).
    """

    def __init__(self, mesh, field):
        d = self.dim = mesh.dim
        self.n_elements = mesh.n_elements
        edges = element_edge_matrices(mesh)  # (ne, d, d), rows are edges
        # F'^-1 = ref_cols @ inv(E^T) with the reference edges as columns;
        # inv(E^T) differs from inv(E)^T in the last bits, and the recorded
        # references were computed with both
        ref = reference_simplex(d)
        self._finv = np.einsum("ab,ebc->eac", (ref[1:] - ref[0]).T,
                               np.linalg.inv(edges.transpose(0, 2, 1)))
        self.vols = np.linalg.det(edges) / math.factorial(d)
        self.grads = np.empty((mesh.n_elements, d + 1, d))
        self.grads[:, 1:, :] = np.linalg.inv(edges).transpose(0, 2, 1)
        self.grads[:, 0, :] = -self.grads[:, 1:, :].sum(axis=1)
        self.dk = element_averages(field, mesh)

    @cached_property
    def mk(self):
        m = np.einsum("eba,ebc,ecd->ead", self._finv, self.dk, self._finv)
        return 0.5 * (m + m.transpose(0, 2, 1))

    @cached_property
    def mk_norm(self):
        return spd_norm2(self.mk)
