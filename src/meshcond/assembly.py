"""Assembly of sparse symmetric stiffness and mass matrices.

Matrices are indexed by interior vertices only (homogeneous Dirichlet rows
and columns are never assembled) and stored as ``scipy.sparse.csr_matrix``
with the full symmetric pattern.  Diagonal scalings are plain 1-D arrays of
positive entries, one per interior vertex.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .diffusion import _ElementGeometry
from .diffusion import element_averages  # unused here; perfbench/tracing.py patches this name
from .mesh import element_volumes, patch_sums

__all__ = [
    "assemble_stiffness",
    "assemble_mass",
    "jacobi_scaling",
    "alt_scaling",
    "apply_symmetric_scaling",
]


def _scatter(mesh, local):
    """Accumulate (ne, d+1, d+1) element matrices into a CSR over interior dofs."""
    imap = mesh.interior_map()
    gidx = imap[mesh.elements]  # (ne, d+1)
    rows = np.broadcast_to(gidx[:, :, None], local.shape)
    cols = np.broadcast_to(gidx[:, None, :], local.shape)
    keep = (rows >= 0) & (cols >= 0)
    n = mesh.n_interior
    # tocsr sums the duplicates and returns canonical CSR
    return sp.coo_matrix(
        (local[keep], (rows[keep], cols[keep])), shape=(n, n)
    ).tocsr()


def assemble_stiffness(mesh, field):
    """Stiffness matrix A_ij = sum_K |K| grad(phi_i) . D_K grad(phi_j).

    Parameters
    ----------
    mesh : SimplicialMesh
    field : DiffusionField
        Must have the same dimension as the mesh.

    Returns
    -------
    scipy.sparse.csr_matrix of order ``mesh.n_interior``, SPD.
    """
    return _stiffness(mesh, _ElementGeometry(mesh, field))


def _stiffness(mesh, geom):
    """Stiffness matrix of ``mesh`` from its element geometry record.

    Raises ValueError if an entry is not finite, which happens when the
    field's magnitude times the squared basis gradients overflows.
    """
    # an overflow is reported once, below, with its cause
    with np.errstate(over="ignore", invalid="ignore"):
        local = np.einsum("eia,eab,ejb->eij", geom.grads, geom.dk, geom.grads)
        local = 0.5 * (local + local.transpose(0, 2, 1)) * geom.vols[:, None, None]
    a = _scatter(mesh, local)
    if not np.isfinite(a.data).all():
        raise ValueError("the stiffness matrix has a non-finite entry: "
                         "the diffusion field overflows on this mesh")
    return a


def assemble_mass(mesh):
    """Mass matrix B_ij = int phi_i phi_j.

    Element entries are |K| (1 + delta_ij) / ((d+1)(d+2)), so the assembled
    diagonal is B_jj = 2 |omega_j| / ((d+1)(d+2)).
    """
    d = mesh.dim
    vols = element_volumes(mesh)
    base = (np.ones((d + 1, d + 1)) + np.eye(d + 1)) / ((d + 1) * (d + 2))
    local = vols[:, None, None] * base
    return _scatter(mesh, local)


def jacobi_scaling(mat):
    """Jacobi scaling s_j = sqrt(M_jj); requires a strictly positive diagonal."""
    diag = np.asarray(mat.diagonal(), dtype=float)
    if not np.all(np.isfinite(diag)) or np.any(diag <= 0.0):
        j = int(np.argmin(diag))
        raise ValueError(f"diagonal entry {j} is not positive ({diag[j]})")
    return np.sqrt(diag)


def alt_scaling(mesh, field):
    """Patchwise geometric scaling s_j^2 = sum_{K in omega_j} |K| ||F^-T D_K F^-1||_2.

    Coincides with the Jacobi scaling of the stiffness matrix in 1D.  In 2D
    and 3D it need not dominate that scaling or bound it: on graded meshes
    in anisotropic fields, s_j^2 fell below A_jj, and A_jj rose to 2.36
    times reference_gradient_bound(d) s_j^2.
    """
    geom = _ElementGeometry(mesh, field)
    return np.sqrt(patch_sums(mesh, geom.vols * geom.mk_norm))


def apply_symmetric_scaling(mat, scaling):
    """Symmetrically scaled matrix with entries M_ij / (s_i s_j)."""
    s = np.asarray(scaling, dtype=float)
    if s.shape != (mat.shape[0],):
        raise ValueError(f"scaling has shape {s.shape}, matrix order is {mat.shape[0]}")
    if not np.all(np.isfinite(s)) or np.any(s <= 0.0):
        raise ValueError("scaling entries must be positive and finite")
    dinv = sp.diags(1.0 / s)
    return (dinv @ mat @ dinv).tocsr()
