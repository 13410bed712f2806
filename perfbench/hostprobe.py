"""A fixed reference kernel that measures how fast the shared host runs now.

The benchmark runs on a few cores of a shared host.  Other tenants' work
slows a run by 20-70% for minutes at a time, and the slowdown shows in the
process's own CPU time, not as time spent waiting, so no clock of the
process can leave it out.  The probe times the same fixed work after every
iteration; the run scales its times by
``REFERENCE_S`` over the probe's mean, which takes out the host's speed and
leaves meshcond's.

The probe uses numpy and scipy only, never meshcond, so no change to
meshcond moves it.  Its work is the kind meshcond's layers do, so that a
busy host slows both alike: a Lanczos ``eigsh`` (the λ_max solves), a
shift-invert ``eigsh`` (the λ_min solves), a sparse LU whose fill outgrows the caches, with solves (the shift-invert LU
of the 3D meshes), dense rank-2 updates (the Householder reduction of the
oracle) and an interpreted scalar loop (the QL sweep and the mesh
generator).  Other tenants slow cache-resident and memory-bound work by
different amounts, so the probe needs both kinds; the large LU is the
memory-bound part.
"""

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# The probe's time on a 2-vCPU Xeon VM (Python 3.11, numpy 2, scipy 1.1x,
# one BLAS thread) when the host was quiet.  Only the scale of the adjusted
# times depends on it: near this speed they read as measured.
REFERENCE_S = 0.90


def _laplacian(m, dim):
    t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
    eye = sp.identity(m)
    if dim == 2:
        return (sp.kron(eye, t) + sp.kron(t, eye)).tocsc()
    return (sp.kron(sp.kron(eye, eye), t) + sp.kron(sp.kron(eye, t), eye)
            + sp.kron(sp.kron(t, eye), eye)).tocsc()


class HostProbe:
    """Call to run the fixed work once; returns its wall time in seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.dense = rng.random((400, 400))
        self.lanczos_matrix = _laplacian(100, 2).tocsr()
        self.lanczos_start = rng.random(self.lanczos_matrix.shape[0])
        self.shift_invert_matrix = _laplacian(16, 3)
        self.shift_invert_start = rng.random(self.shift_invert_matrix.shape[0])
        self.lu_matrix = _laplacian(20, 3)
        self.rhs = rng.random(self.lu_matrix.shape[0])

    def __call__(self):
        t0 = time.perf_counter()
        self._scalar_loop()
        self._rank2_updates()
        spla.eigsh(self.lanczos_matrix, k=1, which="LA", v0=self.lanczos_start,
                   tol=1e-10, ncv=20)
        spla.eigsh(self.shift_invert_matrix, k=1, sigma=0, which="LM",
                   v0=self.shift_invert_start, tol=1e-8)
        self._sparse_lu()
        return time.perf_counter() - t0

    @staticmethod
    def _scalar_loop():
        x, acc = 0.5, 0.0
        for i in range(500_000):
            x = 3.9 * x * (1.0 - x)
            acc += x if i % 3 else -x
        return acc

    def _sparse_lu(self):
        lu = spla.splu(self.lu_matrix)
        x = self.rhs
        for _ in range(20):
            x = lu.solve(x)
            x /= np.linalg.norm(x)
        return x

    def _rank2_updates(self):
        b = self.dense.copy()
        for k in range(120):
            v = b[k:, k]
            q = b[k:, k:] @ v
            b[k:, k:] -= 1e-3 * np.outer(v, q)
            b[k:, k:] -= 1e-3 * np.outer(q, v)
        return b
