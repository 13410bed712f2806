import os
import threading

import pytest

from meshcond import bounds, diffusion


@pytest.fixture(scope="session")
def cal1():
    return bounds.calibrate_constant(1, diffusion.identity_field(1), 1024)


@pytest.fixture(scope="session")
def cal2():
    return bounds.calibrate_constant(2, diffusion.identity_field(2), 32)


@pytest.fixture(scope="session")
def cal3():
    return bounds.calibrate_constant(3, diffusion.identity_field(3), 8)


@pytest.fixture
def splu_calls(monkeypatch):
    """Shapes of the matrices ``spectral`` factors; ARPACK's own ``splu`` raises.

    Every shift-invert solve is meant to hand ARPACK a factorization made
    in ``spectral``, so ARPACK factoring a matrix itself fails the test.
    """
    import importlib

    from meshcond import spectral

    def refused(*args, **kwargs):
        raise AssertionError("ARPACK factored a matrix itself")

    arpack = importlib.import_module("scipy.sparse.linalg._eigen.arpack.arpack")
    monkeypatch.setattr(arpack, "splu", refused)
    calls = []

    def counted(mat, *args, _real=spectral.spla.splu, **kwargs):
        calls.append(mat.shape)
        return _real(mat, *args, **kwargs)

    monkeypatch.setattr(spectral.spla, "splu", counted)
    return calls


@pytest.fixture
def fake_cpus(monkeypatch):
    """``fake_cpus(n)`` makes this process see ``n`` usable CPUs, and pinning
    a thread to them does nothing."""
    def fake(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                            raising=False)
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None,
                            raising=False)

    return fake


@pytest.fixture
def use_cpus(monkeypatch, fake_cpus):
    """``use_cpus(n)`` is ``fake_cpus(n)`` in a process whose threads are
    counted as its Python threads alone.

    That is as if its BLAS ran none of its own (``OPENBLAS_NUM_THREADS=1``)
    and no joined thread were still listed in /proc, so with n >= 2
    ``condition_bounds`` solves the two halves of a 2D or 3D mesh in two
    threads.
    """
    monkeypatch.setattr(bounds, "_os_threads", threading.active_count)
    return fake_cpus
