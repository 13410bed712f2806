import os

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
def use_cpus(monkeypatch):
    """``use_cpus(n)`` makes this process see ``n`` usable CPUs and sets every
    BLAS thread variable to ``1``, so ``bounds._parallel_cpus()`` is ``n``: with
    n >= 2 a study of two or more values forks and ``condition_bounds`` solves
    the two halves of any mesh in two threads."""
    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                            raising=False)
        for var in bounds._BLAS_THREAD_VARS:
            monkeypatch.setenv(var, "1")

    return use
