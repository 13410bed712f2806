import importlib
import inspect
import pkgutil

import pytest

import meshcond

MODULES = sorted(f"meshcond.{info.name}" for info in pkgutil.iter_modules(meshcond.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_exports_exactly_the_modules_all():
    declared = [n for name in MODULES
                for n in getattr(importlib.import_module(name), "__all__", ())]
    public = {n for n, value in vars(meshcond).items()
              if not n.startswith("_") and not inspect.ismodule(value)}
    assert sorted(declared) == sorted(set(declared)), "a name is in two modules' __all__"
    assert public == set(declared)
