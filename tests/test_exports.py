import importlib
import pkgutil
import types

import pytest

import padd

SUBMODULES = [f"padd.{m.name}" for m in pkgutil.iter_modules(padd.__path__)]


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert len(module.__all__) == len(set(module.__all__))
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_names_are_exported_by_their_modules():
    # `padd` has no `__all__` of its own: it re-exports names from its
    # modules, each of which must list the name in its own `__all__`
    public = {n: getattr(padd, n) for n in dir(padd) if not n.startswith("_")}
    names = {n: obj for n, obj in public.items() if not isinstance(obj, types.ModuleType)}
    assert "solve_auto" in names and "best_concave_price" in names
    stray = [n for n, obj in names.items() if n not in importlib.import_module(obj.__module__).__all__]
    assert stray == []
