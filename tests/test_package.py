"""The package's public surface and the bounds of its memos."""

import importlib
import pkgutil

import eulerian_lab
from eulerian_lab import roots


def test_public_names_resolve():
    # a name left in __all__ after its definition goes breaks star-imports
    namespace = {}
    exec("from eulerian_lab import *", namespace)
    assert set(eulerian_lab.__all__) <= namespace.keys()
    for module in (eulerian_lab, roots):
        assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_power_caches_are_bounded():
    # every memo in the package, private ones included, has a finite size
    memos = {}
    for info in pkgutil.iter_modules(eulerian_lab.__path__, "eulerian_lab."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if callable(getattr(value, "cache_info", None)):
                memos[f"{info.name}.{name}"] = value.cache_info().maxsize
    assert "eulerian_lab.simplicial._one_minus_x_power" in memos
    assert "eulerian_lab.poly.one_plus_x_power" in memos
    assert [name for name, size in memos.items() if size is None] == []
