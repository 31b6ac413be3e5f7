"""The package's public surface and the bounds of its memos."""

import ast
import importlib
import inspect
import pkgutil

import eulerian_lab
from eulerian_lab import roots, simplicial


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


def test_simplicial_imports_no_verdicts():
    # simplicial builds complexes, counts faces and derives polynomials; the
    # decisions live in roots and _intpoly, the verdicts in suites
    sources = set()
    for node in ast.walk(ast.parse(inspect.getsource(simplicial))):
        if isinstance(node, ast.ImportFrom):
            sources.add((node.module or "").split(".")[-1])
            if node.module is None:  # from . import x
                sources.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            sources.update(alias.name.split(".")[-1] for alias in node.names)
    assert "transforms" in sources
    assert sources & {"roots", "_intpoly", "suites"} == set()
