"""The package's public surface and the bounds of its integer-keyed memos."""

import eulerian_lab
from eulerian_lab import poly, roots, simplicial


def test_public_names_resolve():
    # a name left in __all__ after its definition goes breaks star-imports
    namespace = {}
    exec("from eulerian_lab import *", namespace)
    assert set(eulerian_lab.__all__) <= namespace.keys()
    for module in (eulerian_lab, roots):
        assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_power_caches_are_bounded():
    for cached in (poly.one_plus_x_power, simplicial._one_minus_x_power):
        assert cached.cache_info().maxsize is not None
