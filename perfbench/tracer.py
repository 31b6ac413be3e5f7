"""Per-layer tracer installed on eulerian_lab from outside the library.

Each public function of a layer module, and the methods of ``Poly``,
``SimplicialComplex`` and ``CarriedTriangulation``, is replaced by a
wrapper that opens a span.  Spans are not stored one by one: every span
adds its duration to aggregates in memory, under a stack of open spans so
that a span's self time is its duration minus the spans nested in it.
``Tracer.metrics`` turns the aggregates into the per-layer metrics.

The wrapper is installed on every binding of a function: the module global
(so an ``lru_cache`` function keeps recursing through its cache and through
the wrapper), each ``from .x import f`` copy in another module, and each
module-level dict value such as a dispatch table.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter
from fractions import Fraction

LAYERS = (
    "poly",
    "roots",
    "transforms",
    "permutations",
    "simplicial",
    "suites",
    "cli",
    "budget",
)

WRAPPED_CLASSES = {
    "poly": ("Poly",),
    "simplicial": ("SimplicialComplex", "CarriedTriangulation"),
}

# Accessors too cheap to time: a span around them would cost more than the
# call, and they run inside hashing, comparison and indexing everywhere.
UNWRAPPED_METHODS = frozenset(
    {
        "__setattr__",
        "__eq__",
        "__hash__",
        "__repr__",
        "__bool__",
        "__len__",
        "__iter__",
        "__getitem__",
        "deg",
        "is_zero",
        "leading",
    }
)


def coeff_bits(c: Fraction) -> int:
    """Bits to write one coefficient: numerator plus denominator, so an
    integer costs its own bit length."""
    return abs(c.numerator).bit_length() + c.denominator.bit_length() - 1


def _poly_bits(p) -> int:
    return max((coeff_bits(c) for c in getattr(p, "coeffs", ())), default=0)


def _median_of_histogram(hist: Counter) -> float:
    total = sum(hist.values())
    if total == 0:
        return 0.0
    ordered = sorted(hist.items())

    def kth(k: int) -> int:
        seen = 0
        for value, count in ordered:
            seen += count
            if seen > k:
                return value
        raise AssertionError("histogram rank out of range")

    return (kth((total - 1) // 2) + kth(total // 2)) / 2


def _lru(fn):
    """The lru_cache object behind fn, wrapped or not, else None."""
    for candidate in (fn, getattr(fn, "__wrapped__", None)):
        if hasattr(candidate, "cache_info"):
            return candidate
    return None


def _cache_ratio(caches) -> float:
    hits = misses = 0
    for cache in caches:
        info = cache.cache_info()
        hits += info.hits
        misses += info.misses
    return hits / (hits + misses) if hits + misses else 0.0


class Tracer:
    """Aggregated spans for one interpreter.  ``install`` patches the
    already imported eulerian_lab modules in place; there is no uninstall,
    because every traced round runs in an interpreter of its own."""

    def __init__(self) -> None:
        self.open_spans: list[list[float]] = []
        # layer -> [self_s, incl_s, calls, open depth]
        self.layers = {layer: [0.0, 0.0, 0, 0] for layer in LAYERS}
        # "layer.qualname" -> [calls, incl_s, open depth]
        self.functions: dict[str, list] = {}
        self.counts: Counter = Counter()
        self.divmod_bits: Counter = Counter()
        self.modules: dict[str, object] = {}

    # -- span bookkeeping ----------------------------------------------------

    def wrap(self, layer: str, qualname: str, fn, before=None, after=None):
        """Return a wrapper that records one span per call of fn.

        before(args) runs ahead of the clock; after(args, result, outermost)
        runs after it, where outermost says no other span of the layer is
        open.
        """
        open_spans = self.open_spans
        lay = self.layers[layer]
        rec = self.functions.setdefault(f"{layer}.{qualname}", [0, 0.0, 0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            lay[3] += 1
            rec[2] += 1
            nested = [0.0]
            open_spans.append(nested)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                open_spans.pop()
                lay[3] -= 1
                rec[2] -= 1
                lay[0] += dt - nested[0]
                lay[2] += 1
                rec[0] += 1
                if lay[3] == 0:
                    lay[1] += dt
                if rec[2] == 0:
                    rec[1] += dt
                if open_spans:
                    open_spans[-1][0] += dt
            if after is not None:
                after(args, result, lay[3] == 0)
            return result

        return wrapper

    # -- hooks that count work from arguments and results ---------------------

    def _before_divmod(self, args) -> None:
        self.divmod_bits[max(_poly_bits(a) for a in args)] += 1

    def _group_hook(self, kind: str):
        def before(args) -> None:
            n = args[0]
            if not isinstance(n, int) or n < 0:
                return
            size = math.factorial(n)
            if kind == "signed":
                size <<= n
            elif kind == "colored":
                size *= args[1] ** n
            self.counts["permutations.sweeps"] += 1
            self.counts["permutations.group_elements"] += size

        return before

    def _after_complex_init(self, args, result, outermost: bool) -> None:
        self.counts["simplicial.faces_built"] += len(args[0].faces)

    def _after_suite(self, args, result, outermost: bool) -> None:
        if not outermost:
            return
        cases = result[0] if isinstance(result, tuple) else result
        if not isinstance(cases, list):
            return
        for c in cases:
            ok = getattr(c, "ok", None)
            if ok is None:
                continue
            self.counts["suites.cases"] += 1
            if not ok:
                self.counts["suites.cases_failed"] += 1

    def _hooks(self, layer: str, name: str):
        if layer == "poly" and name == "Poly.__divmod__":
            return self._before_divmod, None
        if layer == "permutations" and name in (
            "symmetric_group",
            "signed_permutations",
            "colored_permutations",
        ):
            return self._group_hook(name.split("_")[0]), None
        if layer == "simplicial" and name == "SimplicialComplex.__init__":
            return None, self._after_complex_init
        if layer == "suites":
            return None, self._after_suite
        return None, None

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        import eulerian_lab  # noqa: F401  (loads every layer module)

        replaced: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = sys.modules[f"eulerian_lab.{layer}"]
            self.modules[layer] = module
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                before, after = self._hooks(layer, name)
                replaced[id(obj)] = (obj, self.wrap(layer, name, obj, before, after))
            for cls_name in WRAPPED_CLASSES.get(layer, ()):
                self._wrap_class(layer, getattr(module, cls_name))
        self._rebind(replaced)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for name, attr in list(vars(cls).items()):
            if name in UNWRAPPED_METHODS or (name.startswith("_") and not name.endswith("__")):
                continue
            qualname = f"{cls.__name__}.{name}"
            before, after = self._hooks(layer, qualname)
            if isinstance(attr, (classmethod, staticmethod)):
                wrapped = type(attr)(self.wrap(layer, qualname, attr.__func__, before, after))
            elif callable(attr) and not isinstance(attr, type):
                wrapped = self.wrap(layer, qualname, attr, before, after)
            else:
                continue
            setattr(cls, name, wrapped)

    @staticmethod
    def _rebind(replaced: dict[int, tuple[object, object]]) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "eulerian_lab" and not mod_name.startswith("eulerian_lab."):
                continue
            for name, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, name, hit[1])
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        hit = replaced.get(id(entry))
                        if hit is not None and hit[0] is entry:
                            value[key] = hit[1]

    # -- results ----------------------------------------------------------------

    def calls(self, qualified: str) -> int:
        rec = self.functions.get(qualified)
        return rec[0] if rec else 0

    def metrics(self) -> dict[str, float]:
        """This interpreter's per-layer metrics: totals, except the cache
        hit ratios and the median coefficient size."""
        lay = self.layers
        roots = self.modules["roots"]
        transforms = self.modules["transforms"]
        rr_cache = _lru(roots.is_real_rooted)
        transform_caches = [
            c for c in map(_lru, vars(transforms).values()) if c is not None
        ]
        interlaces = self.functions.get("roots.interlaces", [0, 0.0, 0])
        return {
            "poly.self_s": lay["poly"][0],
            "poly.calls": lay["poly"][2],
            "poly.evaluate.calls": self.calls("poly.Poly.evaluate"),
            "poly.divmod.calls": self.calls("poly.Poly.__divmod__"),
            "poly.mul.calls": self.calls("poly.Poly.__mul__")
            + self.calls("poly.Poly.__rmul__"),
            "poly.gcd.calls": self.calls("poly.poly_gcd"),
            "poly.divmod.coeff_bits_p50": _median_of_histogram(self.divmod_bits),
            "roots.incl_s": lay["roots"][1],
            "roots.self_s": lay["roots"][0],
            "roots.interlaces.calls": interlaces[0],
            "roots.interlaces.incl_s": interlaces[1],
            "roots.is_real_rooted.calls": self.calls("roots.is_real_rooted"),
            "roots.is_real_rooted.hit_ratio": _cache_ratio([rr_cache] if rr_cache else []),
            "roots.sturm_distinct_real_roots.calls": self.calls(
                "roots.sturm_distinct_real_roots"
            ),
            "transforms.incl_s": lay["transforms"][1],
            "transforms.self_s": lay["transforms"][0],
            "transforms.calls": lay["transforms"][2],
            "transforms.cache_hit_ratio": _cache_ratio(transform_caches),
            "permutations.incl_s": lay["permutations"][1],
            "permutations.self_s": lay["permutations"][0],
            "permutations.sweeps": self.counts["permutations.sweeps"],
            "permutations.group_elements": self.counts["permutations.group_elements"],
            "simplicial.incl_s": lay["simplicial"][1],
            "simplicial.self_s": lay["simplicial"][0],
            "simplicial.calls": lay["simplicial"][2],
            "simplicial.faces_built": self.counts["simplicial.faces_built"],
            "suites.self_s": lay["suites"][0],
            "suites.cases": self.counts["suites.cases"],
            "suites.cases_failed": self.counts["suites.cases_failed"],
            "cli.incl_s": lay["cli"][1],
            "cli.self_s": lay["cli"][0],
            "budget.calls": lay["budget"][2],
        }
