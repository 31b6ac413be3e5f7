"""Simplicial complexes, carried triangulations of a simplex, and the
face-count calculus behind the geometric polynomial identities.

A triangulation of the simplex on a base vertex set V is stored as a
complex together with a carrier map: each triangulation vertex knows the
smallest face of 2^V containing it.  One table, built once per
triangulation, counts its faces by size for each base face F: those
carried by F exactly and those carried inside F.  Every h / boundary-h /
interior-h / theta / local-h row and the f-triangle read it, and no
restriction is materialized.  The f-triangle keeps only the counts per face
size, which is all the uniform-triangulation theory consumes.  An
FTriangle owns what is derived from it: its h-rows, interior rows, family
members ft_qnk and ft_lnk, and interior images, each computed once on first
use and freed with the triangle; no cache is keyed by a triangle.

The subdivisions, antiprism spheres and induced subcomplexes are closed by
construction, so they skip the closure walk of the validating constructor
(see SimplicialComplex._trusted); complexes given by their faces or facets
are still checked.  The h-polynomials of all partial antiprism complexes
are read off one tally of the sphere's faces.

This module builds complexes, counts faces and derives polynomials; it
decides no verdict.  The identities these counts satisfy, and the
interlacing hypothesis over them, are checked in suites.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
from math import comb
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .budget import check_face_budget
from .errors import CertificationError
from .poly import (
    ZERO,
    Poly,
    linear_combination,
    one_plus_x_power,
    reciprocal,
    series_numerator,
)
from .transforms import LinearTransform, generic_hnk, generic_lnk


@lru_cache(maxsize=256)
def _one_minus_x_power(k: int) -> Poly:
    return Poly((1, -1)) ** k


def _in_window(row: Sequence[int], window: int) -> Sequence[int]:
    """The face counts row[0..window]; a face past the window raises."""
    if any(row[window + 1 :]):
        raise ValueError(f"faces of size above {window} in the window {window}")
    return row[: window + 1]


def _h_from_row(row: Sequence[int], window: int) -> Poly:
    """sum(row[i] x^i (1-x)^(window-i)): the h-polynomial, in the degree
    window, of faces counted by size."""
    return linear_combination(
        (c, _one_minus_x_power(window - i), i) for i, c in enumerate(_in_window(row, window))
    )


class SimplicialComplex:
    """Finite abstract simplicial complex with an explicit vertex order.

    faces must be downward closed; the complex {emptyset} is a (-1)-sphere
    and the void complex (no faces at all) is tolerated as the boundary of
    a point.  The vertex order fixes all index-based output.
    """

    __slots__ = ("faces", "vertex_order", "_index")

    def __init__(self, faces: Iterable[Iterable], vertex_order: Sequence | None = None):
        fs = frozenset(frozenset(f) for f in faces)
        for f in fs:
            for v in f:
                if f - {v} not in fs:
                    raise ValueError("faces are not downward closed")
        verts = set()
        for f in fs:
            verts.update(f)
        if vertex_order is None:
            try:
                order = tuple(sorted(verts))
            except TypeError:
                raise ValueError(
                    "vertex labels are not sortable; pass vertex_order"
                ) from None
        else:
            order = tuple(vertex_order)
            if len(set(order)) != len(order) or set(order) != verts:
                raise ValueError("vertex_order must list each vertex exactly once")
        object.__setattr__(self, "faces", fs)
        object.__setattr__(self, "vertex_order", order)
        object.__setattr__(self, "_index", {v: i for i, v in enumerate(order)})

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("SimplicialComplex is immutable")

    @classmethod
    def from_facets(
        cls, facets: Iterable[Iterable], vertex_order: Sequence | None = None
    ) -> "SimplicialComplex":
        facets = [tuple(frozenset(facet)) for facet in facets]
        check_face_budget(sum(1 << len(f) for f in facets), "the closure of the facets")
        faces: set[frozenset] = set()
        for members in facets:
            for mask in range(1 << len(members)):
                faces.add(frozenset(members[i] for i in range(len(members)) if mask >> i & 1))
        faces.add(frozenset())
        return cls(faces, vertex_order)

    def is_void(self) -> bool:
        return not self.faces

    def index(self, v) -> int:
        return self._index[v]

    def f_vector(self) -> tuple[int, ...]:
        """Counts by cardinality, starting with the empty face."""
        if self.is_void():
            return ()
        top = max(len(f) for f in self.faces)
        out = [0] * (top + 1)
        for f in self.faces:
            out[len(f)] += 1
        return tuple(out)

    def facets(self) -> tuple[frozenset, ...]:
        out = []
        for f in self.faces:
            if not any(f | {v} in self.faces for v in self.vertex_order if v not in f):
                out.append(f)
        return tuple(sorted(out, key=self._face_key))

    def euler_characteristic(self) -> int:
        return sum((-1) ** (len(f) - 1) for f in self.faces if f)

    @classmethod
    def _trusted(cls, faces: frozenset, order: tuple) -> "SimplicialComplex":
        """The complex with these faces and this vertex order, unchecked: the
        faces must be frozensets, downward closed, and order must list
        their vertices once each.

        Only constructions whose result is closed by construction call it:
        - induced: a subface of a kept face is a face inside the kept set;
        - sd_complex: the faces are all chains of nonempty faces, and a
          subchain of a chain is a chain;
        - edgewise_subdivision: every subset of a clique of a facet's
          joinability relation is emitted, and is a clique of that facet;
        - antiprism_sphere: u_I | f with carrier(f) disjoint from I stays a
          face when I or f shrinks, since f's subfaces have smaller carriers.
        Each also lists a vertex only when its singleton is a face.
        from_facets and the public constructor still validate."""
        c = object.__new__(cls)
        object.__setattr__(c, "faces", faces)
        object.__setattr__(c, "vertex_order", order)
        object.__setattr__(c, "_index", {v: i for i, v in enumerate(order)})
        return c

    def induced(self, keep: Iterable) -> "SimplicialComplex":
        keep_set = set(keep)
        # No re-validation: every subface of a kept face is a face of self
        # and lies inside keep, so the kept faces are downward closed, and
        # each kept vertex v of self keeps its face {v}, so order lists the
        # vertices of the kept faces exactly.
        faces = frozenset(f for f in self.faces if f <= keep_set)
        order = tuple(v for v in self.vertex_order if v in keep_set)
        return SimplicialComplex._trusted(faces, order)

    def _face_key(self, f: frozenset) -> tuple:
        return (len(f), tuple(sorted(self._index[v] for v in f)))

    def sorted_faces(self) -> tuple[frozenset, ...]:
        return tuple(sorted(self.faces, key=self._face_key))


def h_poly(complex: SimplicialComplex, n: int) -> Poly:
    """h-polynomial sum(f_{i-1} x^i (1-x)^(n-i)) in the degree window n."""
    fv = complex.f_vector()
    if len(fv) - 1 > n:
        raise ValueError(f"window n={n} below the top face size {len(fv) - 1}")
    return _h_from_row(fv, n)


def faces_as_index_lines(complex: SimplicialComplex) -> list[str]:
    """Nonempty faces, one line each, as sorted vertex indices."""
    lines = []
    for f in complex.sorted_faces():
        if f:
            lines.append(" ".join(str(complex.index(v)) for v in sorted(f, key=complex.index)))
    return lines


class CarriedTriangulation:
    """A triangulation of the simplex 2^V with carrier-tagged vertices.

    carrier[u] is the smallest face of 2^V whose realization contains the
    point u; the carrier of a face is the union over its vertices.  The
    constructor counts faces by carrier mask and size in rows of
    max(n, top face size) + 1 entries: exact[F][i] counts the i-element
    faces with carrier F, and closed[F][i] those with carrier inside F,
    summed over submasks one base vertex at a time.  The faces themselves
    stay grouped by (carrier mask, size), for antiprism_sphere.
    """

    __slots__ = (
        "complex",
        "base_vertices",
        "carrier",
        "exact",
        "closed",
        "_by_carrier",
        "_base_index",
        "_h_cache",
        "_local_cache",
    )

    def __init__(
        self,
        complex: SimplicialComplex,
        base_vertices: Sequence,
        carrier: Mapping,
    ):
        base = tuple(base_vertices)
        base_index = {v: i for i, v in enumerate(base)}
        if len(base_index) != len(base):
            raise ValueError("base vertices repeat")
        vertex_mask: dict = {}
        for u in complex.vertex_order:
            c = carrier.get(u)
            if not c:
                raise ValueError(f"vertex {u!r} lacks a nonempty carrier")
            mask = 0
            for v in c:
                if v not in base_index:
                    raise ValueError(f"carrier of {u!r} leaves the base simplex")
                mask |= 1 << base_index[v]
            vertex_mask[u] = mask
        by_carrier: dict[tuple[int, int], list[frozenset]] = {}
        for f in complex.faces:
            mask = 0
            for u in f:
                mask |= vertex_mask[u]
            key = (mask, len(f))
            group = by_carrier.get(key)
            if group is None:
                by_carrier[key] = [f]
            else:
                group.append(f)
        width = max([len(base)] + [size for _, size in by_carrier]) + 1
        exact = [[0] * width for _ in range(1 << len(base))]
        for (mask, size), group in by_carrier.items():
            exact[mask][size] = len(group)
        closed = [list(row) for row in exact]
        for bit in (1 << i for i in range(len(base))):
            for mask in range(1 << len(base)):
                if mask & bit:
                    closed[mask] = [x + y for x, y in zip(closed[mask], closed[mask ^ bit])]
        for i, v in enumerate(base):
            if exact[1 << i][1] != 1 or any(exact[1 << i][2:]):
                raise ValueError(
                    f"restriction to the vertex {v!r} is not a single point"
                )
        object.__setattr__(self, "complex", complex)
        object.__setattr__(self, "base_vertices", base)
        object.__setattr__(
            self, "carrier", {u: frozenset(carrier[u]) for u in complex.vertex_order}
        )
        object.__setattr__(self, "exact", tuple(map(tuple, exact)))
        object.__setattr__(self, "closed", tuple(map(tuple, closed)))
        object.__setattr__(self, "_by_carrier", by_carrier)
        object.__setattr__(self, "_base_index", base_index)
        object.__setattr__(self, "_h_cache", {})
        object.__setattr__(self, "_local_cache", {})

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("CarriedTriangulation is immutable")

    @property
    def n(self) -> int:
        return len(self.base_vertices)

    def base_mask(self, face: Iterable) -> int:
        index = self._base_index
        mask = 0
        for v in face:
            if v not in index:
                raise ValueError(f"{v!r} is not a base vertex")
            mask |= 1 << index[v]
        return mask

    def mask_face(self, mask: int) -> tuple:
        return tuple(v for i, v in enumerate(self.base_vertices) if mask >> i & 1)

    def restriction_h(self, fmask: int) -> Poly:
        """h-polynomial of the restriction to the base face fmask, in the
        window |fmask|."""
        if fmask not in self._h_cache:
            self._h_cache[fmask] = _h_from_row(self.closed[fmask], int.bit_count(fmask))
        return self._h_cache[fmask]

    def boundary_h(self, fmask: int) -> Poly:
        """h-polynomial of the boundary of the restriction (faces whose
        carrier is a proper subface), in the window |fmask| - 1."""
        row = [c - e for c, e in zip(self.closed[fmask], self.exact[fmask])]
        return _h_from_row(row, int.bit_count(fmask) - 1)

    def interior_h(self, fmask: int) -> Poly:
        """Interior h-polynomial of the restriction; certified against the
        reversal of the plain h-polynomial."""
        m = int.bit_count(fmask)
        total = _h_from_row(self.exact[fmask], m)
        expected = reciprocal(self.restriction_h(fmask), m)
        if total != expected:
            raise CertificationError(
                f"interior h of face mask {fmask} is {total!r}, expected the "
                f"reversal {expected!r}; the carrier map is inconsistent"
            )
        return total

    def theta(self, fmask: int) -> Poly:
        return self.restriction_h(fmask) - self.boundary_h(fmask)

    def local_h(self, emask: int = 0, fmask: int | None = None) -> Poly:
        """The alternating sum over emask <= G <= fmask of restriction
        h-polynomials: the (relative) local h-polynomial of the restriction
        to fmask.  Each pair is computed once: at most 3^n pairs exist, and
        the cache lives as long as the triangulation."""
        if fmask is None:
            fmask = (1 << self.n) - 1
        if emask & ~fmask:
            raise ValueError("emask must be a submask of fmask")
        key = (emask, fmask)
        if key not in self._local_cache:
            m = int.bit_count(fmask)
            self._local_cache[key] = linear_combination(
                ((-1) ** (m - int.bit_count(g)), self.restriction_h(g), 0)
                for g in _submasks_over(emask, fmask)
            )
        return self._local_cache[key]


def _submasks_over(emask: int, fmask: int) -> Iterator[int]:
    """All masks G with emask <= G <= fmask."""
    free = fmask & ~emask
    sub = free
    while True:
        yield emask | sub
        if sub == 0:
            return
        sub = (sub - 1) & free


def restriction(t: CarriedTriangulation, face: Iterable) -> CarriedTriangulation:
    """The carried triangulation induced on a base face."""
    fmask = t.base_mask(face)
    keep = [
        u
        for u in t.complex.vertex_order
        if t.base_mask(t.carrier[u]) & ~fmask == 0
    ]
    sub = t.complex.induced(keep)
    return CarriedTriangulation(sub, t.mask_face(fmask), t.carrier)


def trivial_triangulation(n: int) -> CarriedTriangulation:
    """The simplex 2^[n] triangulating itself."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    base = tuple(range(1, n + 1))
    complex = SimplicialComplex.from_facets([base] if n else [], base)
    return CarriedTriangulation(complex, base, {v: frozenset({v}) for v in base})


def barycentric_subdivision(
    arg: int | CarriedTriangulation,
) -> CarriedTriangulation:
    """First barycentric subdivision; accepts a size n (subdividing the
    trivial triangulation) or any carried triangulation.

    Vertices of the subdivision are the nonempty faces of the input and its
    faces are the chains; the carrier of a chain is the carrier of its top.
    """
    t = trivial_triangulation(arg) if isinstance(arg, int) else arg
    return CarriedTriangulation(
        sd_complex(t.complex),
        t.base_vertices,
        {
            s: frozenset().union(*(t.carrier[u] for u in s))
            for s in t.complex.faces
            if s
        },
    )


def _subdivision_face_count(fv: Sequence[int], family: str, r: int = 1) -> int:
    """Faces of the family's subdivision of a complex with f-vector fv,
    counted before it is built: each lies in the relative interior of the
    subdivision of exactly one face of the complex, so the count is
    sum_j f_j sum_i f^int(i, j)."""
    triangle = family_f_triangle(family, max(len(fv) - 1, 0), r)
    return sum(c * sum(triangle.interior_rows[j]) for j, c in enumerate(fv))


def sd_complex(complex: SimplicialComplex) -> SimplicialComplex:
    """Order complex of the poset of nonempty faces."""
    check_face_budget(
        _subdivision_face_count(complex.f_vector(), "barycentric"),
        "the barycentric subdivision",
    )
    key = complex._face_key
    cells = sorted((f for f in complex.faces if f), key=key)
    chains: list[frozenset] = [frozenset()]
    ending: dict[frozenset, list[frozenset]] = {}
    for s in cells:
        mine: list[frozenset] = [frozenset({s})]
        for t in cells:
            if t < s:
                mine.extend(c | {s} for c in ending[t])
        ending[s] = mine
        chains.extend(mine)
    return SimplicialComplex._trusted(frozenset(chains), tuple(cells))


def edgewise_subdivision(
    arg: int | CarriedTriangulation, r: int
) -> CarriedTriangulation:
    """The r-fold edgewise subdivision.

    Vertices are weightings of a face summing to r, encoded as sorted
    tuples of (vertex index, weight) pairs.  Each facet of the input, with
    vertex indices idx_1 < ... < idx_L, contributes its lattice points
    directly as the prefix sums s_1 <= ... <= s_L = r of their weights.
    Two of them are joinable when the difference of their prefix sums
    spans at most 1 (it never holds both +1 and -1); prefix sums over the
    whole vertex order would only repeat these values.  The faces of each
    facet are the cliques of that relation, and the facets are glued.
    """
    if r < 1:
        raise ValueError("r must be positive")
    t = trivial_triangulation(arg) if isinstance(arg, int) else arg
    base_complex = t.complex
    check_face_budget(
        _subdivision_face_count(base_complex.f_vector(), "esd", r),
        "the edgewise subdivision",
    )
    order = base_complex.vertex_order

    vertex_carrier: dict[tuple, frozenset] = {}
    faces: set[frozenset] = {frozenset()}
    for facet in base_complex.facets():
        if not facet:  # the empty complex's one facet has no lattice points
            continue
        idx = sorted(base_complex.index(v) for v in facet)
        pool: list[tuple] = []
        sums: list[tuple[int, ...]] = []
        for cuts in combinations_with_replacement(range(r + 1), len(idx) - 1):
            s = cuts + (r,)
            label = tuple(
                (i, hi - lo) for i, lo, hi in zip(idx, (0,) + cuts, s) if hi > lo
            )
            if label not in vertex_carrier:
                vertex_carrier[label] = frozenset().union(
                    *(t.carrier[order[i]] for i, _ in label)
                )
            pool.append(label)
            sums.append(s)
        size = len(pool)
        adj = [0] * size
        for a in range(size):
            for b in range(a + 1, size):
                diff = [x - y for x, y in zip(sums[a], sums[b])]
                if max(diff) - min(diff) <= 1:
                    adj[a] |= 1 << b
                    adj[b] |= 1 << a

        def extend(clique: tuple[int, ...], allowed: int) -> None:
            if clique:
                faces.add(frozenset(pool[i] for i in clique))
            m = allowed
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                extend(clique + (j,), allowed & adj[j] & ~((1 << (j + 1)) - 1))

        extend((), (1 << size) - 1)

    complex = SimplicialComplex._trusted(frozenset(faces), tuple(sorted(vertex_carrier)))
    return CarriedTriangulation(complex, t.base_vertices, vertex_carrier)


def colored_barycentric(n: int, r: int) -> CarriedTriangulation:
    """The r-colored barycentric subdivision of the simplex 2^[n]: the
    r-fold edgewise subdivision of the barycentric one.

    Its face count is checked before the barycentric subdivision is built.
    Only the simplex comes first, so that its own budget check bounds n
    before the closed-form count is computed."""
    simplex = trivial_triangulation(n)
    check_face_budget(
        _subdivision_face_count(barycentric_f_triangle(n).rows[n], "esd", r),
        "the edgewise subdivision",
    )
    return edgewise_subdivision(barycentric_subdivision(simplex), r)


@dataclass(frozen=True)
class AntiprismSphere:
    """The sphere obtained by gluing the antiprism cone over a
    triangulation of the simplex boundary onto the triangulation itself."""

    complex: SimplicialComplex
    u_vertices: tuple
    n: int


def antiprism_sphere(t: CarriedTriangulation) -> AntiprismSphere:
    """Faces are unions of {u_i : i in I} with a face of the restriction of
    t to the complementary base face."""
    n = t.n
    check_face_budget(
        sum(sum(row) << (n - int.bit_count(mask)) for mask, row in enumerate(t.exact)),
        "the antiprism sphere",
    )
    u_vertices = tuple(("u", i) for i in range(1, n + 1))
    faces = []
    full = (1 << n) - 1
    for imask in range(1 << n):
        u_part = frozenset(u_vertices[i] for i in range(n) if imask >> i & 1)
        allowed = full & ~imask
        for (cmask, _), fs in t._by_carrier.items():
            if cmask & ~allowed == 0:
                faces.extend(u_part | f for f in fs)
    order = u_vertices + t.complex.vertex_order
    return AntiprismSphere(SimplicialComplex._trusted(frozenset(faces), order), u_vertices, n)


def antiprism_partial(sphere: AntiprismSphere, k: int) -> SimplicialComplex:
    """The induced subcomplex keeping only the first k apex vertices."""
    if not 0 <= k <= sphere.n:
        raise ValueError(f"k={k} out of range 0..{sphere.n}")
    dropped = set(sphere.u_vertices[k:])
    keep = [v for v in sphere.complex.vertex_order if v not in dropped]
    return sphere.complex.induced(keep)


def antiprism_partial_h(sphere: AntiprismSphere) -> tuple[Poly, ...]:
    """h_poly(antiprism_partial(sphere, k), sphere.n) for k = 0..n, from one
    walk over the faces of a sphere that antiprism_sphere built.  A face
    lies in the k-th partial complex exactly when its largest apex index is
    at most k, so faces are tallied by that index and by size, and row k of
    face counts is the sum of the tallies up to k."""
    n = sphere.n
    apex = dict.fromkeys(sphere.complex.vertex_order, 0)
    apex.update((u, i) for i, u in enumerate(sphere.u_vertices, 1))
    tally = [[0] * (n + 1) for _ in range(n + 1)]
    for f in sphere.complex.faces:
        tally[max(map(apex.__getitem__, f), default=0)][len(f)] += 1
    row = [0] * (n + 1)
    out = []
    for counts in tally:
        row = [a + b for a, b in zip(row, counts)]
        out.append(_h_from_row(row, n))
    return tuple(out)


@dataclass(frozen=True)
class FTriangle:
    """Face counts of a uniform triangulation: rows[j][i] is the number of
    i-element faces in the restriction to any j-element base face."""

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 0 or len(self.rows) != self.n + 1:
            raise ValueError("need one row per face size 0..n")
        for j, row in enumerate(self.rows):
            if len(row) != j + 1:
                raise ValueError(f"row {j} must have {j + 1} entries")
            if row[0] != 1:
                raise ValueError("every restriction contains the empty face once")
            if any(c < 0 for c in row) or row[j] < 1:
                raise ValueError("face counts must be nonnegative with a top cell")

    def f(self, i: int, j: int) -> int:
        if not 0 <= j <= self.n:
            raise ValueError(f"face size {j} out of range 0..{self.n}")
        return self.rows[j][i] if 0 <= i <= j else 0

    @cached_property
    def h_rows(self) -> tuple[Poly, ...]:
        """h-polynomials of the restrictions, m = 0..n.  Derived rows are built
        on first use and are not fields: ==, hash, repr and to_json skip them."""
        return tuple(_h_from_row(r, m) for m, r in enumerate(self.rows))

    @cached_property
    def _memo(self) -> dict[int, Poly]:
        """ft_qnk, ft_lnk and ft_h_interior as computed so far, keyed by small
        ints: at most (n+1)(n+2) + n + 1 entries, freed with the triangle."""
        return {}

    @cached_property
    def interior_rows(self) -> tuple[tuple[int, ...], ...]:
        """[m][i]: i-element faces interior to the size-m restriction."""
        return tuple(
            tuple(
                sum((-1) ** (m - j) * comb(m, j) * self.f(i, j) for j in range(i, m + 1))
                for i in range(m + 1)
            )
            for m in range(self.n + 1)
        )

    def to_json(self) -> str:
        return json.dumps(
            {"n": self.n, "f": [list(row) for row in self.rows]},
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FTriangle":
        try:
            data = json.loads(text)
            n = data["n"]
            rows = tuple(tuple(row) for row in data["f"])
        except (
            json.JSONDecodeError,
            KeyError,
            RecursionError,  # arrays nested deeper than the decoder's stack
            TypeError,
            ValueError,
        ) as exc:
            raise ValueError(f"malformed f-triangle document: {exc}") from None
        # only JSON integers: a bool, float or string is not a face count
        if type(n) is not int or any(type(c) is not int for row in rows for c in row):
            raise ValueError("n and every f-triangle entry must be JSON integers")
        triangle = cls(n=n, rows=rows)
        # a file is trusted only as a triangulation's f-triangle: each
        # restriction must pass the reciprocity and boundary-count checks
        for m in range(n + 1):
            ft_h_interior(triangle, m)
            ft_boundary_h(triangle, m)
        return triangle


def f_triangle(t: CarriedTriangulation) -> FTriangle:
    """Face counts by restriction size, validated to agree on every base
    face of each size (the uniformity this theory requires)."""
    first: dict[int, Sequence[int]] = {}
    for fmask, row in enumerate(t.closed):
        j = int.bit_count(fmask)
        row = _in_window(row, j)
        if first.setdefault(j, row) != row:
            raise ValueError(
                f"face counts differ across base faces of size {j}; "
                "the triangulation is not uniform"
            )
    return FTriangle(n=t.n, rows=tuple(first[j] for j in range(t.n + 1)))


def _simplex_hilbert(m: int, t: int) -> int:
    return comb(t + m - 1, m - 1)  # degree-t monomials in m variables


def _barycentric_hilbert(m: int, t: int) -> int:
    return (t + 1) ** m - t**m  # maps [m] -> {0..t} that reach t


class GeometryFamily(NamedTuple):
    """A geometry family: its triangulation of 2^[n] from (n, r); the
    Hilbert function H_m(t), t >= 1, of the face ring of its base
    triangulation of 2^[m]; and whether r applies, the family then being
    the r-fold edgewise subdivision of that base, with H_m(rt)."""

    build: Callable[[int, int], CarriedTriangulation]
    hilbert: Callable[[int, int], int]
    takes_r: bool


# The one registry of geometry families, in the order of the dump-complex
# and ft-from-family choices.
GEOMETRY_FAMILIES = {
    "trivial": GeometryFamily(
        lambda n, r: trivial_triangulation(n), _simplex_hilbert, False
    ),
    "barycentric": GeometryFamily(
        lambda n, r: barycentric_subdivision(n), _barycentric_hilbert, False
    ),
    "esd": GeometryFamily(edgewise_subdivision, _simplex_hilbert, True),
    "colored": GeometryFamily(colored_barycentric, _barycentric_hilbert, True),
}


def build_geometry_family(family: str, n: int, r: int = 2) -> CarriedTriangulation:
    if family not in GEOMETRY_FAMILIES:
        raise ValueError(f"unknown geometry family {family!r}")
    return GEOMETRY_FAMILIES[family].build(n, r)


# cached: every transform and subdivision face count asks for its triangle
@lru_cache(maxsize=128)
def family_f_triangle(family: str, n: int, r: int = 2) -> FTriangle:
    """A geometry family's f-triangle in closed form, without building it.

    Row m is the f-vector of the restriction to an m-element base face:
    its h-polynomial is the numerator of sum_t H_m(rt) x^t over (1-x)^m (the
    Veronese construction, Brenti-Welker 2009), and f_i = sum_k h_k
    C(m-k, i-k) is the coefficient of x^i in sum_k h_k x^k (1+x)^(m-k).
    r is ignored by trivial and barycentric."""
    if family not in GEOMETRY_FAMILIES:
        raise ValueError(f"unknown geometry family {family!r}")
    _, hilbert, takes_r = GEOMETRY_FAMILIES[family]
    if takes_r and r < 1:
        raise ValueError("r must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    step = r if takes_r else 1
    rows = []
    for m in range(n + 1):
        values = [1] + [hilbert(m, step * t) for t in range(1, m + 1)]
        h = series_numerator(values, m).coeffs
        f = linear_combination((c, one_plus_x_power(m - k), k) for k, c in enumerate(h))
        rows.append(f.coeffs)
    return FTriangle(n=n, rows=tuple(rows))


def trivial_f_triangle(n: int) -> FTriangle:
    return family_f_triangle("trivial", n)


def barycentric_f_triangle(n: int) -> FTriangle:
    return family_f_triangle("barycentric", n)


def ft_h(triangle: FTriangle, m: int) -> Poly:
    """h-polynomial of the restriction to an m-element base face."""
    if not 0 <= m <= triangle.n:
        raise ValueError(f"m={m} out of range 0..{triangle.n}")
    return triangle.h_rows[m]


def ft_h_interior(triangle: FTriangle, m: int) -> Poly:
    """Interior h-polynomial via inclusion-exclusion over subfaces; must be
    the reversal of ft_h, else the triangle is not a triangulation."""
    if not 0 <= m <= triangle.n:
        raise ValueError(f"m={m} out of range 0..{triangle.n}")
    if ~m in triangle._memo:  # key -1 - m: only certified images are kept
        return triangle._memo[~m]
    total = _h_from_row(triangle.interior_rows[m], m)
    expected = reciprocal(triangle.h_rows[m], m)
    if total != expected:
        raise ValueError(
            f"interior h at size {m} is {total!r}, not the reversal "
            f"{expected!r}; the f-triangle is not a uniform triangulation"
        )
    triangle._memo[~m] = total
    return total


def ft_boundary_h(triangle: FTriangle, m: int) -> Poly:
    """h-polynomial of the boundary of the restriction, window m - 1."""
    if not 0 <= m <= triangle.n:
        raise ValueError(f"m={m} out of range 0..{triangle.n}")
    if m == 0:
        return ZERO
    interior = triangle.interior_rows[m]
    boundary = [triangle.f(i, m) - interior[i] for i in range(m + 1)]
    if boundary[m] != 0 or any(c < 0 for c in boundary):
        raise ValueError(
            f"boundary face counts at size {m} are impossible: {boundary}"
        )
    return _h_from_row(boundary[:m], m - 1)


def ft_theta(triangle: FTriangle, m: int) -> Poly:
    """Difference of the restriction h-polynomial and its boundary's;
    equals 1 at m = 0."""
    return ft_h(triangle, m) - ft_boundary_h(triangle, m)


def ft_qnk(triangle: FTriangle, m: int, k: int) -> Poly:
    """The additive family over the triangulation's h-sequence; the k = 0
    member is the restriction h-polynomial."""
    return _family_member(triangle, generic_hnk, m, k, m * (m + 1) + 2 * k)


def ft_lnk(triangle: FTriangle, m: int, k: int) -> Poly:
    """The alternating family; at k = m this is the local h-polynomial of
    the restriction."""
    return _family_member(triangle, generic_lnk, m, k, m * (m + 1) + 2 * k + 1)


def _family_member(triangle: FTriangle, family, m: int, k: int, key: int) -> Poly:
    """family(h_rows, m, k) in the triangle's memo under key, one per valid
    (m, k); any other (m, k) goes to family, which refuses it."""
    if 0 <= k <= m <= triangle.n and key in triangle._memo:
        return triangle._memo[key]
    triangle._memo[key] = member = family(triangle.h_rows, m, k)
    return member


def ft_interior_transform(triangle: FTriangle) -> LinearTransform:
    """x^m -> interior h of the size-m restriction."""
    return LinearTransform("interior-h", triangle.n, lambda m: ft_h_interior(triangle, m))


def ft_local_transform(triangle: FTriangle) -> LinearTransform:
    """x^m -> local h of the size-m restriction."""
    return LinearTransform("local-h", triangle.n, lambda m: ft_lnk(triangle, m, m))


def eulerian_transform(n: int) -> LinearTransform:
    """The interior transform of the barycentric subdivision: x^0 -> 1 and
    x^m -> x A_m for m >= 1."""
    return ft_interior_transform(barycentric_f_triangle(n))


def derangement_transform(n: int) -> LinearTransform:
    """The local transform of the barycentric subdivision: x^m -> d_m; sends
    (1+x)^n to A_n."""
    return ft_local_transform(barycentric_f_triangle(n))
