"""Complexes, carried triangulations, f-triangles and their invariants."""

import json
import random
from math import comb
from operator import add

import pytest

from eulerian_lab import simplicial
from eulerian_lab.errors import BudgetExceeded, CertificationError
from eulerian_lab.poly import ONE, ZERO, Poly, reciprocal, series_numerator
from eulerian_lab.simplicial import (
    GEOMETRY_FAMILIES,
    CarriedTriangulation,
    FTriangle,
    SimplicialComplex,
    antiprism_partial_h,
    antiprism_sphere,
    barycentric_f_triangle,
    barycentric_subdivision,
    build_geometry_family,
    colored_barycentric,
    edgewise_subdivision,
    f_triangle,
    faces_as_index_lines,
    family_f_triangle,
    ft_boundary_h,
    ft_h,
    ft_h_interior,
    ft_lnk,
    ft_qnk,
    ft_theta,
    h_poly,
    sd_complex,
    trivial_f_triangle,
    trivial_triangulation,
)
from eulerian_lab import suites
from eulerian_lab.suites import identity_cases, identity_suite, theta_flags
from eulerian_lab.transforms import apply_transform, dnk, eulerian, qnk
from oracles import (
    alternating_restriction_sum,
    antiprism_partial,
    euler_characteristic,
    induced,
    oracle_boundary_h,
    oracle_carrier_counts,
    oracle_face_rows,
    oracle_f_row,
    oracle_facets,
    oracle_h_from_row,
    oracle_identity_suite,
    oracle_interior_h,
    oracle_interior_rows,
    oracle_restriction_h,
    restriction,
)


def P(*coeffs) -> Poly:
    return Poly(coeffs)


def table_reader(t: CarriedTriangulation):
    """The reader (emask, fmask) -> L(E, F) of the relative local
    h-polynomials that the identity suite decodes off its table."""
    return suites._identity_table(t, "")[1]


def table_local_h(t: CarriedTriangulation) -> Poly:
    """The local h-polynomial of t, L(emptyset, full), off the table."""
    return table_reader(t)(0, (1 << t.n) - 1)


class TestSimplicialComplex:
    def test_closure_validated(self):
        with pytest.raises(ValueError):
            SimplicialComplex(
                faces=(frozenset({1, 2}), frozenset()), vertex_order=(1, 2)
            )

    def test_from_facets(self):
        c = SimplicialComplex.from_facets([(1, 2), (2, 3)])
        assert c.f_vector() == (1, 3, 2)
        assert euler_characteristic(c) == 1
        assert sorted(map(sorted, c.facets())) == [[1, 2], [2, 3]]

    def test_from_facets_budget(self):
        # the 2^40 subsets of one 40-vertex facet are refused before any is made
        with pytest.raises(BudgetExceeded, match="budget"):
            SimplicialComplex.from_facets([range(40)])

    def test_void_and_point(self):
        void = SimplicialComplex(faces=(), vertex_order=())
        assert void.is_void()
        point = SimplicialComplex.from_facets([(1,)])
        assert point.f_vector() == (1, 1)

    def test_induced(self):
        c = SimplicialComplex.from_facets([(1, 2, 3)])
        sub = induced(c, {1, 2})
        assert sub.f_vector() == (1, 2, 1)

    def test_h_poly_boundary_triangle(self):
        # hollow triangle: f = (3, 3), h = 1 + x + x^2 inside window 2
        c = SimplicialComplex.from_facets([(1, 2), (2, 3), (1, 3)])
        assert h_poly(c, 2) == P(1, 1, 1)

    def test_h_poly_empty_complex(self):
        empty = SimplicialComplex(faces=(frozenset(),), vertex_order=())
        assert h_poly(empty, 0) == ONE

    def test_faces_as_index_lines_sorted(self):
        c = SimplicialComplex.from_facets([(2, 1), (3,)])
        assert faces_as_index_lines(c) == ["0", "1", "2", "0 1"]

    def test_facets_agree_with_the_vertex_probe(self):
        complexes = [
            SimplicialComplex(faces=(), vertex_order=()),
            SimplicialComplex(faces=(frozenset(),), vertex_order=()),
            SimplicialComplex.from_facets([(1, 2, 3), (3, 4), (5,), (2, 6), (1, 2, 7, 8)]),
        ] + [barycentric_subdivision(n).complex for n in range(6)]
        for c in complexes:
            assert c.facets() == oracle_facets(c), c.f_vector()
        assert complexes[0].facets() == ()
        assert complexes[1].facets() == (frozenset(),)
        assert [len(f) for f in complexes[2].facets()] == [1, 2, 2, 3, 4]


class TestBarycentric:
    def test_sd_complex_counts(self):
        # subdividing the full triangle: 7 vertices, 12 edges, 6 triangles
        tri = SimplicialComplex.from_facets([(1, 2, 3)])
        sd = sd_complex(tri)
        assert sd.f_vector() == (1, 7, 12, 6)

    def test_h_is_eulerian(self):
        for n in range(1, 6):
            t = barycentric_subdivision(n)
            assert ft_h(f_triangle(t), n) == eulerian(n)

    def test_f_triangle_closed_form(self):
        for n in range(6):
            assert f_triangle(barycentric_subdivision(n)) == barycentric_f_triangle(n)

    def test_restriction_is_smaller_subdivision(self):
        t = barycentric_subdivision(4)
        face = t.base_vertices[:2]
        r = restriction(t, face)
        assert f_triangle(r) == barycentric_f_triangle(2)


# name -> (build of the complex to subdivide from n, subdivision of it)
SUBDIVISIONS = {
    "barycentric": (trivial_triangulation, barycentric_subdivision),
    **{
        f"esd-r{r}": (trivial_triangulation, lambda t, r=r: edgewise_subdivision(t, r))
        for r in (1, 2, 3)
    },
    "colored-r2": (barycentric_subdivision, lambda t: edgewise_subdivision(t, 2)),
    "sd-of-esd": (lambda n: edgewise_subdivision(n, 2), barycentric_subdivision),
    "sd-of-sd": (barycentric_subdivision, barycentric_subdivision),
}


class TestSubdivisionBudget:
    """A subdivision is counted before it is built, so a face budget of its
    exact face count lets it through and one face less refuses it."""

    @pytest.mark.parametrize("name", sorted(SUBDIVISIONS))
    def test_counted_exactly_before_building(self, name, monkeypatch):
        base, subdivide = SUBDIVISIONS[name]
        for n in range(6 if name != "sd-of-sd" else 5):
            t = base(n)
            faces = len(subdivide(t).complex.faces)
            monkeypatch.setenv("EULERIAN_LAB_BUDGET", str(faces))
            assert len(subdivide(t).complex.faces) == faces
            monkeypatch.setenv("EULERIAN_LAB_BUDGET", str(faces - 1))
            with pytest.raises(BudgetExceeded, match=f"needs {faces} faces"):
                subdivide(t)
            monkeypatch.delenv("EULERIAN_LAB_BUDGET")

    def test_antiprism_sphere_counted_exactly(self, monkeypatch):
        t = barycentric_subdivision(3)
        faces = len(antiprism_sphere(t).complex.faces)
        monkeypatch.setenv("EULERIAN_LAB_BUDGET", str(faces - 1))
        with pytest.raises(BudgetExceeded, match=f"antiprism sphere needs {faces}"):
            antiprism_sphere(t)


class TestTrivialAndLocal:
    def test_trivial_theta(self):
        # theta is 1 at m = 0, vanishes at m = 1, and for m >= 2 equals
        # minus the full ladder x + ... + x^(m-1)
        for m in range(6):
            t = trivial_triangulation(m)
            got = ft_theta(f_triangle(t), m)
            if m == 0:
                assert got == ONE
            elif m == 1:
                assert got == P()
            else:
                assert got == -Poly((0,) + (1,) * (m - 1)), m

    def test_trivial_local_h_vanishes(self):
        for m in range(6):
            t = trivial_triangulation(m)
            assert table_local_h(t) == (ONE if m == 0 else P())

    def test_barycentric_local_h_is_derangement(self):
        for n in range(6):
            t = barycentric_subdivision(n)
            assert table_local_h(t) == dnk(n, n)

    def test_interior_h_reciprocity(self):
        t = barycentric_subdivision(4)
        full = t.base_mask(t.base_vertices)
        inner = t.interior_h(full)
        assert inner == reciprocal(t.restriction_h(full), 4)


class TestEdgewise:
    def test_esd_of_triangle(self):
        # two-fold edgewise subdivision of the full triangle: 4 triangles
        t = edgewise_subdivision(3, 2)
        assert t.complex.f_vector() == (1, 6, 9, 4)
        assert ft_h(f_triangle(t), 3) == P(1, 3)

    def test_esd_r1_identity(self):
        t = edgewise_subdivision(3, 1)
        assert t.complex.f_vector() == (1, 3, 3, 1)

    def test_esd_segment(self):
        # r pieces of a segment
        for r in (1, 2, 3, 4):
            t = edgewise_subdivision(2, r)
            assert t.complex.f_vector() == (1, r + 1, r)

    def test_esd_local_h(self):
        # hand-checked alternating sum for the 2-fold subdivided triangle:
        # (1 + 3x) - 3(1 + x) + 3 - 1 = 0
        t = edgewise_subdivision(3, 2)
        assert table_local_h(t) == P()
        # and the f-triangle route agrees
        assert ft_lnk(f_triangle(t), 3, 3) == P()


def global_prefix_sum_edgewise(t: CarriedTriangulation, r: int):
    """The r-fold edgewise subdivision built the earlier way, as an oracle:
    every lattice point of every face of each facet, a composition of r
    over a support, with its prefix sums over all base vertices; two points
    are joinable when their prefix-sum difference spans at most 1.
    Returns (faces, vertex_order, carrier)."""
    base = t.complex
    order = base.vertex_order
    iota: dict[tuple, tuple[int, ...]] = {}
    carrier: dict[tuple, frozenset] = {}

    def compositions(total: int, parts: int):
        if parts == 0:
            if total == 0:
                yield ()
            return
        for first in range(1, total - parts + 2):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    faces = {frozenset()}
    for facet in base.facets():
        idx = sorted(base.index(v) for v in facet)
        pool = []
        for submask in range(1, 1 << len(idx)):
            support = [idx[i] for i in range(len(idx)) if submask >> i & 1]
            for comp in compositions(r, len(support)):
                weights = dict(zip(support, comp))
                label = tuple(sorted(weights.items()))
                running, sums = 0, []
                for i in range(len(order)):
                    running += weights.get(i, 0)
                    sums.append(running)
                iota[label] = tuple(sums)
                carrier[label] = frozenset().union(*(t.carrier[order[i]] for i in weights))
                pool.append(label)

        def joinable(a, b) -> bool:
            diff = [x - y for x, y in zip(iota[a], iota[b])]
            return max(diff) - min(diff) <= 1

        def extend(clique: tuple, candidates: list) -> None:
            if clique:
                faces.add(frozenset(clique))
            for k, v in enumerate(candidates):
                extend(clique + (v,), [w for w in candidates[k + 1 :] if joinable(v, w)])

        extend((), sorted(pool))
    return faces, tuple(sorted(iota)), carrier


# name -> (the complex to subdivide, the fold sizes r to compare)
EDGEWISE_ORACLE_CASES = {
    **{f"esd-{n}": (lambda n=n: trivial_triangulation(n), range(1, 5)) for n in range(6)},
    **{
        f"colored-{n}": (lambda n=n: barycentric_subdivision(n), range(1, 4))
        for n in range(6)
    },
    "esd-of-esd-3-2": (lambda: edgewise_subdivision(3, 2), range(1, 4)),
    # bases whose vertex labels are not integers, or whose base vertices
    # are not consecutive
    "sd-of-esd-3-2": (lambda: barycentric_subdivision(edgewise_subdivision(3, 2)), range(1, 4)),
    "esd-of-sd-3-2": (lambda: edgewise_subdivision(barycentric_subdivision(3), 2), range(1, 4)),
    "sd-4-on-2-4": (lambda: restriction(barycentric_subdivision(4), (2, 4)), range(1, 4)),
}


class TestEdgewiseAgainstGlobalPrefixSums:
    @pytest.mark.parametrize("name", sorted(EDGEWISE_ORACLE_CASES))
    def test_same_faces_order_and_carriers(self, name):
        build, folds = EDGEWISE_ORACLE_CASES[name]
        base = build()
        for r in folds:
            faces, vertex_order, carrier = global_prefix_sum_edgewise(base, r)
            t = edgewise_subdivision(base, r)
            assert t.complex.faces == faces, r
            assert t.complex.vertex_order == vertex_order, r
            assert t.carrier == carrier, r

    @pytest.mark.parametrize("n", range(5))
    def test_edgewise_of_edgewise_is_edgewise(self, n):
        # esd_r of esd_2 is esd_2r
        for r in range(1, 4 if n < 4 else 3):
            t = edgewise_subdivision(edgewise_subdivision(n, 2), r)
            assert f_triangle(t) == family_f_triangle("esd", n, 2 * r), r


class TestColored:
    def test_colored_reduces_to_barycentric_at_r1(self):
        t1 = colored_barycentric(3, 1)
        assert f_triangle(t1) == barycentric_f_triangle(3)

    def test_colored_h_values(self):
        # h counts facets by descent type over balanced colorings; frozen
        # from enumeration
        assert ft_h(f_triangle(colored_barycentric(2, 2)), 2) == P(1, 3)
        assert ft_h(f_triangle(colored_barycentric(3, 2)), 3) == P(1, 16, 7)

    def test_oversized_refused_before_the_barycentric_subdivision(self, monkeypatch):
        def unbuilt(complex):
            raise AssertionError("the barycentric subdivision was built")

        monkeypatch.setattr(simplicial, "sd_complex", unbuilt)
        with pytest.raises(BudgetExceeded, match="edgewise subdivision needs 5014886 faces"):
            colored_barycentric(7, 2)

    def test_colored_local_h_is_flag_excedance(self):
        from eulerian_lab.permutations import flag_excedance_poly

        for n in range(4):
            t = colored_barycentric(n, 2)
            assert table_local_h(t) == flag_excedance_poly(n, 2, 0), n


class TestAntiprism:
    def test_over_trivial_segment_is_square(self):
        sphere = antiprism_sphere(trivial_triangulation(2))
        assert sphere.complex.f_vector() == (1, 4, 4)
        assert euler_characteristic(sphere.complex) == 0

    def test_euler_characteristic_alternates(self):
        for n in range(1, 5):
            sphere = antiprism_sphere(barycentric_subdivision(n))
            assert euler_characteristic(sphere.complex) == 1 + (-1) ** (n - 1), n

    def test_partial_apex_h(self):
        # keeping the first k apexes matches the q-family of the base
        t = barycentric_subdivision(3)
        sphere = antiprism_sphere(t)
        ft = f_triangle(t)
        for k in range(4):
            part = antiprism_partial(sphere, k)
            assert h_poly(part, 3) == ft_qnk(ft, 3, k), k


def antiprism_table_inputs():
    """Every geometry family at n <= 4 (r = 2 and 3 where r applies), and
    for n >= 2 its restriction to the base face without the second vertex."""
    for family, entry in GEOMETRY_FAMILIES.items():
        for r in (2, 3) if entry.takes_r else (2,):
            for n in range(5):
                t = entry.build(n, r)
                yield f"{family}-{n}-r{r}", t
                if n >= 2:
                    face = t.base_vertices[:1] + t.base_vertices[2:]
                    yield f"{family}-{n}-r{r}-restricted", restriction(t, face)


class TestAntiprismFromTheFaceTable:
    """antiprism_partial_h reads the partial complexes off the face table;
    the built sphere, its induced partial complexes and its faces' Euler
    characteristic are the oracle.  The void triangulation, whose sphere
    has no empty face, is compared in test_partial_h_of_the_void_sphere."""

    def test_partial_h_and_euler_characteristic_match_the_sphere(self):
        checked = 0
        for name, t in antiprism_table_inputs():
            n = t.n
            sphere = antiprism_sphere(t)
            rows = antiprism_partial_h(t)
            assert rows == tuple(
                h_poly(antiprism_partial(sphere, k), n) for k in range(n + 1)
            ), name
            # the sphere is the k = n complex; its empty face makes f_0 = 1
            euler = 1 - (-1) ** n * rows[n][n]
            assert euler == euler_characteristic(sphere.complex), name
            checked += 1
        assert checked == 48


class TestFTriangle:
    def test_validation(self):
        with pytest.raises(ValueError):
            FTriangle(n=1, rows=((1,),))  # missing row
        with pytest.raises(ValueError):
            FTriangle(n=1, rows=((2,), (1, 1)))  # empty face miscounted
        with pytest.raises(ValueError):
            FTriangle(n=1, rows=((1,), (1, -1)))

    def test_json_round_trip(self):
        ft = barycentric_f_triangle(4)
        again = FTriangle.from_json(ft.to_json())
        assert again == ft

    def test_json_shape_errors(self):
        with pytest.raises(ValueError):
            FTriangle.from_json("[]")
        with pytest.raises(ValueError):
            FTriangle.from_json(json.dumps({"n": 1}))
        with pytest.raises(ValueError):
            FTriangle.from_json(json.dumps({"n": 1, "f": [[1], [1]]}))
        # nesting past the decoder's recursion limit is malformed, not a crash
        deep = "[" * 200_000 + "]" * 200_000
        for text in ("[" * 200_000, deep, '{"n": 1, "f": ' + deep + "}"):
            with pytest.raises(ValueError, match="malformed"):
                FTriangle.from_json(text)

    def test_derived_rows_belong_to_the_triangle(self):
        ft = FTriangle(n=4, rows=barycentric_f_triangle(4).rows)
        before = (repr(ft), hash(ft), ft.to_json())
        twin = FTriangle.from_json(ft.to_json())  # its validation built its rows
        assert ft.h_rows is ft.h_rows and ft.interior_rows is ft.interior_rows
        assert ft.h_rows == twin.h_rows and ft.interior_rows == twin.interior_rows
        assert ft.h_rows == tuple(ft_h(ft, m) for m in range(5))
        assert ft.h_rows[4] == eulerian(4)
        # the interior faces of the subdivided tetrahedron: its barycenter and
        # the cones from it over the 14 + 36 + 24 faces of the boundary
        assert ft.interior_rows[4] == (0, 1, 14, 36, 24)
        assert ft == twin and (repr(ft), hash(ft), ft.to_json()) == before
        # the memo of family members and interior images: filled, it is one
        # entry per (m, k) and family and per interior image, and no field
        for m in range(5):
            assert ft_h_interior(ft, m) is ft_h_interior(ft, m)
            for k in range(m + 1):
                assert ft_qnk(ft, m, k) is ft_qnk(ft, m, k) == qnk(m, k)
                assert ft_lnk(ft, m, k) is ft_lnk(ft, m, k) == dnk(m, k)
        assert len(ft._memo) == 5 * 6 + 5
        assert ft == twin and (repr(ft), hash(ft), ft.to_json()) == before
        # (1, 2) would have the key of (2, 0); a filled memo still refuses it
        for m, k in ((1, 2), (2, 3), (-1, 0), (5, 0), (2, -1)):
            with pytest.raises(ValueError):
                ft_qnk(ft, m, k)
            with pytest.raises(ValueError):
                ft_lnk(ft, m, k)
        for m in (-1, 5):
            with pytest.raises(ValueError):
                ft_h_interior(ft, m)

    def test_an_invalid_triangle_raises_on_every_interior_image(self):
        # built directly, so no validation ran: a segment with 3 vertices and
        # 3 edges, whose interior h at size 2 is not the reversal of its h
        bad = FTriangle(n=2, rows=((1,), (1, 1), (1, 3, 3)))
        image = simplicial.ft_interior_transform(bad).image
        for _ in range(3):
            with pytest.raises(ValueError, match="not the reversal"):
                image(2)
            with pytest.raises(ValueError, match="not the reversal"):
                apply_transform(simplicial.ft_interior_transform(bad), P(1, 1, 1))
        assert image(1) == ft_h_interior(bad, 1)
        assert ~2 not in bad._memo and ~1 in bad._memo

    def test_identity_cases_form_each_family_member_once(self, monkeypatch):
        """identity_cases(8) asks ft_qnk and ft_lnk 1,260 times and the
        interior transform for 210 images; with each triangle's memo it forms
        658 binomial sums, one per distinct member: sum over n = 0..8 of
        (n+1)(n+2) on the barycentric triangle and, for n >= 1, on the
        trivial one.  The two triangles are equal at n = 1, but each keeps
        its own memo.  The 45 interior images are certified once each."""
        calls = {"sums": 0, "reversals": 0}

        def counted(real, key):
            def wrapper(*args):
                calls[key] += 1
                return real(*args)

            return wrapper

        for name in ("generic_hnk", "generic_lnk"):
            monkeypatch.setattr(simplicial, name, counted(getattr(simplicial, name), "sums"))
        monkeypatch.setattr(
            simplicial, "reciprocal", counted(simplicial.reciprocal, "reversals")
        )
        family_f_triangle.cache_clear()  # fresh triangles, empty memos
        assert all(c.status == "pass" for c in identity_cases(8))
        assert calls == {"sums": 658, "reversals": 45}

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 1, "f": [[1], [1, 1.5]]}',
            '{"n": 1, "f": [[1], [1, 1.0]]}',
            '{"n": 1, "f": [["1"], ["1", "2"]]}',
            '{"n": 1, "f": [[1], [1, true]]}',
            '{"n": true, "f": [[1], [1, 1]]}',
            '{"n": "1", "f": [[1], [1, 1]]}',
            '{"n": 1, "f": [[1], [1, 1e400]]}',
        ],
    )
    def test_json_entries_must_be_integers(self, text):
        with pytest.raises(ValueError):
            FTriangle.from_json(text)

    def test_json_of_every_triangulation_loads(self):
        triangles = [
            family_f_triangle(family, n, r)
            for family in GEOMETRY_FAMILIES
            for n in range(7)
            for r in (1, 2, 3)
        ]
        triangles.append(f_triangle(colored_barycentric(4, 2)))
        for ft in triangles:
            assert FTriangle.from_json(ft.to_json()) == ft
        segment = '{"n": 2, "f": [[1], [1, 1], [1, 2, 1]]}'
        assert FTriangle.from_json(segment) == trivial_f_triangle(2)

    def test_trivial_closed_form(self):
        for n in range(6):
            assert f_triangle(trivial_triangulation(n)) == trivial_f_triangle(n)

    def test_f_accessor(self):
        ft = trivial_f_triangle(3)
        assert ft.f(0, 2) == 1
        assert ft.f(2, 1) == 0  # more vertices than the face has


def chain_recursion_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Barycentric f-triangle by counting chains: d[i][m] counts i-chains of
    nonempty subsets of [m] topped by [m]."""
    d = [[0] * (n + 1) for _ in range(n + 1)]
    d[0][0] = 1
    for i in range(1, n + 1):
        for m in range(n + 1):
            d[i][m] = sum(comb(m, mm) * d[i - 1][mm] for mm in range(m))
    return tuple(
        tuple(sum(comb(j, m) * d[i][m] for m in range(j + 1)) for i in range(j + 1))
        for j in range(n + 1)
    )


def binomial_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """The simplex: the restriction to j base vertices has C(j, i) i-faces."""
    return tuple(tuple(comb(j, i) for i in range(j + 1)) for j in range(n + 1))


class TestClosedFTriangle:
    """The Veronese route against independent counts: the chain recursion
    and binomial rows it replaced, and the built complexes."""

    @pytest.mark.parametrize("n", range(21))
    def test_barycentric_matches_chain_recursion(self, n):
        assert barycentric_f_triangle(n).rows == chain_recursion_rows(n)

    @pytest.mark.parametrize("n", range(21))
    def test_trivial_matches_binomial_rows(self, n):
        assert trivial_f_triangle(n).rows == binomial_rows(n)

    @pytest.mark.parametrize("r, n_max", [(1, 6), (2, 6), (3, 5), (4, 3)])
    def test_esd_matches_built(self, r, n_max):
        for n in range(n_max + 1):
            built = f_triangle(edgewise_subdivision(n, r))
            assert family_f_triangle("esd", n, r) == built, n

    @pytest.mark.parametrize("r, n_max", [(1, 5), (2, 5), (3, 4), (4, 3)])
    def test_colored_matches_built(self, r, n_max):
        for n in range(n_max + 1):
            built = f_triangle(colored_barycentric(n, r))
            assert family_f_triangle("colored", n, r) == built, n

    @pytest.mark.parametrize("family", ["esd", "colored"])
    def test_veronese_families_need_positive_r(self, family):
        with pytest.raises(ValueError, match="r must be positive"):
            family_f_triangle(family, 3, 0)

    @pytest.mark.parametrize("family", ["trivial", "barycentric"])
    def test_other_families_ignore_r(self, family):
        want = family_f_triangle(family, 4, 1)
        assert family_f_triangle(family, 4, 0) == want
        assert family_f_triangle(family, 4, 5) == want

    @pytest.mark.parametrize("family", ["trivial", "barycentric", "esd", "colored"])
    def test_negative_n_rejected(self, family):
        with pytest.raises(ValueError):
            family_f_triangle(family, -1, 2)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown geometry family"):
            family_f_triangle("cubical", 2)


class TestFTriangleInvariants:
    def test_interior_consistency_enforced(self):
        # a triangle of counts that fails interior reciprocity is rejected
        bad = FTriangle(n=2, rows=((1,), (1, 1), (1, 3, 1)))
        with pytest.raises(ValueError):
            ft_h_interior(bad, 2)

    def test_boundary_h(self):
        ft = f_triangle(edgewise_subdivision(3, 2))
        # boundary of the subdivided triangle is a 6-cycle: h = 1 + 4x + x^2
        assert ft_boundary_h(ft, 3) == P(1, 4, 1)

    def test_qnk_and_lnk_delegate(self):
        ft = barycentric_f_triangle(4)
        for k in range(5):
            assert ft_qnk(ft, 4, k) == qnk(4, k)
            assert ft_lnk(ft, 4, k) == dnk(4, k)

    def test_theta_flags(self):
        flags = theta_flags(barycentric_f_triangle(5))
        assert flags.theta_unimodal
        assert flags.theta_gamma_positive
        assert flags.strong_interlacing

    def test_identity_suite_strict(self):
        cases = identity_suite(barycentric_subdivision(3))
        assert cases and all(c.ok for c in cases)

    def test_identity_suite_nonstrict_collects(self):
        cases = identity_suite(edgewise_subdivision(3, 2))
        assert all(c.ok for c in cases)
        # a stray vertex inside the segment breaks interior reciprocity: the
        # suite reports the failure as a case instead of raising
        stray = SimplicialComplex.from_facets([(1, 2), (3,)])
        bad = CarriedTriangulation(stray, (1, 2), {1: {1}, 2: {2}, 3: {1, 2}})
        failed = {c.name for c in identity_suite(bad) if not c.ok}
        assert "interior-reciprocity" in failed


def every_family_triangle(n_max: int, r_max: int):
    """(family, r, triangle) for every registered family at n <= n_max, and
    at each r <= r_max for the families that take r."""
    for family, entry in GEOMETRY_FAMILIES.items():
        for r in range(1, r_max + 1) if entry.takes_r else (1,):
            for n in range(n_max + 1):
                yield family, r, family_f_triangle(family, n, r)


class TestBinomialPassesAgainstTheOracles:
    """The (1 +- x) passes and the one-list interior rows against the
    routes they replaced: Poly powers of 1 - x and 1 + x summed by
    linear_combination, and inclusion-exclusion entry by entry."""

    def test_h_from_row_on_random_rows(self):
        rng = random.Random(3203)
        for _ in range(400):
            window = rng.randrange(-1, 12)
            size = rng.randrange(0, window + 2)  # rows shorter than window + 1 too
            row = [rng.randrange(-50, 51) for _ in range(size)]
            if rng.random() < 0.3:
                row += [0] * rng.randrange(4)  # zeros past the window are allowed
            got = simplicial._h_from_row(row, window)
            assert got == oracle_h_from_row(row, window), (row, window)
            assert all(type(c) is int for c in got.coeffs)
        assert simplicial._h_from_row([], -1) == ZERO == oracle_h_from_row([], -1)
        assert simplicial._h_from_row((0, 0), -1) == ZERO
        assert simplicial._h_from_row([-7], 0) == P(-7) == oracle_h_from_row([-7], 0)
        assert simplicial._h_from_row([5, 0, 0], 0) == P(5)

    @pytest.mark.parametrize("row, window", [([1, 2, 3], 1), ([1], -1), ([0, 0, 0, -1], 0)])
    def test_a_face_past_the_window_raises_the_oracles_error(self, row, window):
        with pytest.raises(ValueError) as want:
            oracle_h_from_row(row, window)
        with pytest.raises(ValueError, match="faces of size above") as got:
            simplicial._h_from_row(row, window)
        assert str(got.value) == str(want.value)

    def test_f_pass_on_random_h_rows(self):
        rng = random.Random(3204)
        for _ in range(300):
            m = rng.randrange(0, 14)
            h = [rng.randrange(-30, 31) for _ in range(rng.randrange(0, m + 2))]
            got = simplicial._binomial_pass(h, m, add)
            assert Poly(got) == Poly(oracle_f_row(h, m)), (h, m)
            assert len(got) == m + 1

    def test_every_family_at_n_up_to_10(self):
        checked = 0
        for family, r, ft in every_family_triangle(10, 3):
            label = (family, ft.n, r)
            hilbert = GEOMETRY_FAMILIES[family].hilbert
            for m, row in enumerate(ft.rows):
                values = [1] + [hilbert(m, r * t) for t in range(1, m + 1)]
                assert row == oracle_f_row(series_numerator(values, m).coeffs, m), (label, m)
                assert ft.h_rows[m] == oracle_h_from_row(row, m), (label, m)
            assert ft.interior_rows == oracle_interior_rows(ft), label
            checked += 1
        assert checked == 4 * 11 + 2 * 2 * 11


class TestFTriangleMemo:
    """One dict holds the family members, interior images and boundary rows
    of a triangle, in key ranges of their own."""

    def test_shuffled_calls_agree_with_a_fresh_twin(self):
        rng = random.Random(3205)
        readers = {
            "interior": lambda ft, m, k: ft_h_interior(ft, m),
            "boundary": lambda ft, m, k: ft_boundary_h(ft, m),
            "theta": lambda ft, m, k: ft_theta(ft, m),
            "qnk": lambda ft, m, k: ft_qnk(ft, m, k),
            "lnk": lambda ft, m, k: ft_lnk(ft, m, k),
        }
        for family, r, closed in every_family_triangle(6, 3):
            n, label = closed.n, (family, closed.n, r)
            calls = [
                (name, m, k)
                for m in range(n + 1)
                for name, ks in (
                    ("interior", (0,)),
                    ("boundary", (0,)),
                    ("theta", (0,)),
                    ("qnk", range(m + 1)),
                    ("lnk", range(m + 1)),
                )
                for k in ks
            ]
            rng.shuffle(calls)
            ft = FTriangle(n=n, rows=closed.rows)
            for name, m, k in calls * 2:  # the second round reads the memo
                twin = FTriangle(n=n, rows=closed.rows)
                want = readers[name](twin, m, k)
                assert readers[name](ft, m, k) == want, (label, name, m, k)
            # every member, interior image and boundary row at m >= 1
            assert len(ft._memo) == (n + 1) * (n + 2) + 2 * n + 1, label

    def test_validation_builds_each_row_once(self, monkeypatch):
        """from_json derives every h-row and boundary row while it validates;
        theta_flags then forms no h-row again."""
        ft = FTriangle.from_json(family_f_triangle("colored", 8, 2).to_json())
        calls = []
        real = simplicial._h_from_row
        monkeypatch.setattr(
            simplicial, "_h_from_row", lambda *args: calls.append(args) or real(*args)
        )
        flags = theta_flags(ft)
        assert calls == []
        monkeypatch.undo()
        assert flags == theta_flags(FTriangle(n=8, rows=ft.rows))


def stray_vertex() -> CarriedTriangulation:
    """A segment with a stray vertex carried by its interior: interior
    reciprocity fails, and every relative local h is still a signed sum of
    restriction h-polynomials."""
    c = SimplicialComplex.from_facets([(1, 2), (3,)])
    return CarriedTriangulation(c, (1, 2), {1: {1}, 2: {2}, 3: {1, 2}})


def suite_rows(t) -> list[tuple[str, bool, str]]:
    return [(c.name, c.ok, c.detail) for c in identity_suite(t)]


class TestIdentitySuiteAgainstTheOracle:
    """identity_suite decides the interval identities on their values at a
    certified power of two; the oracle sums every identity on Poly terms.
    Both give the same cases, in the same order."""

    @pytest.mark.parametrize(
        "family, r",
        [("trivial", 2), ("barycentric", 2), ("esd", 2), ("esd", 3), ("colored", 2), ("colored", 3)],
    )
    def test_every_family_up_to_n_5(self, family, r):
        for n in range(6):
            got = suite_rows(build_geometry_family(family, n, r))
            assert got == oracle_identity_suite(build_geometry_family(family, n, r)), n
            assert all(ok for _, ok, _ in got), n

    def test_the_void_triangulation(self):
        # no face at all: every value is 0 at the bound's b = 0
        def void():
            return CarriedTriangulation(SimplicialComplex(faces=(), vertex_order=()), (), {})

        got = suite_rows(void())
        assert got == oracle_identity_suite(void())
        assert all(ok for _, ok, _ in got) and table_local_h(void()) == P()

    def test_the_stray_vertex_fails_the_same_cases(self):
        got = suite_rows(stray_vertex())
        assert got == oracle_identity_suite(stray_vertex())
        assert "interior-reciprocity" in {name for name, ok, _ in got if not ok}

    @pytest.mark.parametrize("fmask, i", [(0, 0), (1, 1), (3, 0), (5, 2), (6, 1), (7, 0), (7, 3)])
    def test_a_moved_coefficient_fails_the_same_cases(self, monkeypatch, fmask, i):
        # x^i added to the restriction h of a proper base face moves its
        # theta, so relative local h no longer expands over theta; at the
        # full face both sides of every interval identity move by x^i
        original = CarriedTriangulation.restriction_h

        def moved(self, mask):
            h = original(self, mask)
            return h + Poly((0,) * i + (1,)) if mask == fmask else h

        monkeypatch.setattr(CarriedTriangulation, "restriction_h", moved)
        got = suite_rows(barycentric_subdivision(3))
        want = oracle_identity_suite(barycentric_subdivision(3))
        failed = [name for name, ok, _ in got if not ok]
        assert failed == [name for name, ok, _ in want if not ok]
        assert ("relative-local-h-from-theta" in failed) == (fmask != 7)
        assert got == want


FACE_TABLE_FAMILIES = {
    "trivial": trivial_triangulation,
    "barycentric": barycentric_subdivision,
    "esd-r2": lambda n: edgewise_subdivision(n, 2),
    "esd-r3": lambda n: edgewise_subdivision(n, 3),
    "colored-r2": lambda n: colored_barycentric(n, 2),
}


class TestFaceTable:
    @pytest.mark.parametrize("family", sorted(FACE_TABLE_FAMILIES))
    def test_table_agrees_with_the_scan_for_every_mask(self, family):
        for n in range(5):
            t = FACE_TABLE_FAMILIES[family](n)
            scanned = oracle_face_rows(t)
            for fmask in range(1 << n):
                m = fmask.bit_count()
                assert list(t.closed[fmask][: m + 1]) == scanned[fmask]
                assert not any(t.closed[fmask][m + 1 :])
                assert t.restriction_h(fmask) == oracle_restriction_h(t, fmask)
                assert t.boundary_h(fmask) == oracle_boundary_h(t, fmask)
                assert t.interior_h(fmask) == oracle_interior_h(t, fmask)
            rows = [tuple(scanned[(1 << j) - 1]) for j in range(n + 1)]
            assert f_triangle(t) == FTriangle(n=n, rows=tuple(rows))

    def test_exact_rows_count_faces_by_carrier(self):
        t = barycentric_subdivision(3)
        counts = oracle_carrier_counts(t)
        for fmask, row in enumerate(t.exact):
            want = [0] * len(row)
            for (mask, size), count in counts.items():
                if mask == fmask:
                    want[size] += count
            assert list(row) == want
        # the barycenter, 6 edges and 6 triangles are interior to the triangle
        assert t.exact[7][:4] == (0, 1, 6, 6)

    def test_a_face_past_its_window_raises(self):
        # a triangle {c, d, e} carried by the edge {1, 2}: a face of size 3
        # in the restriction to a 2-element base face
        fat = CarriedTriangulation(
            SimplicialComplex.from_facets([("a", "c"), ("c", "d", "e"), ("e", "b")]),
            (1, 2),
            {"a": {1}, "b": {2}, "c": {1, 2}, "d": {1, 2}, "e": {1, 2}},
        )
        reads = (fat.restriction_h, fat.interior_h, lambda f: oracle_restriction_h(fat, f))
        for read in reads:
            with pytest.raises(ValueError):
                read(3)
        with pytest.raises(ValueError):
            f_triangle(fat)
        assert fat.boundary_h(3) == oracle_boundary_h(fat, 3) == P(1, 1)
        # triangles carried by the base edge {1, 2} of a triangle lie in the
        # boundary of the full restriction, whose window is 3 - 1
        thick = CarriedTriangulation(
            SimplicialComplex.from_facets([("a", "c", "x"), ("c", "b", "x"), ("z",)]),
            (1, 2, 3),
            {"a": {1}, "b": {2}, "c": {1, 2}, "x": {1, 2}, "z": {3}},
        )
        with pytest.raises(ValueError):
            thick.boundary_h(7)
        with pytest.raises(ValueError):
            oracle_boundary_h(thick, 7)


LOCAL_H_FAMILIES = {
    "trivial": trivial_triangulation,
    "barycentric": barycentric_subdivision,
    "esd": lambda n: edgewise_subdivision(n, 2),
    "colored": lambda n: colored_barycentric(n, 2),
}


def mask_pairs(n: int):
    for fmask in range(1 << n):
        for emask in range(fmask + 1):
            if emask & ~fmask == 0:
                yield emask, fmask


class TestLocalH:
    """The identity suite's Moebius table is the package's one route to a
    relative local h; alternating_restriction_sum writes each one out from
    its definition, one restriction h per mask."""

    @pytest.mark.parametrize("family", sorted(LOCAL_H_FAMILIES))
    def test_every_pair_matches_the_definition(self, family):
        build = LOCAL_H_FAMILIES[family]
        for n in range(5):
            read, fresh = table_reader(build(n)), build(n)
            for emask, fmask in mask_pairs(n):
                want = alternating_restriction_sum(fresh, emask, fmask)
                assert read(emask, fmask) == want, (family, n, emask, fmask)

    def test_an_inconsistent_triangulation(self):
        t = stray_vertex()
        assert "interior-reciprocity" in {c.name for c in identity_suite(t) if not c.ok}
        read = table_reader(t)
        for emask, fmask in mask_pairs(2):
            assert read(emask, fmask) == alternating_restriction_sum(
                stray_vertex(), emask, fmask
            ), (emask, fmask)
        # a negative coefficient, read off a negative balanced digit
        assert read(0, 3) == P(0, 1, -1)

    def test_triangulations_share_no_entries(self):
        # the barycentric and 2-fold edgewise subdivisions of the triangle
        # have different local h-polynomials at the full face
        bary, esd = table_reader(barycentric_subdivision(3)), table_reader(
            edgewise_subdivision(3, 2)
        )
        assert bary(0, 7) == P(0, 1, 1)
        assert esd(0, 7) == P()
        for emask, fmask in mask_pairs(3):
            assert esd(emask, fmask) == alternating_restriction_sum(
                edgewise_subdivision(3, 2), emask, fmask
            )
            assert bary(emask, fmask) == alternating_restriction_sum(
                barycentric_subdivision(3), emask, fmask
            )


def induced_oracle_complexes():
    """The complexes of the four local-h families at n <= 4, and their
    antiprism spheres at n <= 3."""
    for family in sorted(LOCAL_H_FAMILIES):
        for n in range(5):
            t = LOCAL_H_FAMILIES[family](n)
            yield f"{family}-{n}", t.complex
            if n <= 3:
                yield f"{family}-{n}-antiprism", antiprism_sphere(t).complex


class TestInducedAgainstValidatingConstructor:
    def test_seeded_vertex_subsets(self):
        rng = random.Random(4242)
        checked = 0
        for name, c in induced_oracle_complexes():
            order = c.vertex_order
            keeps = [set(), set(order) | {("foreign", 0), "foreign"}]
            for _ in range(6):
                p = rng.random()
                keeps.append({v for v in order if rng.random() < p})
            keeps.append(set(rng.sample(order, len(order) // 2)) | {-1})
            for keep in keeps:
                got = induced(c, keep)
                faces = [f for f in c.faces if f <= keep]
                want = SimplicialComplex(faces, [v for v in order if v in keep])
                assert got.faces == want.faces, (name, keep)
                assert got.vertex_order == want.vertex_order, (name, keep)
                kept = want.vertex_order
                assert [got.index(v) for v in kept] == [want.index(v) for v in kept]
                checked += 1
        assert checked == 36 * 9


def trusted_build_complexes():
    """Every geometry family at n <= 4 with r = 2 and 3 (trivial and
    barycentric once), and the antiprism spheres over them at n <= 3, each
    with the triangulation it was built over."""
    for family, entry in GEOMETRY_FAMILIES.items():
        for r in (2, 3) if entry.takes_r else (2,):
            for n in range(5):
                t = entry.build(n, r)
                name = f"{family}-{n}-r{r}"
                yield name, t.complex, None
                if n <= 3:
                    sphere = antiprism_sphere(t)
                    yield f"{name}-antiprism", sphere.complex, (t, sphere)


class TestTrustedBuildsAgainstValidatingConstructor:
    """Subdivisions and antiprism spheres skip the closure check; the
    validating constructor must accept each of them unchanged."""

    def test_same_faces_order_and_indices(self):
        checked = 0
        for name, c, _ in trusted_build_complexes():
            want = SimplicialComplex(c.faces, c.vertex_order)
            assert c.faces == want.faces, name
            assert c.vertex_order == want.vertex_order, name
            order = want.vertex_order
            assert [c.index(v) for v in order] == [want.index(v) for v in order], name
            checked += 1
        # six (family, r) pairs, 5 sizes and 4 spheres each
        assert checked == 6 * 5 + 6 * 4

    def test_partial_h_from_one_tally(self):
        checked = 0
        for name, _, built in trusted_build_complexes():
            if built is None:
                continue
            t, sphere = built
            n = sphere.n
            rows = antiprism_partial_h(t)
            assert len(rows) == n + 1, name
            for k, h in enumerate(rows):
                assert h == h_poly(antiprism_partial(sphere, k), n), (name, k)
                checked += 1
        assert checked == 6 * (1 + 2 + 3 + 4)

    def test_partial_h_of_the_void_sphere(self):
        void = CarriedTriangulation(SimplicialComplex([]), (), {})
        sphere = antiprism_sphere(void)
        assert sphere.complex.is_void()
        assert antiprism_partial_h(void) == (h_poly(antiprism_partial(sphere, 0), 0),)
