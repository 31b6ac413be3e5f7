"""Polynomial families and the linear transforms built from them."""

import random
import sys
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import pytest

from eulerian_lab import derangement_transform, eulerian_transform, transforms
from eulerian_lab.poly import ONE, X, Poly, one_plus_x_power, reciprocal
from eulerian_lab.simplicial import (
    family_f_triangle,
    ft_interior_transform,
    ft_lnk,
    ft_local_transform,
    ft_qnk,
)
from eulerian_lab.transforms import (
    apply_transform,
    binomial_eulerian,
    derangement,
    dnk,
    eulerian,
    generic_hnk,
    generic_lnk,
    pnk,
    qnk,
    qnkj,
    qnkj_star,
    typeB_derangement_image,
    typeB_eulerian,
)


def P(*coeffs) -> Poly:
    return Poly(coeffs)


class TestClassicalFamilies:
    def test_eulerian_values(self):
        assert eulerian(0) == ONE
        assert eulerian(1) == ONE
        assert eulerian(2) == P(1, 1)
        assert eulerian(3) == P(1, 4, 1)
        assert eulerian(4) == P(1, 11, 11, 1)
        assert eulerian(5) == P(1, 26, 66, 26, 1)

    def test_binomial_eulerian_values(self):
        assert binomial_eulerian(2) == P(1, 3, 1)
        assert binomial_eulerian(3) == P(1, 7, 7, 1)
        assert binomial_eulerian(4) == P(1, 15, 33, 15, 1)

    def test_derangement_values(self):
        assert derangement(0) == ONE
        assert derangement(1) == P()
        assert derangement(2) == P(0, 1)
        assert derangement(3) == P(0, 1, 1)
        assert derangement(4) == P(0, 1, 7, 1)

    def test_binomial_eulerian_sum_forms(self):
        # the two binomial sums over Eulerian polynomials that no suite checks
        for n in range(11):
            via_sum = ONE + X * sum(
                (eulerian(i) * comb(n, i) for i in range(1, n + 1)), P()
            )
            via_rev = sum(
                (eulerian(i).times_x_power(n - i) * comb(n, i) for i in range(n + 1)),
                P(),
            )
            assert binomial_eulerian(n) == via_sum, n
            assert binomial_eulerian(n) == via_rev, n

    def test_type_b_derivative_recurrence(self):
        # B_n = (1 + (2n-1)x) B_{n-1} + 2x(1-x) B_{n-1}'
        prev = ONE
        for n in range(1, 11):
            slope = X * 2 * (ONE - X) * prev.derivative()
            prev = (ONE + X * (2 * n - 1)) * prev + slope
            assert typeB_eulerian(n) == prev, n

    def test_type_b_values(self):
        assert typeB_eulerian(0) == ONE
        assert typeB_eulerian(1) == P(1, 1)
        assert typeB_eulerian(2) == P(1, 6, 1)
        assert typeB_eulerian(3) == P(1, 23, 23, 1)
        assert typeB_derangement_image(2) == P(0, 4, 1)
        assert typeB_derangement_image(3) == P(0, 8, 20, 1)


class TestRefinements:
    def test_pnk_boundary_rows(self):
        for n in range(1, 8):
            assert pnk(n, 0) == eulerian(n)
            assert pnk(n, n) == eulerian(n).times_x_power(1)

    def test_pnk_recurrence(self):
        for n in range(2, 8):
            for k in range(n + 1):
                lhs = pnk(n, k)
                rhs = sum(
                    (pnk(n - 1, i).times_x_power(1) for i in range(k)), start=P()
                ) + sum((pnk(n - 1, i) for i in range(k, n)), start=P())
                assert lhs == rhs, (n, k)

    def test_qnk_edges(self):
        for n in range(7):
            assert qnk(n, 0) == eulerian(n)
            assert qnk(n, n) == binomial_eulerian(n)

    def test_qnkj_star_column_normalization(self):
        # dividing out 1 + x happens exactly at j = 0 for k >= 1
        for n in range(1, 6):
            for k in range(1, n + 1):
                assert qnkj(n, k, 0) == qnkj_star(n, k, 0) * one_plus_x_power(1)
                for j in range(1, n + 1):
                    assert qnkj(n, k, j) == qnkj_star(n, k, j)

    def test_qnkj_sums_to_next_level_qnk(self):
        # the j-grid at level n refines the group one size up
        for n in range(5):
            for k in range(n + 1):
                total = sum((qnkj(n, k, j) for j in range(n + 1)), start=P())
                assert total == qnk(n + 1, k), (n, k)

    def test_dnk_edges(self):
        for n in range(7):
            assert dnk(n, 0) == eulerian(n)
            assert dnk(n, n) == derangement(n)

    def test_dnk_recurrence(self):
        for n in range(1, 8):
            for k in range(1, n + 1):
                assert dnk(n, k) == dnk(n, k - 1) - dnk(n - 1, k - 1)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            pnk(3, 4)
        with pytest.raises(ValueError):
            qnk(3, -1)
        with pytest.raises(ValueError):
            dnk(2, 3)
        with pytest.raises(ValueError):
            qnkj_star(3, 1, 4)


class TestGenericSequences:
    def test_matches_concrete_on_binomials(self):
        # base h_m = A_m reproduces the q and d families
        hs = tuple(eulerian(m) for m in range(7))
        for n in range(7):
            for k in range(n + 1):
                assert generic_hnk(hs, n, k) == qnk(n, k)
                assert generic_lnk(hs, n, k) == dnk(n, k)

    def test_length_validation(self):
        hs = tuple(eulerian(m) for m in range(3))
        with pytest.raises(ValueError):
            generic_hnk(hs, 4, 0)
        with pytest.raises(ValueError):
            generic_lnk(hs, 2, 3)


class TestLinearTransforms:
    def test_interior_eulerian_images(self):
        t = eulerian_transform(4)
        assert apply_transform(t, ONE) == ONE
        assert apply_transform(t, P(0, 1)) == eulerian(1).times_x_power(1)
        assert apply_transform(t, P(0, 0, 0, 1)) == eulerian(3).times_x_power(1)

    def test_interior_eulerian_binomial_identity(self):
        # the transform sends (1+x)^n to the binomial Eulerian polynomial
        for n in range(7):
            t = eulerian_transform(n)
            assert apply_transform(t, one_plus_x_power(n)) == binomial_eulerian(n)

    def test_derangement_binomial_identity(self):
        # the derangement transform sends (1+x)^n to A_n
        for n in range(7):
            t = derangement_transform(n)
            assert apply_transform(t, one_plus_x_power(n)) == eulerian(n)

    def test_derangement_basis_images(self):
        # x^k (1+x)^(n-k) maps to d_{n,k}
        for n in range(6):
            t = derangement_transform(n)
            for k in range(n + 1):
                arg = one_plus_x_power(n - k).times_x_power(k)
                assert apply_transform(t, arg) == dnk(n, k)

    def test_degree_window_enforced(self):
        t = eulerian_transform(2)
        with pytest.raises(ValueError, match="transform interior-h"):
            apply_transform(t, P(0, 0, 0, 1))
        with pytest.raises(ValueError, match="transform local-h"):
            apply_transform(derangement_transform(2), P(0, 0, 0, 1))

    def test_negative_size_refused(self):
        for build in (eulerian_transform, derangement_transform):
            with pytest.raises(ValueError, match="nonnegative"):
                build(-1)


def interior_eulerian_image(m: int) -> Poly:
    """The hand-written interior Eulerian transform: x^0 -> 1, x^m -> x A_m."""
    return ONE if m == 0 else X * eulerian(m)


def random_poly(rng: random.Random, n: int) -> Poly:
    return Poly(
        [Fraction(rng.randrange(-50, 50), rng.randrange(1, 8)) for _ in range(n + 1)]
    )


class TestBarycentricTransforms:
    """The Eulerian and derangement transforms are the interior and local
    transforms of the barycentric f-triangle; the hand-written images stay
    as their oracles."""

    ORACLES = (
        (eulerian_transform, interior_eulerian_image),
        (derangement_transform, derangement),
    )

    def test_images_match_the_hand_written_ones(self):
        for build, oracle in self.ORACLES:
            for n in range(13):
                t = build(n)
                assert t.n == n
                for m in range(n + 1):
                    assert t.image(m) == oracle(m), (build.__name__, n, m)

    def test_applied_to_random_inputs(self):
        rng = random.Random(20231)
        for build, oracle in self.ORACLES:
            for n in range(13):
                t = build(n)
                for _ in range(3):
                    p = random_poly(rng, n)
                    want = sum(
                        (oracle(m) * c for m, c in enumerate(p.coeffs)), Poly(())
                    )
                    assert apply_transform(t, p) == want, (build.__name__, n, p)


class TestFTriangleTransforms:
    """For every f-triangle the interior transform sends x^(n-k) (1+x)^k to
    the reversal of q_{n,k} and the local transform sends x^k (1+x)^(n-k)
    to l_{n,k}, both of which are read off the h-sequence directly."""

    @pytest.mark.parametrize("family", ["trivial", "barycentric", "esd", "colored"])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_basis_images(self, family, r):
        for n in range(7):
            triangle = family_f_triangle(family, n, r)
            interior = ft_interior_transform(triangle)
            local = ft_local_transform(triangle)
            for k in range(n + 1):
                arg = one_plus_x_power(k).times_x_power(n - k)
                want = reciprocal(ft_qnk(triangle, n, k), n)
                assert apply_transform(interior, arg) == want, (family, r, n, k)
                arg = one_plus_x_power(n - k).times_x_power(k)
                want = ft_lnk(triangle, n, k)
                assert apply_transform(local, arg) == want, (family, r, n, k)


class TestReciprocityBridge:
    def test_qnk_reversal_is_interior_image(self):
        # the reversal of q_{n,k} equals the interior transform applied to
        # x^(n-k) (1+x)^k
        for n in range(1, 7):
            t = eulerian_transform(n)
            for k in range(n + 1):
                arg = one_plus_x_power(k).times_x_power(n - k)
                assert reciprocal(qnk(n, k), n) == apply_transform(t, arg), (n, k)


class TestEqualityCaseDetail:
    def test_detail_renders_got_and_want(self):
        from eulerian_lab.suites import _eq_case

        same = _eq_case("same", qnk(3, 1), Poly.from_text("1 + 5x + 2x^2"))
        assert same.ok and same.detail == "got 1 + 5x + 2x^2, want 1 + 5x + 2x^2"
        differ = _eq_case("differ", X, ONE)
        assert not differ.ok and differ.detail == "got x, want 1"


def oracle_p_rows(n_max: int) -> list[tuple[Poly, ...]]:
    """The p-row recurrence the series route replaced, run bottom-up:
    p_{n,k} = x * sum(p_{n-1,i} for i < k) + sum(p_{n-1,i} for i >= k)."""
    rows = [(ONE,)]
    for _ in range(n_max):
        below = [P()]
        for q in rows[-1]:
            below.append(below[-1] + q)
        rows.append(tuple(X * b + (below[-1] - b) for b in below))
    return rows


def oracle_type_b(n: int) -> Poly:
    """The closed coefficient form the series route replaced:
    b_j = sum((-1)^i C(n+1,i) (2(j-i)+1)^n)."""
    return Poly(
        sum((-1) ** i * comb(n + 1, i) * (2 * (j - i) + 1) ** n for i in range(j + 1))
        for j in range(n + 1)
    )


@lru_cache(maxsize=None)
def oracle_qnkj_star(n: int, k: int, j: int) -> Poly:
    """The recursion on n, each member the p-row step of level n-1, that the
    level-by-level build of q* and then its closed form replaced; the level
    build ran this same recursion bottom-up."""
    if k <= 1:
        return pnk(n, j)
    if j == 0:
        return qnk(n, k - 1)
    level = k - 1 if j <= k - 1 else k
    return sum(
        (oracle_qnkj_star(n - 1, level, i) * (X if i < j else ONE) for i in range(n)),
        P(),
    )


class TestAgainstReplacedRoutes:
    def test_p_rows_and_eulerian(self):
        for n, row in enumerate(oracle_p_rows(30)):
            assert eulerian(n) == row[0], n
            for k in range(n + 1):
                assert pnk(n, k) == row[k], (n, k)

    def test_type_b(self):
        for n in range(31):
            assert typeB_eulerian(n) == oracle_type_b(n), n

    def test_qnkj_star(self):
        for n in range(21):
            for k in range(n + 2):
                for j in range(n + 1):
                    assert qnkj_star(n, k, j) == oracle_qnkj_star(n, k, j), (n, k, j)


def stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


class TestNoDeepRecursion:
    """Calls at sizes no other test reaches, with every lru cache of the
    module cleared, return under a recursion limit a fixed margin above the
    caller's own depth: no family recurses on n."""

    MARGIN = 60

    def test_cold_calls_under_a_low_recursion_limit(self):
        for value in vars(transforms).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(stack_depth() + self.MARGIN)
        try:
            a = eulerian(300)
            p = pnk(280, 140)
            row = [qnkj_star(40, 20, j) for j in range(41)]
        finally:
            sys.setrecursionlimit(limit)
        assert a.deg() == 299 and sum(a.coeffs) == factorial(300)
        assert sum(p.coeffs) == factorial(280)
        # the j-grid at level n refines q one size up
        assert row[0] * one_plus_x_power(1) + sum(row[1:], P()) == qnk(41, 20)
