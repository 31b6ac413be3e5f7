"""Randomized property suites.

Every suite runs 1000 derandomized examples so the whole file is a seeded,
reproducible batch.  The interlacing suites compare the Sturm based decision
against a pure list oracle on polynomials built from known rational roots.

Bounded fractions come from ``fractions_between``, not ``st.fractions``: the
latter builds and validates a new strategy for every value it draws, which
roughly doubled the run time of this file.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from eulerian_lab import eulerian_transform
from eulerian_lab.poly import (
    ONE,
    X,
    ZERO,
    Poly,
    basis_p_coeffs,
    basis_p_combination,
    gamma_expand,
    GammaVector,
    is_symmetric,
    reciprocal,
    symmetric_decomposition,
)
from eulerian_lab.roots import interlaces, is_real_rooted
from eulerian_lab.transforms import apply_transform

SUITE = settings(
    max_examples=1000,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def fractions_between(lo: Fraction, hi: Fraction, max_denominator: int):
    """Draw what ``st.fractions(lo, hi, max_denominator=max_denominator)`` draws.

    ``st.fractions`` flatmaps each drawn denominator to a freshly built
    ``st.builds(Fraction, st.integers(...), st.just(...))`` and validates it,
    once per drawn value.  Here the same integer bounds and scale are computed
    once, one numerator strategy per denominator is built up front, and the
    flatmap only looks it up, so the draws are the same at a fraction of the
    cost.  ``test_fractions_between_matches_st_fractions`` pins the equality.
    """
    low = lo.numerator * hi.denominator
    high = hi.numerator * lo.denominator
    scale = lo.denominator * hi.denominator
    div = gcd(scale, gcd(low, high))
    by_denominator = {
        d: st.builds(
            Fraction,
            st.integers(min_value=d * low // div, max_value=d * high // div),
            st.just(d * scale // div),
        )
        for d in range(1, max_denominator + 1)
    }
    return (
        st.integers(1, max_denominator)
        .flatmap(by_denominator.__getitem__)
        .map(lambda f: f.limit_denominator(max_denominator))
    )


fractions_small = fractions_between(Fraction(-30), Fraction(30), max_denominator=8)

polys = st.lists(fractions_small, min_size=0, max_size=7).map(
    lambda cs: Poly(tuple(cs))
)

# a tight value pool makes shared and repeated roots common
root_pool = fractions_between(Fraction(-4), Fraction(4), max_denominator=3)
neg_root_pool = fractions_between(Fraction(-5), Fraction(0), max_denominator=3)
strict_neg_root_pool = fractions_between(
    Fraction(-5), Fraction(-1, 3), max_denominator=3
)


def _seeded_draws(strategy) -> list:
    drawn = []

    @seed(20230201)
    @settings(max_examples=100, database=None, deadline=None)
    @given(strategy)
    def collect(value):
        drawn.append(value)

    collect()
    return drawn


# the (min_value, max_value, max_denominator) of every pool in this file
@pytest.mark.parametrize(
    "lo, hi, m",
    [
        (Fraction(-30), Fraction(30), 8),
        (Fraction(-4), Fraction(4), 3),
        (Fraction(-5), Fraction(0), 3),
        (Fraction(-5), Fraction(-1, 3), 3),
    ],
    ids=["fractions_small", "root_pool", "neg_root_pool", "strict_neg_root_pool"],
)
def test_fractions_between_matches_st_fractions(lo, hi, m):
    ours = _seeded_draws(st.lists(fractions_between(lo, hi, m), max_size=4))
    reference = _seeded_draws(
        st.lists(st.fractions(lo, hi, max_denominator=m), max_size=4)
    )
    assert len(reference) == 100
    assert ours == reference


def poly_from_roots(roots, lead=1) -> Poly:
    p = Poly((lead,))
    for r in roots:
        p = p * Poly((-r, 1))
    return p


def list_interlaces(a_desc, b_desc) -> bool:
    # reference alternation on descending root lists, b dominating
    if len(b_desc) - len(a_desc) not in (0, 1):
        return False
    return all(b_desc[i] >= a_desc[i] for i in range(len(a_desc))) and all(
        a_desc[i] >= b_desc[i + 1] for i in range(len(b_desc) - 1)
    )


class TestPolyRing:
    @SUITE
    @given(polys, polys, polys)
    def test_ring_laws(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert (p - q) + q == p

    @SUITE
    @given(polys, polys)
    def test_divmod_reconstructs(self, p, q):
        if q.is_zero():
            return
        quo, rem = divmod(p, q)
        assert quo * q + rem == p
        assert rem.deg() < q.deg()

    @SUITE
    @given(polys)
    def test_text_round_trip(self, p):
        assert Poly.from_text(p.to_text()) == p


class TestSymmetryProperties:
    @SUITE
    @given(polys, st.integers(min_value=0, max_value=4))
    def test_reciprocal_involution(self, p, pad):
        n = max(p.deg(), 0) + pad
        assert reciprocal(reciprocal(p, n), n) == p

    @SUITE
    @given(polys, st.integers(min_value=0, max_value=4))
    def test_decomposition_round_trip(self, p, pad):
        n = max(p.deg(), 0) + pad
        dec = symmetric_decomposition(p, n)
        assert dec.a + X * dec.b == p
        assert is_symmetric(dec.a, n)
        assert dec.b.is_zero() or is_symmetric(dec.b, n - 1)

    @SUITE
    @given(st.lists(fractions_small, min_size=1, max_size=5))
    def test_gamma_round_trip(self, gammas):
        n = 2 * (len(gammas) - 1)
        gv = GammaVector(n=n, gammas=tuple(gammas))
        back = gamma_expand(gv.reconstruct(), n)
        assert back is not None
        assert back.gammas == gv.gammas

    @SUITE
    @given(st.lists(fractions_small, min_size=1, max_size=6))
    def test_basis_p_round_trip(self, coeffs):
        n = len(coeffs) - 1
        p = basis_p_combination(coeffs, n)
        assert basis_p_coeffs(p, n) == tuple(coeffs)


class TestInterlacingOracle:
    @SUITE
    @given(
        st.lists(root_pool, min_size=0, max_size=4),
        st.lists(root_pool, min_size=0, max_size=5),
        st.sampled_from([1, 2]),
        st.sampled_from([1, 3]),
    )
    def test_matches_list_oracle(self, a_roots, b_roots, lead_a, lead_b):
        if not a_roots:
            return  # constant conventions tested separately
        a_desc = sorted(a_roots, reverse=True)
        b_desc = sorted(b_roots, reverse=True)
        p = poly_from_roots(a_desc, lead_a)
        q = poly_from_roots(b_desc, lead_b)
        assert interlaces(p, q) == list_interlaces(a_desc, b_desc)

    @SUITE
    @given(st.lists(root_pool, min_size=3, max_size=9))
    def test_alternating_construction_interlaces(self, values):
        values.sort()
        # the dominating list must own the largest value and be the longer
        # one when the count is odd
        if len(values) % 2:
            b_asc, a_asc = values[0::2], values[1::2]
        else:
            a_asc, b_asc = values[0::2], values[1::2]
        p = poly_from_roots(a_asc)
        q = poly_from_roots(b_asc)
        assert interlaces(p, q)

    @SUITE
    @given(st.lists(neg_root_pool, min_size=1, max_size=4), st.data())
    def test_shift_closure(self, a_roots, data):
        # with all roots <= 0, p below q forces q below x*p
        a_desc = sorted(a_roots, reverse=True)
        k = len(a_roots)
        b_roots = data.draw(
            st.lists(neg_root_pool, min_size=k, max_size=k + 1)
        )
        b_desc = sorted(b_roots, reverse=True)
        if not list_interlaces(a_desc, b_desc):
            return
        p = poly_from_roots(a_desc)
        q = poly_from_roots(b_desc)
        assert interlaces(p, q)
        assert interlaces(q, p.times_x_power(1))

    @SUITE
    @given(st.lists(neg_root_pool, min_size=1, max_size=4), st.data())
    def test_common_interleaver_sums(self, a_roots, data):
        a_desc = sorted(a_roots, reverse=True)
        k = len(a_roots)
        rs = data.draw(
            st.lists(
                st.lists(neg_root_pool, min_size=k, max_size=k), min_size=2, max_size=3
            )
        )
        ps = [poly_from_roots(sorted(r, reverse=True)) for r in rs]
        below = poly_from_roots(a_desc)
        if not all(interlaces(below, f) for f in ps):
            return
        total = sum(ps, start=ZERO)
        assert is_real_rooted(total)
        assert interlaces(below, total)

    @SUITE
    @given(st.lists(strict_neg_root_pool, min_size=1, max_size=4), st.data())
    def test_reversal_antitone(self, a_roots, data):
        # strictly negative roots, equal degrees: reversal swaps the order
        a_desc = sorted(a_roots, reverse=True)
        k = len(a_roots)
        b_roots = data.draw(st.lists(strict_neg_root_pool, min_size=k, max_size=k))
        b_desc = sorted(b_roots, reverse=True)
        p = poly_from_roots(a_desc)
        q = poly_from_roots(b_desc)
        m = k
        assert interlaces(p, q) == interlaces(
            reciprocal(q, m), reciprocal(p, m)
        )


class TestTransformLinearity:
    @SUITE
    @given(polys, polys, st.integers(min_value=0, max_value=6))
    def test_interior_transform_additive(self, p, q, pad):
        n = max(p.deg(), q.deg(), 0) + pad
        t = eulerian_transform(n)
        assert apply_transform(t, p + q) == apply_transform(t, p) + apply_transform(
            t, q
        )

    @SUITE
    @given(polys, fractions_small, st.integers(min_value=0, max_value=6))
    def test_interior_transform_homogeneous(self, p, c, pad):
        n = max(p.deg(), 0) + pad
        t = eulerian_transform(n)
        assert apply_transform(t, c * p) == c * apply_transform(t, p)
