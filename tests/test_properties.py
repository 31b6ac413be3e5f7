"""Randomized property suites.

Every suite runs 1000 derandomized examples so the whole file is a seeded,
reproducible batch.  The interlacing suites compare the Sturm based decision
against a pure list oracle on polynomials built from known rational roots.

Bounded fractions come from ``fractions_between``, not ``st.fractions``: the
latter builds and validates a new strategy for every value it draws, which
roughly doubled the run time of this file.
"""

from collections import Counter
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
    GammaVector,
    Poly,
    SymmetricDecomposition,
    basis_p_coeffs,
    basis_p_combination,
    gamma_expand,
    is_gamma_positive,
    is_symmetric,
    one_plus_x_power,
    reciprocal,
    symmetric_decomposition,
)
from eulerian_lab.roots import (
    interlaces,
    interlacing_symmetric_decomposition,
    is_real_rooted,
)
from eulerian_lab.simplicial import family_f_triangle, ft_lnk
from eulerian_lab.suites import (
    _at_power_of_two,
    _certified_bits,
    _consecutive_interlacing,
    _from_power_of_two,
    _row_verdicts,
    generic_conjecture_cases,
)
from eulerian_lab.transforms import apply_transform, binomial_base, generic_hnk, generic_lnk
from oracles import (
    list_interlaces,
    oracle_basis_p_coeffs,
    oracle_gamma_expand,
    oracle_generic_hypothesis,
    oracle_row_verdicts,
    oracle_symmetric_decomposition,
)

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
nonneg_pool = fractions_between(Fraction(0), Fraction(30), max_denominator=8)


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
        (Fraction(0), Fraction(30), 8),
    ],
    ids=[
        "fractions_small",
        "root_pool",
        "neg_root_pool",
        "strict_neg_root_pool",
        "nonneg_pool",
    ],
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


# nonnegative rational coefficients: drawn directly, or from roots <= 0,
# which makes real rooted inputs and passed interlacing decisions common
nonneg_polys = st.one_of(
    st.lists(nonneg_pool, min_size=0, max_size=7).map(lambda cs: Poly(tuple(cs))),
    st.builds(
        poly_from_roots,
        st.lists(neg_root_pool, min_size=0, max_size=6),
        nonneg_pool.filter(bool),
    ),
)


# members of a row: zero, nonzero constants, products of linear factors
# over a tight root pool (repeated and shared roots) with leading
# coefficients of either sign, and multiples of x^2 + 1, which have no real
# root and so are in no passed pair
X2_PLUS_1 = Poly((1, 0, 1))
row_members = st.one_of(
    st.just(ZERO),
    fractions_small.filter(bool).map(lambda c: Poly((c,))),
    st.builds(
        poly_from_roots,
        st.lists(root_pool, min_size=1, max_size=4),
        st.sampled_from([1, 3, -1, -2]),
    ),
    st.builds(
        poly_from_roots, st.lists(root_pool, max_size=2), st.sampled_from([1, -1])
    ).map(X2_PLUS_1.__mul__),
)


def derivative_chain(f: Poly, length: int) -> list[Poly]:
    """f^(length - 1), ..., f', f: each entry interlaces the next when f is
    real rooted, and the entries past the degree of f are zero."""
    chain = [f]
    for _ in range(length - 1):
        chain.append(chain[-1].derivative())
    return chain[::-1]


# rows of 0-7 members; derivative chains make rows whose consecutive pairs
# pass, so that a member is certified by a passed pair, not decided alone
rows = st.one_of(
    st.lists(row_members, max_size=7),
    st.builds(
        derivative_chain,
        st.one_of(row_members, st.builds(poly_from_roots, st.lists(root_pool, max_size=6))),
        st.integers(min_value=0, max_value=7),
    ),
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
        p = sum(
            (one_plus_x_power(n - 2 * k).times_x_power(k) * g for k, g in enumerate(gammas)),
            ZERO,
        )
        back = gamma_expand(p, n)
        assert back is not None
        assert back.gammas == tuple(gammas)

    @SUITE
    @given(st.lists(fractions_small, min_size=1, max_size=6))
    def test_basis_p_round_trip(self, coeffs):
        n = len(coeffs) - 1
        p = basis_p_combination(coeffs, n)
        assert basis_p_coeffs(p, n) == tuple(coeffs)


# int and Fraction coefficient lists, the zero polynomial among them
coefficient_lists = st.one_of(
    st.lists(st.integers(-60, 60), max_size=8),
    st.lists(fractions_small, max_size=8),
)


@st.composite
def palindromes(draw):
    """(p, n) with p palindromic inside window n >= 0: a mirrored list,
    with or without a middle entry, whose ends may be zero."""
    half = draw(coefficient_lists)
    middle = draw(st.lists(st.one_of(st.integers(-60, 60), fractions_small), max_size=1))
    cs = half + middle + half[::-1]
    return Poly(cs), max(len(cs) - 1, 0)


# (p, n) with deg p - 1 <= n <= deg p + 3: windows past the degree, n = 0,
# and one window below the degree, which every route refuses
windowed = st.one_of(
    st.tuples(coefficient_lists.map(Poly), st.integers(-1, 3)).map(
        lambda t: (t[0], max(t[0].deg(), 0) + t[1])
    ),
    palindromes(),
)


def _outcome(fn, *args):
    """fn(*args), or the type and text of what it raised."""
    try:
        return fn(*args)
    except (ValueError, AssertionError) as exc:
        return type(exc), str(exc)


def _canonical(p: Poly) -> bool:
    return all(type(c) is int or c.denominator != 1 for c in p.coeffs)


class TestStoredCoefficientRoutesAgainstPolyRoutes:
    """gamma_expand, is_gamma_positive, basis_p_coeffs and
    symmetric_decomposition run on the stored coefficients; the oracles
    peel and divide on Poly values with Fraction scalars."""

    @SUITE
    @given(windowed)
    def test_gamma_expand(self, pn):
        p, n = pn
        got = _outcome(gamma_expand, p, n)
        assert got == _outcome(oracle_gamma_expand, p, n)
        if isinstance(got, GammaVector):
            assert all(type(g) is Fraction for g in got.gammas)
        if 0 <= n and p.deg() <= n and not is_symmetric(p, n):
            assert got is None

    @SUITE
    @given(windowed)
    def test_is_gamma_positive(self, pn):
        p, n = pn

        def oracle(p, n):
            gv = oracle_gamma_expand(p, n)
            return gv is not None and gv.is_nonnegative()

        assert _outcome(is_gamma_positive, p, n) == _outcome(oracle, p, n)

    @SUITE
    @given(windowed)
    def test_symmetric_decomposition(self, pn):
        p, n = pn
        got = _outcome(symmetric_decomposition, p, n)
        assert got == _outcome(oracle_symmetric_decomposition, p, n)
        if isinstance(got, SymmetricDecomposition):
            assert _canonical(got.a) and _canonical(got.b)

    @SUITE
    @given(windowed)
    def test_basis_p_coeffs(self, pn):
        p, n = pn
        got = _outcome(basis_p_coeffs, p, n)
        assert got == _outcome(oracle_basis_p_coeffs, p, n)
        if isinstance(got, tuple) and got[:1] != (ValueError,):
            assert all(type(c) is Fraction for c in got)

    def test_edge_windows(self):
        # n = 0, p = 0 in a wider window, and a negative window
        for route, oracle in (
            (gamma_expand, oracle_gamma_expand),
            (symmetric_decomposition, oracle_symmetric_decomposition),
            (basis_p_coeffs, oracle_basis_p_coeffs),
        ):
            for p, n in ((ONE * 5, 0), (ZERO, 0), (ZERO, 3), (ZERO, -1), (ONE, -1)):
                assert _outcome(route, p, n) == _outcome(oracle, p, n), (route, p, n)
        assert gamma_expand(ZERO, 3).gammas == (0, 0)
        assert symmetric_decomposition(ONE * 5, 0) == SymmetricDecomposition(ONE * 5, ZERO, 0)
        assert basis_p_coeffs(ZERO, 0) == (0,)


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


class TestScalingInvariance:
    """The sampled Theorem 1 and derangement suites decide L*p for an
    integer L > 0 in place of p; every decision they read is unchanged."""

    @SUITE
    @given(nonneg_polys, st.integers(min_value=1, max_value=10**6), st.integers(0, 2))
    def test_decisions_unchanged_by_a_positive_integer_factor(self, p, scale, pad):
        lp = p * scale
        for partner in (p.derivative(), p + p.derivative()):
            assert interlaces(partner, lp) == interlaces(partner, p)
            assert interlaces(lp, partner) == interlaces(p, partner)
        assert is_real_rooted(lp) == is_real_rooted(p)
        n = max(p.deg(), 0) + pad
        verdict = interlacing_symmetric_decomposition(p, n)
        scaled = interlacing_symmetric_decomposition(lp, n)
        for field in (
            "nonnegative",
            "unimodal_pair",
            "gamma_positive_pair",
            "real_rooted_pair",
            "interlacing",
        ):
            assert getattr(scaled, field) == getattr(verdict, field), field
        assert scaled.a == verdict.a * scale
        assert scaled.b == verdict.b * scale


class TestValuesAtAPowerOfTwo:
    """identity_suite compares integer polynomials by their values at
    2^b, with b from _certified_bits: the coefficients it compares stay
    below 2^(b-2) in absolute value, so _from_power_of_two reads each
    relative local h back off its value."""

    @SUITE
    @given(st.integers(min_value=2, max_value=70), st.data())
    def test_small_coefficients_give_distinct_values(self, b, data):
        top = (1 << (b - 2)) - 1
        # the extremes make the largest differences between coefficients common
        coeff = st.one_of(st.sampled_from([-top, top, 0, 1, -1]), st.integers(-top, top))
        p = Poly(tuple(data.draw(st.lists(coeff, max_size=8))))
        q = Poly(tuple(data.draw(st.lists(coeff, max_size=8))))
        assert _at_power_of_two(p, b) == p.evaluate(1 << b)
        assert (_at_power_of_two(p, b) == _at_power_of_two(q, b)) == (p == q)

    @pytest.mark.parametrize("b", [1, 2, 3, 8, 64])
    def test_coefficients_of_half_the_point_collide(self, b):
        # 2^(b-1) and x - 2^(b-1) both take the value 2^(b-1) at 2^b
        half = 1 << (b - 1)
        p, q = Poly((half,)), Poly((-half, 1))
        assert p != q
        assert _at_power_of_two(p, b) == _at_power_of_two(q, b) == half

    @SUITE
    @given(st.integers(min_value=2, max_value=70), st.data())
    def test_balanced_digits_give_the_polynomial_back(self, b, data):
        # _from_power_of_two inverts the evaluation on every coefficient in
        # [-2^(b-1), 2^(b-1)), both ends of the digit range included
        half = 1 << (b - 1)
        ends = [-half, half - 1, 0, 1, -1]
        coeff = st.one_of(st.sampled_from(ends), st.integers(-half, half - 1))
        p = Poly(tuple(data.draw(st.lists(coeff, max_size=8))))
        assert _from_power_of_two(_at_power_of_two(p, b), b) == p

    @pytest.mark.parametrize("b", [2, 3, 8, 64])
    def test_a_coefficient_of_half_the_point_is_out_of_the_digit_range(self, b):
        # 2^(b-1) is read as the balanced digits -2^(b-1) and 1
        half = 1 << (b - 1)
        assert _from_power_of_two(half, b) == Poly((-half, 1))
        assert _from_power_of_two(-half, b) == Poly((-half,))

    def test_the_bound_keeps_coefficients_below_a_quarter_of_the_point(self):
        for s in [*range(2000), 10**6, 2**40 - 1, 2**40, 3**50]:
            b = _certified_bits(s)
            assert 4 * s < 1 << b, s
            assert b == 0 or 4 * s >= 1 << (b - 1), s  # the least such b


class TestRealRootednessReadOffDecisions:
    """The suites read real rootedness off the passed interlacing decisions
    that hold a member; the oracles decide every member on its own."""

    @SUITE
    @given(rows)
    def test_row_verdicts_and_generic_hypothesis_match_the_oracles(self, row):
        # one draw serves both: the row, and the row as a base h_0..h_n
        assert _row_verdicts(row) == oracle_row_verdicts(row)
        n = len(row) - 1
        assert _consecutive_interlacing(row, n) == oracle_generic_hypothesis(row, n)

    def test_the_rows_reach_every_kind_of_member(self):
        seen = Counter()
        for row in _seeded_draws(rows):
            rr = oracle_row_verdicts(row)[0]
            seen["zero"] += ZERO in row
            seen["non-real"] += not all(rr)
            seen["mixed"] += any(rr) and not all(rr)
            seen["hypothesis"] += len(row) >= 3 and oracle_generic_hypothesis(row, len(row) - 1)
        assert min(seen.values()) >= 5, seen

    @pytest.mark.parametrize("n", range(2, 7))
    def test_generic_binomial_rows(self, n):
        # every member real rooted, and exactly the pairs two or more apart fail
        hs = binomial_base(n)
        far = [(i, j) for i in range(n + 1) for j in range(i + 2, n + 1)]
        for family in (generic_hnk, generic_lnk):
            row = [family(hs, n, k) for k in range(n + 1)]
            assert _row_verdicts(row) == oracle_row_verdicts(row) == ([True] * (n + 1), far)
        _, summary = generic_conjecture_cases(hs, n)
        assert summary["hypothesis"] is oracle_generic_hypothesis(hs, n) is True

    @pytest.mark.parametrize("n", range(3))
    def test_a_short_base_is_refused(self, n):
        # before any decision, as generic_hnk refuses it
        with pytest.raises(ValueError, match="too short"):
            generic_conjecture_cases(binomial_base(n)[:n], n)

    def test_esd_alternating_row_ending_in_zero(self):
        # the chain and the outer pair pass, yet (0, 3) and (0, 4) fail
        row = [ft_lnk(family_f_triangle("esd", 5, 2), 5, k) for k in range(6)]
        assert row[-1] == ZERO
        assert _row_verdicts(row) == oracle_row_verdicts(row) == ([True] * 6, [(0, 3), (0, 4)])
