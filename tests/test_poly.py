"""Exact polynomial arithmetic and the symmetry toolkit."""

import random
from fractions import Fraction

import pytest

from eulerian_lab.poly import (
    ONE,
    X,
    ZERO,
    Poly,
    basis_p_coeffs,
    basis_p_combination,
    gamma_expand,
    is_gamma_positive,
    is_symmetric,
    is_unimodal,
    linear_combination,
    one_plus_x_power,
    reciprocal,
    series_numerator,
    symmetric_decomposition,
)
from eulerian_lab._intpoly import _int_poly, _signed_remainders, _sturm_chain
from oracles import (
    oracle_gcd,
    oracle_signed_remainders,
    oracle_squarefree_decomposition,
    oracle_squarefree_part,
)


def P(*coeffs) -> Poly:
    return Poly(coeffs)


class TestConstruction:
    def test_trailing_zeros_stripped(self):
        assert P(1, 2, 0, 0) == P(1, 2)
        assert P(0, 0).is_zero()

    def test_zero_degree_convention(self):
        assert ZERO.deg() == -1
        assert ONE.deg() == 0
        assert X.deg() == 1

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Poly((0.5, 1))
        with pytest.raises(TypeError):
            ONE * 0.5

    def test_fractions_kept_exact(self):
        p = P(Fraction(1, 3), Fraction(2, 3))
        assert p.evaluate(1) == 1
        assert p.coeffs == (Fraction(1, 3), Fraction(2, 3))

    def test_from_text_round_trip(self):
        for text in ("0", "1", "x", "1 + 11x + 11x^2 + x^3", "4x + 9x^2 + x^3",
                     "1/2 + 3/4x^2", "-1 + x - x^3"):
            p = Poly.from_text(text)
            assert Poly.from_text(p.to_text()) == p


class TestArithmetic:
    def test_ring_ops(self):
        p, q = P(1, 2, 1), P(0, 1)
        assert p + q == P(1, 3, 1)
        assert p - p == ZERO
        assert p * q == P(0, 1, 2, 1)
        assert 2 * p == P(2, 4, 2)

    def test_divmod_exact(self):
        p = P(1, 2, 1) * P(0, 1, 1) + P(5)
        quo, rem = divmod(p, P(1, 2, 1))
        assert quo == P(0, 1, 1)
        assert rem == P(5)

    def test_exact_div_rejects_remainder(self):
        with pytest.raises(ValueError):
            P(1, 1, 1).exact_div(P(1, 1))
        assert (P(1, 1) * P(1, 2)).exact_div(P(1, 2)) == P(1, 1)

    def test_evaluate(self):
        p = P(1, -3, 2)
        assert p.evaluate(Fraction(1, 2)) == 0
        assert p.evaluate(1) == 0
        assert p.evaluate(0) == 1

    def test_derivative(self):
        assert P(7, 1, 3, 2).derivative() == P(1, 6, 6)
        assert ONE.derivative() == ZERO

    def test_times_x_power(self):
        assert P(1, 1).times_x_power(2) == P(0, 0, 1, 1)
        assert ZERO.times_x_power(3) == ZERO

    def test_one_plus_x_power(self):
        assert one_plus_x_power(0) == ONE
        assert one_plus_x_power(3) == P(1, 3, 3, 1)


class TestGcdAndSquarefree:
    """Hand-checked values of the Fraction oracles that the interlacing
    tests build on."""

    def test_gcd_of_coprime_is_constant(self):
        g = oracle_gcd(P(1, 1), P(0, 1))
        assert g.deg() == 0

    def test_gcd_shared_factor(self):
        g = oracle_gcd(P(1, 1) * P(1, 2), P(1, 1) * P(3, 1))
        assert g.deg() == 1
        assert g.evaluate(-1) == 0

    def test_squarefree_decomposition(self):
        p = P(1, 1) ** 2 * P(0, 1) ** 3 * P(2, 1)
        factors = oracle_squarefree_decomposition(p)
        mults = sorted(m for _, m in factors if not (_ .deg() == 0))
        assert mults == [1, 2, 3]
        prod = ONE
        for f, m in factors:
            prod = prod * f ** m
        # decomposition multiplies back to p up to a positive constant
        assert prod * p.leading() == p * prod.leading()

    def test_squarefree_part_kills_multiplicity(self):
        sf = oracle_squarefree_part(P(1, 1) ** 3)
        assert sf.deg() == 1
        assert sf.evaluate(-1) == 0


def random_factor(rng: random.Random) -> Poly:
    """A linear factor with a rational root, a quadratic with complex or
    irrational roots, or a constant; all with rational coefficients."""
    kind = rng.randrange(4)
    if kind == 0:
        return P(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), 1)
    if kind == 1:
        return P(rng.randint(1, 6), rng.randint(-2, 2), 1)
    if kind == 2:
        return P(-rng.choice((2, 3, 5)), 0, 1)
    return P(Fraction(rng.randint(1, 9), rng.randint(1, 4)) * rng.choice((1, -1)))


def random_product(rng: random.Random, shared: Poly = ONE) -> Poly:
    """shared times a few factors, each raised to a power 1..3, times a
    nonzero rational scale; now and then the zero polynomial."""
    if rng.random() < 0.05:
        return ZERO
    p = shared * Fraction(rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(1, 5))
    for _ in range(rng.randrange(4)):
        p = p * random_factor(rng) ** rng.randint(1, 3)
    return p


def monic_last(chain) -> Poly:
    g = Poly(chain[-1])
    return g * (1 / g.leading())


def kernel_gcd(a: Poly, b: Poly) -> Poly:
    """The monic last entry of the kernel's signed remainder sequence
    a, b, -rem(a, b), ... for a nonzero a."""
    return monic_last(_signed_remainders(_int_poly(a.coeffs), _int_poly(b.coeffs)))


class TestKernelAgainstFractionOracle:
    """A signed remainder sequence ends in the gcd of its first two entries,
    up to a nonzero constant: the degree that is_real_rooted and interlaces
    read off it."""

    def test_random_polynomials(self):
        rng = random.Random(20231106)
        seen = dict.fromkeys(("zero", "constant", "repeated", "shared", "non-integer"), 0)
        for _ in range(300):
            shared = random_factor(rng) ** rng.randint(1, 2) if rng.random() < 0.5 else ONE
            p, q = random_product(rng, shared), random_product(rng, shared)
            for a, b in ((p, q), (q, p)):
                if a:
                    assert kernel_gcd(a, b) == oracle_gcd(a, b), (a, b)
            for f in (p, q):
                if f.deg() > 0:
                    chain = _sturm_chain(_int_poly(f.coeffs))
                    assert monic_last(chain) == oracle_gcd(f, f.derivative()), f
                seen["zero"] += f.is_zero()
                seen["constant"] += f.deg() == 0
                seen["repeated"] += oracle_squarefree_part(f).deg() < f.deg()
                seen["non-integer"] += any(c.denominator > 1 for c in f)
            seen["shared"] += oracle_gcd(p, q).deg() > 0
        assert min(seen.values()) >= 10, seen

    def test_degenerate_arguments(self):
        p = P(Fraction(1, 2), Fraction(3, 2), 1)  # (x + 1)(x + 1/2)
        for a, b in ((p, ZERO), (P(3), P(5)), (P(3), ZERO), (p, p), (p, -p * 2), (P(7), p)):
            assert kernel_gcd(a, b) == oracle_gcd(a, b), (a, b)
        for f in (P(0, 1), P(0, 0, 0, Fraction(-2, 3)), p):
            assert monic_last(_sturm_chain(_int_poly(f.coeffs))) == oracle_gcd(f, f.derivative())


def random_int_poly(rng: random.Random, deg: int, bits: int, sparse: bool):
    """Integer coefficients of up to bits bits, with a nonzero leading one
    of either sign; when sparse, most of the lower ones are zero."""
    top = 1 << bits
    cs = [rng.randint(-top, top) if not sparse or rng.random() < 0.25 else 0
          for _ in range(deg)]
    return tuple(cs) + (rng.randint(1, top) * rng.choice((1, -1)),)


def in_x_squared(f):
    """f(x^2)"""
    out = [0] * (2 * len(f) - 1)
    out[::2] = f
    return tuple(out)


def positive_multiple(f, g) -> bool:
    """Whether f = t g for a rational t > 0, by cross-multiplied
    coefficients."""
    return (len(f) == len(g) and (f[-1] > 0) == (g[-1] > 0)
            and all(x * g[-1] == y * f[-1] for x, y in zip(f, g)))


def degree_drops(chain) -> list[int]:
    return [len(f) - len(g) for f, g in zip(chain, chain[1:])]


class TestSubresultantsAgainstPrimitiveOracle:
    """Each entry of the kernel's sequence is a positive multiple of the
    entry of the oracle that divides a gcd out at every elimination step:
    the two agree in length, degrees and every sign that the Cauchy index
    reads."""

    @staticmethod
    def agree(a, b):
        got, want = _signed_remainders(a, b), oracle_signed_remainders(a, b)
        assert len(got) == len(want), (a, b)
        assert all(positive_multiple(f, g) for f, g in zip(got, want)), (a, b)
        return want

    def random_pair(self, rng):
        """Two integer polynomials, drawn as one of four kinds: in x^2, b
        dividing a, with a shared factor, or dense or sparse at random;
        rarely in the other order."""
        bits = rng.choice((3, 3, 3, 12, 40, 110))
        deg = rng.choice((3, 6, 10, 10, 14, 24))
        kind = rng.randrange(4)
        da = rng.randint(deg // 3, deg)
        db = max(0, min(deg, da - rng.choice((0, 0, 1, 1, 1, 2, 3, -1, -2))))
        if kind == 0:  # polynomials in x^2 (times x): degrees drop by two
            a = in_x_squared(random_int_poly(rng, da // 2, bits, False))
            b = in_x_squared(random_int_poly(rng, db // 2, bits, False))
            if rng.random() < 0.5:
                b = (0,) + b
        elif kind == 1:  # b divides a
            b = random_int_poly(rng, db, bits, rng.random() < 0.3)
            a = (Poly(b) * Poly(random_int_poly(rng, rng.randint(0, 4), bits, False))).coeffs
        elif kind == 2:  # a shared factor of degree 1 to 3
            g = Poly(random_int_poly(rng, rng.randint(1, 3), min(bits, 12), False))
            a = (g * Poly(random_int_poly(rng, max(0, da - g.deg()), bits, False))).coeffs
            b = (g * Poly(random_int_poly(rng, max(0, db - g.deg()), bits, False))).coeffs
        else:
            sparse = rng.random() < 0.4
            a = random_int_poly(rng, da, bits, sparse)
            b = random_int_poly(rng, db, bits, sparse)
        if rng.random() < 0.15:
            a, b = b, a
        return a, b

    def test_random_pairs(self):
        rng = random.Random(20261020)
        seen = dict.fromkeys(
            ("non-normal", "first-degree-kept", "deg-a-below-deg-b", "b-divides-a",
             "gcd-degree-2", "negative-leading", "100-bit", "degree-20"),
            0,
        )
        for _ in range(5000):
            a, b = self.random_pair(rng)
            chain = self.agree(a, b)
            drops = degree_drops(chain)
            if len(a) >= len(b):
                seen["non-normal"] += any(d >= 2 for d in drops[1:])
                seen["first-degree-kept"] += drops[:1] == [0]
                seen["b-divides-a"] += len(chain) == 2 and len(b) >= 2
            seen["deg-a-below-deg-b"] += len(a) < len(b)
            seen["gcd-degree-2"] += len(chain[-1]) >= 3
            seen["negative-leading"] += a[-1] < 0 or b[-1] < 0
            seen["100-bit"] += max(abs(c) for c in a + b).bit_length() >= 100
            seen["degree-20"] += max(len(a), len(b)) >= 21
        assert min(seen.values()) >= 100, seen

    def test_degree_below_the_second(self):
        # a = 1 + 2x, b = x^3 - x: a, b, -a, then -(8 b mod -a) = -8 b(-1/2) = -3
        a, b = (1, 2), (0, -1, 0, 1)
        assert _signed_remainders(a, b) == [a, b, (-1, -2), (-3,)]
        self.agree(a, b)

    def test_non_normal_chain(self):
        # Knuth's example (TAOCP vol. 2, 4.6.1): degrees 8, 6, 4, 2, 1, 0, so
        # two drops of two after the first step.  The first remainder is
        # -(27 A mod B) = 15x^4 - 3x^2 + 9, 27 times -rem(A, B) =
        # (5x^4 - x^2 + 3)/9; then psi = 3^2 = 9 and beta = 3 * 9^2 = 243, and
        # the later entries are Collins' subresultants up to sign
        a = (-5, 2, 8, -3, -3, 0, 1, 0, 1)
        b = (21, -9, -4, 0, 5, 0, 3)
        assert _signed_remainders(a, b) == [
            a, b, (9, 0, -3, 0, 15), (-245, 125, 65), (-12300, 9326), (-260708,),
        ]
        assert degree_drops(self.agree(a, b)) == [2, 2, 2, 1, 1]


class TestSymmetry:
    def test_reciprocal_examples(self):
        # window 3: 1 + 2x -> x^2(1/x ...) = x^3 + 2x^2
        assert reciprocal(P(1, 2), 3) == P(0, 0, 2, 1)
        assert reciprocal(ZERO, 4) == ZERO

    def test_reciprocal_involution(self):
        p = P(1, 5, 2)
        assert reciprocal(reciprocal(p, 4), 4) == p

    def test_reciprocal_window_too_small(self):
        with pytest.raises(ValueError):
            reciprocal(P(1, 1, 1), 1)

    def test_is_symmetric(self):
        assert is_symmetric(P(1, 3, 1), 2)
        assert is_symmetric(P(0, 1, 1), 3)  # x + x^2 centered in window 3
        assert not is_symmetric(P(0, 1, 1), 2)
        assert not is_symmetric(P(1, 2), 2)
        assert is_symmetric(ZERO, 5)

    def test_is_unimodal_least_peak(self):
        assert is_unimodal(P(1, 1, 1)) == 0
        assert is_unimodal(P(1, 3, 1)) == 1
        assert is_unimodal(P(1, 0, 2)) is None
        assert is_unimodal(P(2, 1)) == 0

    def test_symmetric_decomposition_round_trip(self):
        p = P(1, 13, 20, 4)  # not symmetric in window 4
        dec = symmetric_decomposition(p, 4)
        assert dec.a + X * dec.b == p
        assert is_symmetric(dec.a, 4)
        assert is_symmetric(dec.b, 3)

    def test_symmetric_decomposition_nonneg_side(self):
        # the reversal of 1 + 13x + 20x^2 + 4x^3 splits with both parts
        # nonnegative: a = 3x + 10x^2 + 3x^3, b = 1 + 10x + 10x^2 + x^3
        p = P(0, 4, 20, 13, 1)
        dec = symmetric_decomposition(p, 4)
        assert dec.a == P(0, 3, 10, 3)
        assert dec.b == P(1, 10, 10, 1)

    def test_symmetric_decomposition_of_symmetric(self):
        p = P(1, 3, 3, 1)
        dec = symmetric_decomposition(p, 3)
        assert dec.a == p
        assert dec.b == ZERO


class TestGamma:
    def test_gamma_expand_known(self):
        # 1 + 4x + x^2 = (1+x)^2 + 2x
        gv = gamma_expand(P(1, 4, 1), 2)
        assert gv is not None
        assert gv.gammas == (Fraction(1), Fraction(2))

    def test_gamma_expand_asymmetric_is_none(self):
        assert gamma_expand(P(1, 2), 2) is None

    def test_gamma_negative_detected(self):
        # 1 + x + x^2 = (1+x)^2 - x
        gv = gamma_expand(P(1, 1, 1), 2)
        assert gv is not None
        assert gv.gammas == (Fraction(1), Fraction(-1))
        assert not gv.is_nonnegative()
        assert not is_gamma_positive(P(1, 1, 1), 2)
        assert is_gamma_positive(P(1, 4, 1), 2)

    def test_zero_poly_gamma(self):
        gv = gamma_expand(ZERO, 3)
        assert gv is not None and gv.is_nonnegative()
        assert gv.gammas == (0, 0)


class TestBasisP:
    def test_round_trip(self):
        coeffs = (Fraction(2), Fraction(0), Fraction(5, 3))
        p = basis_p_combination(coeffs, 2)
        assert basis_p_coeffs(p, 2) == coeffs

    def test_basis_elements(self):
        # basis element k in window n is x^(n-k) (1+x)^k
        assert basis_p_combination((0, 1, 0), 2) == P(0, 1, 1)
        assert basis_p_combination((1, 0, 0), 2) == P(0, 0, 1)
        assert basis_p_combination((0, 0, 1), 2) == P(1, 2, 1)

    def test_rejects_too_high_degree(self):
        with pytest.raises(ValueError):
            basis_p_coeffs(P(1, 1, 1, 1), 2)


# -- the constructor-based routes that Poly arithmetic used before it built
# results directly; kept as the oracle of TestFastPathsAgainstConstructor.

def oracle_add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return Poly(p[i] + q[i] for i in range(n))


def oracle_neg(p: Poly) -> Poly:
    return Poly(-c for c in p.coeffs)


def oracle_sub(p: Poly, q: Poly) -> Poly:
    return oracle_add(p, oracle_neg(q))


def oracle_mul(p: Poly, q: Poly) -> Poly:
    if not p.coeffs or not q.coeffs:
        return ZERO
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return Poly(out)


def oracle_divmod(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    rem = list(p.coeffs)
    dn = q.deg()
    quot = [Fraction(0)] * max(len(rem) - dn, 0)
    for i in range(len(rem) - dn - 1, -1, -1):
        c = rem[i + dn] / q.leading()
        quot[i] = c
        for j, b in enumerate(q.coeffs):
            rem[i + j] -= c * b
    return Poly(quot), Poly(rem)


def oracle_derivative(p: Poly) -> Poly:
    return Poly(i * c for i, c in enumerate(p.coeffs) if i > 0)


def oracle_times_x_power(p: Poly, k: int) -> Poly:
    return Poly((0,) * k + p.coeffs) if p.coeffs else ZERO


def oracle_reciprocal(p: Poly, n: int) -> Poly:
    return Poly(p.coeffs[n - i] if n - i < len(p) else 0 for i in range(n + 1))


def random_coeff(rng: random.Random, integral: bool) -> Fraction:
    if integral or rng.random() < 0.3:
        return Fraction(rng.randint(-4, 4))
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def random_poly(rng: random.Random, integral: bool, length: int | None = None) -> Poly:
    if length is None:
        length = rng.choice((0, 0, 1, 2, 3, 4, 5, 6))
    cs = [random_coeff(rng, integral) for _ in range(length)]
    if cs and not cs[-1]:
        cs[-1] = Fraction(1)
    return Poly(cs)


def random_pairs(seed: int, count: int):
    """Seeded operand pairs: integer and non-integer coefficients, zero
    polynomials, and equal lengths whose leading terms cancel in p + q and
    in p - q."""
    rng = random.Random(seed)
    for index in range(count):
        integral = index % 2 == 0
        p = random_poly(rng, integral)
        kind = index % 4
        if kind == 2 and p:
            q = Poly(list(random_poly(rng, integral, len(p)).coeffs[:-1]) + [-p.leading()])
        elif kind == 3 and p:
            q = Poly(list(random_poly(rng, integral, len(p)).coeffs[:-1]) + [p.leading()])
        else:
            q = random_poly(rng, integral)
        yield p, q


SCALARS = (0, 1, -3, 7, True, False, Fraction(0), Fraction(-2, 3), Fraction(5))


def assert_canonical(p: Poly) -> None:
    """Every stored coefficient is an int when integral, else a Fraction
    with denominator above 1; no trailing zero."""
    for c in p.coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), p.coeffs
    assert not p.coeffs or p.coeffs[-1] != 0


def assert_same(got: Poly, want: Poly) -> None:
    assert got.coeffs == want.coeffs
    assert_canonical(got)


class TestFastPathsAgainstConstructor:
    def test_ring_operations(self):
        for p, q in random_pairs(seed=5, count=400):
            assert_same(p + q, oracle_add(p, q))
            assert_same(q + p, oracle_add(q, p))
            assert_same(p - q, oracle_sub(p, q))
            assert_same(q - p, oracle_sub(q, p))
            assert_same(-p, oracle_neg(p))
            assert_same(p * q, oracle_mul(p, q))
            if q:
                quot, rem = divmod(p, q)
                want_quot, want_rem = oracle_divmod(p, q)
                assert_same(quot, want_quot)
                assert_same(rem, want_rem)

    def test_cancelling_leading_terms(self):
        p = P(Fraction(1, 2), 3, -2)
        assert_same(p + P(1, 1, 2), P(Fraction(3, 2), 4))
        assert_same(p - p, ZERO)
        assert_same(p + (-p), ZERO)
        assert_same(P(1, 2) - P(0, 2), P(1))

    def test_scalars_on_both_sides(self):
        for p, _ in random_pairs(seed=6, count=120):
            for s in SCALARS:
                c = Poly.constant(s)
                assert_same(p * s, oracle_mul(p, c))
                assert_same(s * p, oracle_mul(c, p))
                assert_same(p + s, oracle_add(p, c))
                assert_same(s + p, oracle_add(c, p))
                assert_same(p - s, oracle_sub(p, c))
                assert_same(s - p, oracle_sub(c, p))
                if s:
                    quot, rem = divmod(p, s)
                    want_quot, want_rem = oracle_divmod(p, c)
                    assert_same(quot, want_quot)
                    assert_same(rem, want_rem)

    def test_unary_operations(self):
        for p, _ in random_pairs(seed=7, count=200):
            assert_same(p.derivative(), oracle_derivative(p))
            for k in range(4):
                assert_same(p.times_x_power(k), oracle_times_x_power(p, k))
            for n in range(max(p.deg(), 0), p.deg() + 4):
                assert_same(reciprocal(p, n), oracle_reciprocal(p, n))

    def test_out_of_range_index_is_zero(self):
        p = P(1, Fraction(1, 2))
        assert p[2] == 0 and type(p[2]) is Fraction
        assert p[-1] == 0 and type(p[-1]) is Fraction

    def test_floats_still_rejected(self):
        p = P(1, 2)
        with pytest.raises(TypeError):
            Poly([1.5])
        with pytest.raises(TypeError):
            p + 1.5
        with pytest.raises(TypeError):
            p * 1.5
        with pytest.raises(TypeError):
            1.5 * p
        with pytest.raises(TypeError):
            p - 1.5


# -- a reference on plain lists of Fractions, low degree first without
# trailing zeros, that shares no code with Poly: TestCanonicalAgainstLists
# checks every operation's values and stored types against it.

def ref_trim(cs: list[Fraction]) -> list[Fraction]:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def ref_add(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a, b = a + [Fraction(0)] * (n - len(a)), b + [Fraction(0)] * (n - len(b))
    return ref_trim([x + y for x, y in zip(a, b)])


def ref_scale(a: list[Fraction], s: Fraction) -> list[Fraction]:
    return ref_trim([x * s for x in a])


def ref_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    return ref_add(a, ref_scale(b, Fraction(-1)))


def ref_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    rem = list(a)
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + len(b) - 1] / b[-1]
        quot[i] = c
        for j, y in enumerate(b):
            rem[i + j] -= c * y
    return ref_trim(quot), ref_trim(rem)


def ref_derivative(a: list[Fraction]) -> list[Fraction]:
    return ref_trim([i * x for i, x in enumerate(a)][1:])


def ref_reciprocal(a: list[Fraction], n: int) -> list[Fraction]:
    return ref_trim(list(reversed(a + [Fraction(0)] * (n + 1 - len(a)))))


def ref_monic(a: list[Fraction]) -> list[Fraction]:
    return [x / a[-1] for x in a]


def ref_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return ref_monic(a) if a else []


def ref_squarefree_part(a: list[Fraction]) -> list[Fraction]:
    if len(a) <= 1:
        return [Fraction(1)] if a else []
    quot, rem = ref_divmod(a, ref_gcd(a, ref_derivative(a)))
    assert not rem
    return ref_monic(quot)


def ref_evaluate(a: list[Fraction], x: Fraction) -> Fraction:
    return sum((c * x**i for i, c in enumerate(a)), Fraction(0))


def raw_coeff(rng: random.Random) -> object:
    """A constructor input: an int, a bool, an integral Fraction or a
    half, third or quarter, any of them negative."""
    kind = rng.randrange(5)
    if kind == 0:
        return rng.randint(-5, 5)
    if kind == 1:
        return rng.choice((True, False))
    if kind == 2:
        return Fraction(2 * rng.randint(-4, 4), 2)
    return Fraction(rng.randint(-9, 9), rng.choice((2, 3, 4)))


def raw_pair(rng: random.Random, index: int) -> tuple[list, list]:
    """Constructor inputs of an operand pair.  Every third pair sums to an
    integer polynomial (1/2 + 1/2 among them); every fifth has a zero
    operand."""
    a = [raw_coeff(rng) for _ in range(rng.randrange(6))]
    if index % 3 == 0:
        b = [rng.randint(-3, 3) - Fraction(x) for x in a] + [raw_coeff(rng)] * rng.randrange(2)
    else:
        b = [raw_coeff(rng) for _ in range(rng.randrange(6))]
    if index % 5 == 0:
        b = []
    return a, b


def ref_of(raw: list) -> list[Fraction]:
    return ref_trim([Fraction(x) for x in raw])


REF_SCALARS = (0, 1, -3, True, False, Fraction(0), Fraction(6, 3), Fraction(-2, 3), Fraction(1, 2))
REF_POINTS = (0, 1, -2, Fraction(1, 2), Fraction(-3, 4))


def assert_matches(got: Poly, want: list[Fraction]) -> None:
    """got has the values want and canonical stored types, and its
    accessors hand out Fractions."""
    assert list(got.coeffs) == want, (got, want)
    assert_canonical(got)
    if got:
        assert type(got.leading()) is Fraction and got.leading() == want[-1]
    for i in range(-1, len(want) + 2):
        assert type(got[i]) is Fraction
        assert got[i] == (want[i] if 0 <= i < len(want) else 0)
    for x in REF_POINTS:
        value = got.evaluate(x)
        assert type(value) is Fraction and value == ref_evaluate(want, Fraction(x))


class TestCanonicalAgainstLists:
    def test_ring_operations(self):
        rng = random.Random(7129)
        seen = dict.fromkeys(("zero", "negative", "cancels", "fraction", "inexact"), 0)
        for index in range(300):
            ra, rb = raw_pair(rng, index)
            a, b = ref_of(ra), ref_of(rb)
            p, q = Poly(ra), Poly(rb)
            assert_matches(p, a)
            assert_matches(q, b)
            assert_matches(p + q, ref_add(a, b))
            assert_matches(p - q, ref_sub(a, b))
            assert_matches(q - p, ref_sub(b, a))
            assert_matches(-p, ref_scale(a, Fraction(-1)))
            assert_matches(p * q, ref_mul(a, b))
            assert_matches(p.derivative(), ref_derivative(a))
            for n in range(len(a), len(a) + 2):
                assert_matches(reciprocal(p, max(n - 1, 0)), ref_reciprocal(a, max(n - 1, 0)))
            if b:
                quot, rem = divmod(p, q)
                want_quot, want_rem = ref_divmod(a, b)
                assert_matches(quot, want_quot)
                assert_matches(rem, want_rem)
                seen["inexact"] += any(c.denominator > 1 for c in want_quot)
            fractional = any(c.denominator > 1 for c in a + b)
            seen["zero"] += not a or not b
            seen["negative"] += any(c < 0 for c in a + b)
            seen["fraction"] += fractional
            seen["cancels"] += fractional and bool(a + b) and all(
                c.denominator == 1 for c in ref_add(a, b)
            )
        assert min(seen.values()) >= 20, seen

    def test_scalars(self):
        rng = random.Random(7130)
        for index in range(100):
            ra, _ = raw_pair(rng, index)
            a, p = ref_of(ra), Poly(ra)
            for s in REF_SCALARS:
                fs = Fraction(s)
                assert_matches(p * s, ref_scale(a, fs))
                assert_matches(s * p, ref_scale(a, fs))
                assert_matches(p + s, ref_add(a, ref_of([s])))
                assert_matches(s - p, ref_sub(ref_of([s]), a))
                if s:
                    quot, rem = divmod(p, s)
                    assert_matches(quot, ref_scale(a, 1 / fs))
                    assert_matches(rem, [])

    def test_gcd_and_squarefree_part(self):
        rng = random.Random(7131)
        for index in range(150):
            ra, rb = raw_pair(rng, index)
            shared = [raw_coeff(rng) for _ in range(rng.randrange(3))] + [rng.choice((1, 2, 3))]
            a, b = ref_mul(ref_of(ra), ref_of(shared)), ref_mul(ref_of(rb), ref_of(shared))
            a = ref_mul(a, a) if index % 4 == 0 else a
            p, q = Poly(a), Poly(b)
            assert_matches(oracle_gcd(p, q), ref_gcd(a, b))
            assert_matches(oracle_squarefree_part(p), ref_squarefree_part(a))
            for f, _ in oracle_squarefree_decomposition(p):
                assert_canonical(f)

    def test_bool_and_integral_fraction_inputs(self):
        p = Poly([True, Fraction(4, 2), False, Fraction(1, 2)])
        assert p.coeffs == (1, 2, 0, Fraction(1, 2))
        assert [type(c) for c in p.coeffs] == [int, int, int, Fraction]
        assert_canonical(P(Fraction(1, 2)) + P(Fraction(1, 2)))
        assert (P(Fraction(1, 2)) + P(Fraction(1, 2))).coeffs == (1,)
        assert type((P(Fraction(3, 2)) * 2).coeffs[0]) is int
        assert divmod(P(1, 2), P(2))[0].coeffs == (Fraction(1, 2), 1)
        assert type(ONE.leading()) is Fraction and 1 / ONE.leading() == 1


def oracle_linear_combination(terms) -> Poly:
    """The summing loop that linear_combination replaced: one shifted,
    scaled and added Poly per term."""
    total = ZERO
    for c, p, shift in terms:
        total = total + p.times_x_power(shift) * c
    return total


def random_term(rng: random.Random) -> tuple:
    """A (c, p, shift) term: c an int, a bool, an integral or a proper
    Fraction or zero; p an integer, a Fraction or the zero polynomial."""
    kind = rng.randrange(6)
    if kind == 5:
        c = rng.choice((0, Fraction(0), False))
    elif kind == 4:
        c = True
    else:
        c = raw_coeff(rng)
    if rng.randrange(6) == 0:
        p = ZERO
    else:
        integral = rng.randrange(2)
        p = Poly(
            rng.randint(-5, 5) if integral else raw_coeff(rng)
            for _ in range(rng.randrange(1, 6))
        )
    return c, p, rng.randrange(5)


def random_term_lists(seed: int, count: int):
    """Seeded term lists: every tenth is empty, every seventh is followed
    by the negation of each of its terms, so its sum cancels to ZERO."""
    rng = random.Random(seed)
    for index in range(count):
        size = 0 if index % 10 == 0 else rng.randrange(1, 7)
        terms = [random_term(rng) for _ in range(size)]
        if index % 7 == 3:
            terms += [(-c, p, shift) for c, p, shift in terms]
            rng.shuffle(terms)
        yield terms


class TestLinearCombinationAgainstLoop:
    def test_random_term_lists(self):
        seen = dict.fromkeys(
            ("empty", "cancels", "bool", "fraction", "zero-c", "zero-p", "integral-sum"), 0
        )
        shifts = set()
        for terms in random_term_lists(seed=9001, count=600):
            want = oracle_linear_combination(terms)
            assert_same(linear_combination(terms), want)
            assert_same(linear_combination(iter(terms)), want)
            seen["empty"] += not terms
            seen["cancels"] += bool(terms) and not want
            seen["bool"] += any(type(c) is bool for c, _, _ in terms)
            seen["fraction"] += any(
                type(c) is Fraction and c.denominator > 1 for c, _, _ in terms
            )
            seen["zero-c"] += any(c == 0 for c, _, _ in terms)
            seen["zero-p"] += any(not p for _, p, _ in terms)
            seen["integral-sum"] += (
                bool(want)
                and any(type(c) is Fraction for _, p, _ in terms for c in p.coeffs)
                and all(type(c) is int for c in want.coeffs)
            )
            shifts.update(shift for _, _, shift in terms)
        assert min(seen.values()) >= 10, seen
        assert shifts == set(range(5))

    def test_float_coefficient_rejected(self):
        rng = random.Random(9002)
        for index in range(50):
            terms = [random_term(rng) for _ in range(rng.randrange(4))]
            _, p, shift = random_term(rng)
            c = 0.0 if index % 2 else 1.5
            terms.insert(rng.randrange(len(terms) + 1), (c, p, shift))
            with pytest.raises(TypeError):
                oracle_linear_combination(terms)
            with pytest.raises(TypeError):
                linear_combination(terms)

    def test_examples(self):
        assert_same(linear_combination([]), ZERO)
        assert_same(linear_combination([(2, ONE, 3), (-1, X, 0)]), P(0, -1, 0, 2))
        half = Fraction(1, 2)
        assert_same(linear_combination([(half, X, 1), (half, X, 1)]), P(0, 0, 1))
        assert_same(linear_combination([(1, P(1, 1), 0), (-1, P(1, 1), 0)]), ZERO)
        for c in (1, 0):
            with pytest.raises(ValueError):
                linear_combination([(c, ONE, -1)])


class TestSeriesNumeratorAgainstProduct:
    """series_numerator against the product it replaces: the series times
    (1-x)^d, cut to len(values) coefficients."""

    def test_random_values(self):
        rng = random.Random(9003)
        for _ in range(300):
            values = [
                rng.choice((rng.randrange(-9, 10), Fraction(rng.randrange(-9, 10), 3)))
                for _ in range(rng.randrange(8))
            ]
            d = rng.randrange(10)
            product = Poly(values) * Poly((1, -1)) ** d
            want = Poly(product.coeffs[: len(values)])
            assert_same(series_numerator(values, d), want)

    def test_worpitzky(self):
        # sum (t+1)^3 x^t = (1 + 4x + x^2) / (1-x)^4
        assert series_numerator([(t + 1) ** 3 for t in range(4)], 4) == P(1, 4, 1)
        assert series_numerator([], 3) == ZERO
        assert series_numerator([5, 7], 0) == P(5, 7)

    def test_invalid_input(self):
        with pytest.raises(ValueError, match="nonnegative"):
            series_numerator([1, 2], -1)
        with pytest.raises(TypeError):
            series_numerator([1, 0.5], 1)
