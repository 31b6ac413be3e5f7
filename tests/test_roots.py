"""Sturm counting, real rootedness and interlacing decisions."""

import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from eulerian_lab import roots as roots_module
from eulerian_lab import suites as suites_module
from eulerian_lab._intpoly import _cauchy_index, _int_poly, _sturm_chain
from eulerian_lab.poly import ONE, X, ZERO, Poly, reciprocal
from eulerian_lab.roots import (
    interlaces,
    interlacing_failures,
    interlacing_symmetric_decomposition,
    is_real_rooted,
)
from eulerian_lab.simplicial import (
    barycentric_f_triangle,
    colored_barycentric,
    derangement_transform,
    edgewise_subdivision,
    f_triangle,
    family_f_triangle,
    ft_lnk,
    ft_qnk,
)
from eulerian_lab.suites import (
    _row_verdicts,
    binomial_base,
    conjecture_cases,
    derangement_sample_cases,
    theorem1_sample_cases,
)
from eulerian_lab.transforms import (
    LinearTransform,
    apply_transform,
    dnk,
    eulerian,
    generic_hnk,
    generic_lnk,
    qnk,
)
from oracles import (
    is_interlacing_sequence,
    list_interlaces,
    oracle_derangement_sample_cases,
    oracle_gcd,
    oracle_interlaces,
    oracle_row_verdicts,
    oracle_squarefree_decomposition,
    oracle_squarefree_part,
    oracle_theorem1_sample_cases,
    sample_p_polynomial,
)


def P(*coeffs) -> Poly:
    return Poly(coeffs)


def distinct_real_roots(p: Poly) -> int:
    """The kernel's count of distinct real roots of a nonconstant p: the
    Cauchy index of its Sturm chain, which is_real_rooted compares with
    the number of distinct roots."""
    return _cauchy_index(_sturm_chain(_int_poly(p.coeffs)))


# Quadratics without a real root: (x - c)^2 + e with e > 0.
ROOT_FREE = (P(1, 0, 1), P(1, 1, 1), P(Fraction(37, 4), -6, 1), P(Fraction(1, 9), Fraction(2, 3), 2))


class TestSturmCounting:
    def test_full_line_count(self):
        # x^2 - 3x + 2 has roots 1 and 2
        assert distinct_real_roots(P(2, -3, 1)) == 2
        assert distinct_real_roots(P(1, 1, 1)) == 0

    def test_multiplicities_collapse(self):
        # distinct roots only: (x-1)^3 counts once
        assert distinct_real_roots(P(-1, 3, -3, 1)) == 1

    def test_random_products(self):
        """Counts on polynomials built from their roots, an oracle that
        shares no code with the Sturm kernel."""
        rng = random.Random(20231107)
        for _ in range(150):
            roots = {}
            for _ in range(rng.randint(1, 5)):
                roots[Fraction(rng.randint(-12, 12), rng.randint(1, 6))] = rng.randint(1, 3)
            p = P(rng.choice(ORACLE_LEADS))
            for r, m in roots.items():
                p = p * P(-r, 1) ** m
            for _ in range(rng.randrange(3)):
                p = p * rng.choice(ROOT_FREE) ** rng.randint(1, 2)
            assert distinct_real_roots(p) == len(roots), p
            assert is_real_rooted(p) == (p.deg() == sum(roots.values())), p

    def test_no_real_root(self):
        assert distinct_real_roots(ROOT_FREE[1] * ROOT_FREE[2] ** 2) == 0


class TestRealRooted:
    def test_classical_families(self):
        for n in range(9):
            assert is_real_rooted(eulerian(n))
        assert not is_real_rooted(P(1, 1, 1))
        assert not is_real_rooted(P(1, 0, 0, 1))  # one real root out of three

    def test_conventions(self):
        assert is_real_rooted(ZERO)
        assert is_real_rooted(ONE)
        assert is_real_rooted(X)

    def test_repeated_roots_allowed(self):
        assert is_real_rooted(P(1, 2, 1) * P(0, 0, 1))


class TestInterlaces:
    def test_zero_and_constant_conventions(self):
        assert interlaces(ZERO, P(1, 1))
        assert interlaces(P(1, 1), ZERO)
        assert not interlaces(ZERO, P(1, 1, 1))  # zero only pairs with real rooted
        assert interlaces(ONE, P(1, 1))
        assert interlaces(ONE, P(3))
        assert not interlaces(ONE, P(2, -3, 1))  # degree 2 above a constant

    def test_simple_alternation(self):
        # roots -2 vs -3, -1: (x+2) interlaces (x+3)(x+1)
        assert interlaces(P(2, 1), P(3, 4, 1))
        assert not interlaces(P(4, 1), P(3, 4, 1))  # -4 outside (-3, -1)

    def test_degree_gap_rejected(self):
        assert not interlaces(P(1, 1), P(0, 0, 0, 1))

    def test_shared_and_repeated_roots(self):
        # regression: endpoint of an isolating interval can carry the other
        # factor's root; (1+x)^2 | x(1+x) | x^2 is a valid chain
        assert interlaces(P(1, 2, 1), P(0, 1, 1))
        assert interlaces(P(0, 1, 1), P(0, 0, 1))
        assert not interlaces(P(1, 2, 1), P(0, 0, 1))

    def test_equal_polys_interlace(self):
        p = P(3, 4, 1)
        assert interlaces(p, p)

    def test_non_real_rooted_refused(self):
        assert not interlaces(P(1, 1, 1), P(1, 1, 1, 1))

    def test_eulerian_chain(self):
        for n in range(1, 8):
            assert interlaces(eulerian(n), eulerian(n + 1))
        # pairwise, not just consecutive
        assert is_interlacing_sequence([qnk(4, k) for k in range(5)])
        # a constant cannot sit below degree 2, so this family is not
        # pairwise interlacing even though consecutive members are
        assert not is_interlacing_sequence([eulerian(n) for n in range(1, 7)])

    def test_failure_pairs(self):
        seq = [P(1, 2, 1), P(0, 1, 1), P(0, 0, 1)]
        assert interlacing_failures(seq) == [(0, 2)]


def root_list_interlaces(a_roots, b_roots) -> bool:
    """Reference decision on the root multisets of nonconstant p and q,
    with None for a polynomial that has a root off the real line."""
    if a_roots is None or b_roots is None:
        return False
    return list_interlaces(sorted(a_roots, reverse=True), sorted(b_roots, reverse=True))


ORACLE_ROOTS = sorted({Fraction(a, b) for a in range(-3, 4) for b in (1, 2, 3)})
ORACLE_LEADS = (1, -1, 2, Fraction(-3, 2), Fraction(2, 3))
NON_REAL = P(1, 1, 1)
IRRATIONAL = (P(-2, 0, 1), P(1, 3, 1))  # roots +-sqrt 2 and (-3 +- sqrt 5)/2

# The root list of each factor without rational roots: None for NON_REAL,
# and for an IRRATIONAL factor one rational stand-in per root, between the
# same two consecutive ORACLE_ROOTS as the root.  A stand-in then compares
# with every oracle root and every other stand-in as its root does, which
# is all an alternation reads (test_stand_ins_keep_the_order_of_the_roots).
FACTOR_ROOTS = {
    NON_REAL: None,
    IRRATIONAL[0]: [Fraction(-17, 12), Fraction(17, 12)],
    IRRATIONAL[1]: [Fraction(-21, 8), Fraction(-5, 12)],
}


def with_factor(roots, factor_roots):
    return None if roots is None or factor_roots is None else roots + factor_roots


def from_roots(roots, lead=1) -> Poly:
    p = P(lead)
    for r in roots:
        p = p * P(-r, 1)
    return p


def random_pair(rng: random.Random):
    """A pair (p, q) with deg q - deg p in {0, 1, 2} before an occasional
    swap, with the root lists [a_roots, b_roots] it was built from.

    Most pairs start from one sorted list dealt out alternately, so
    they interlace until a perturbation or an extra factor breaks them."""
    gap = rng.choice((0, 1, 2))
    m = rng.randint(1, 4)
    if rng.random() < 0.6 and gap < 2:
        merged = sorted((rng.choice(ORACLE_ROOTS) for _ in range(2 * m + gap)), reverse=True)
        b_roots, a_roots = merged[::2], merged[1::2]
        if rng.random() < 0.3:
            a_roots[rng.randrange(m)] = rng.choice(ORACLE_ROOTS)
    else:
        a_roots = [rng.choice(ORACLE_ROOTS) for _ in range(m)]
        b_roots = [rng.choice(ORACLE_ROOTS) for _ in range(m + gap)]
    p = from_roots(a_roots, rng.choice(ORACLE_LEADS))
    q = from_roots(b_roots, rng.choice(ORACLE_LEADS))
    roots = [a_roots, b_roots]
    roll = rng.random()
    if roll < 0.2:
        r = rng.choice(ORACLE_ROOTS)
        linear = P(-r, 1)
        common, common_roots = rng.choice(
            [(f, FACTOR_ROOTS[f]) for f in IRRATIONAL + (NON_REAL,)]
            + [(linear, [r]), (linear**2, [r, r])]
        )
        p, q = p * common, q * common
        roots = [with_factor(rs, common_roots) for rs in roots]
    elif roll < 0.35:
        extra = rng.choice((NON_REAL,) + IRRATIONAL)
        side = 0 if rng.random() < 0.5 else 1
        p, q = (p * extra, q) if side == 0 else (p, q * extra)
        roots[side] = with_factor(roots[side], FACTOR_ROOTS[extra])
    elif roll < 0.45:
        r, k = rng.choice(ORACLE_ROOTS), rng.choice((2, 3))
        side = 0 if rng.random() < 0.5 else 1
        power = P(-r, 1) ** k
        p, q = (p * power, q) if side == 0 else (p, q * power)
        roots[side] = roots[side] + [r] * k
    if rng.random() < 0.1:
        p, q, roots = q, p, roots[::-1]
    return p, q, roots


class TestInterlacesAgainstRootLists:
    def test_stand_ins_keep_the_order_of_the_roots(self):
        # each stand-in sits in a gap between consecutive oracle roots where
        # its factor changes sign, and no two stand-ins share a gap; a
        # quadratic has two roots, so each gap holds exactly one of them
        gaps = []
        for factor in IRRATIONAL:
            stand_ins = FACTOR_ROOTS[factor]
            assert len(stand_ins) == factor.deg()
            for s in stand_ins:
                lo = max(r for r in ORACLE_ROOTS if r < s)
                hi = min(r for r in ORACLE_ROOTS if r > s)
                assert factor.evaluate(lo) * factor.evaluate(hi) < 0, (factor, s)
                gaps.append((lo, hi))
        assert len(set(gaps)) == len(gaps)
        # e.g. sqrt 2: 1 < 2 < (3/2)^2 and 1 < 17/12 < 3/2
        assert gaps[1] == (1, Fraction(3, 2))

    def test_random_pairs_match_oracle(self):
        rng = random.Random(20230201)
        seen = dict.fromkeys(
            ("shared", "repeated", "non-real", "non-integer", "lead+", "lead-",
             "gap0", "gap1", "gap2", "true", "false"), 0)
        for _ in range(400):
            p, q, roots = random_pair(rng)
            expected = root_list_interlaces(*roots)
            assert interlaces(p, q) == expected, (p, q)
            seen["true" if expected else "false"] += 1
            seen["shared"] += oracle_gcd(p, q).deg() > 0
            seen["repeated"] += any(oracle_squarefree_part(f).deg() < f.deg() for f in (p, q))
            seen["non-real"] += not (is_real_rooted(p) and is_real_rooted(q))
            seen["non-integer"] += any(c.denominator > 1 for f in (p, q) for c in f)
            seen["lead+"] += p.leading() > 0
            seen["lead-"] += p.leading() < 0
            if q.deg() - p.deg() in (0, 1, 2):
                seen[f"gap{q.deg() - p.deg()}"] += 1
        assert min(seen.values()) >= 20, seen

    def test_binomial_counterexample(self):
        hs = binomial_base(2)
        half = Fraction(-1, 2)
        for row, roots in (
            # (1+x)^2, (1+x)(1+2x), (1+2x)^2
            ([generic_hnk(hs, 2, k) for k in range(3)], ([-1, -1], [-1, half], [half, half])),
            # (1+x)^2, x(1+x), x^2
            ([generic_lnk(hs, 2, k) for k in range(3)], ([-1, -1], [-1, 0], [0, 0])),
        ):
            assert row == [from_roots(r, f.leading()) for r, f in zip(roots, row)]
            assert interlacing_failures(row) == [(0, 2)]
            for i in range(3):
                for j in range(3):
                    assert interlaces(row[i], row[j]) == root_list_interlaces(roots[i], roots[j])

    def test_pinned_pairs(self):
        x2, x1sq = P(0, 0, 1), P(1, -2, 1)
        assert not interlaces(x2, x1sq) and not interlaces(x1sq, x2)
        assert not root_list_interlaces([0, 0], [1, 1])
        # x^2 (x-1) below x (x-1)^2: roots 1, 0, 0 against 1, 1, 0
        p, q = x2 * P(-1, 1), P(0, 1) * x1sq
        assert interlaces(p, q) and root_list_interlaces([1, 0, 0], [1, 1, 0])
        assert not interlaces(q, p) and not root_list_interlaces([1, 1, 0], [1, 0, 0])
        # triple roots: W = -3x^2 (x-1)^2 <= 0, but 0, 0, 0 against 1, 1, 1
        # does not alternate; the Cauchy index of x^3 / (x-1)^3 is 1, not 3
        cube, shifted = P(0, 0, 0, 1), P(-1, 3, -3, 1)
        assert not interlaces(cube, shifted) and not root_list_interlaces([0, 0, 0], [1, 1, 1])
        for f in (P(3, 4, 1), x2, P(-1, 3, -3, 1), P(1, 0, 1)):
            assert interlaces(f, f) == is_real_rooted(f)
            assert interlaces(f, -f * 2) == is_real_rooted(f)


def oracle_interlaces_wronskian(p: Poly, q: Poly) -> bool:
    """The Wronskian route to the interlacing decision, the reference that
    interlaces is compared against.

    After the same checks on degrees and real rootedness, both polynomials
    are divided by g = gcd(p, q); a quotient with a repeated root means some
    root has multiplicities in p and q that differ by two or more (Fisk).
    Otherwise, with both leading coefficients made positive, p interlaces q
    exactly when the Wronskian W = p'q - pq' of the quotients is <= 0 on
    the real line (Braenden): W is zero, or W has even degree, a negative
    leading coefficient and no real root of odd multiplicity.  The gcd and
    the squarefree factors come from the Fraction routines of
    ``oracles``; only the root count of each factor is read off a
    Sturm chain.
    """
    if p.is_zero():
        return is_real_rooted(q)
    if q.is_zero():
        return is_real_rooted(p)
    if p.deg() == 0:
        return q.deg() <= 1
    if q.deg() - p.deg() not in (0, 1):
        return False
    if not (is_real_rooted(p) and is_real_rooted(q)):
        return False
    g = oracle_gcd(p, q)
    f, h = p.exact_div(g), q.exact_div(g)
    if any(oracle_gcd(u, u.derivative()).deg() > 0 for u in (f, h)):
        return False
    if f.leading() < 0:
        f = -f
    if h.leading() < 0:
        h = -h
    w = f.derivative() * h - f * h.derivative()
    if w.is_zero():
        return True
    if w.deg() % 2 or w.leading() > 0:
        return False
    return all(
        distinct_real_roots(factor) == 0
        for factor, mult in oracle_squarefree_decomposition(w)
        if mult % 2
    )


def agreement_pair(rng: random.Random):
    """A pair (p, q) built from rational roots, with the root multisets it
    was built from (None where a factor with irrational or non real roots
    or a constant shift was added).

    deg q - deg p is -1, 0, 1 or 2.  Most pairs start from one sorted list
    dealt out alternately, so they interlace until a moved root, an extra
    or shared power of a linear factor, a factor without rational roots, a
    zero or constant member, or a swap breaks them."""
    gap = rng.choice((-1, 0, 1, 2))
    m = rng.randint(1, 4)
    dp, dq = m + max(0, -gap), m + max(0, gap)
    if rng.random() < 0.6 and abs(dq - dp) <= 1:
        merged = sorted((rng.choice(ORACLE_ROOTS) for _ in range(dp + dq)), reverse=True)
        b_roots, a_roots = (merged[::2], merged[1::2]) if dq >= dp else (merged[1::2], merged[::2])
        if rng.random() < 0.3:
            a_roots[rng.randrange(len(a_roots))] = rng.choice(ORACLE_ROOTS)
    else:
        a_roots = [rng.choice(ORACLE_ROOTS) for _ in range(dp)]
        b_roots = [rng.choice(ORACLE_ROOTS) for _ in range(dq)]
    roll = rng.random()
    if roll < 0.2:
        # a power of a linear factor on one side, often at a root of the
        # other, so a shared root gets a multiplicity gap of 1, 2 or 3
        r = rng.choice(a_roots + b_roots + [rng.choice(ORACLE_ROOTS)])
        k = rng.choice((1, 2, 2))
        if rng.random() < 0.5:
            a_roots += [r] * k
        else:
            b_roots += [r] * k
    elif roll < 0.35:
        shared = [rng.choice(ORACLE_ROOTS)] * rng.randint(1, 2)
        a_roots, b_roots = a_roots + shared, b_roots + shared
    p = from_roots(a_roots, rng.choice(ORACLE_LEADS))
    q = from_roots(b_roots, rng.choice(ORACLE_LEADS))
    roots = [a_roots, b_roots]
    roll = rng.random()
    if roll < 0.1:
        common = rng.choice(IRRATIONAL + (NON_REAL,))
        p, q, roots = p * common, q * common, [None, None]
    elif roll < 0.2:
        side = rng.randrange(2)
        extra = rng.choice((NON_REAL,) + IRRATIONAL)
        if side:
            q = q * extra
        else:
            p = p * extra
        roots[side] = None
    elif roll < 0.25:
        # a small constant shift, which often pushes two roots off the line
        side = rng.randrange(2)
        shift = Fraction(rng.choice((-1, 1)), rng.choice((8, 64)))
        if side:
            q = q + shift
        else:
            p = p + shift
        roots[side] = None
    elif roll < 0.3:
        p, roots[0] = ZERO, []
    elif roll < 0.35:
        p, roots[0] = P(rng.choice(ORACLE_LEADS)), []
    elif roll < 0.38:
        q, roots[1] = ZERO, []
    if p.deg() == q.deg() and rng.random() < 0.5:
        p, q, roots = q, p, roots[::-1]
    return p, q, roots


class TestInterlacesAgainstWronskian:
    def test_random_pairs_agree(self):
        rng = random.Random(20231110)
        seen = dict.fromkeys(
            ("true", "false", "shared", "mult-gap-1", "mult-gap-2", "lead-", "non-integer",
             "gap-1", "gap0", "gap1", "gap2", "non-real", "zero", "constant"),
            0,
        )
        disagreements = []
        pairs = 6000
        for _ in range(pairs):
            p, q, roots = agreement_pair(rng)
            expected = oracle_interlaces_wronskian(p, q)
            if interlaces(p, q) != expected:
                disagreements.append((p, q))
            seen["true" if expected else "false"] += 1
            if None not in roots:
                a, b = (Counter(r) for r in roots)
                gaps = {abs(a[r] - b[r]) for r in a.keys() & b.keys()}
                seen["shared"] += bool(gaps)
                seen["mult-gap-1"] += 1 in gaps
                seen["mult-gap-2"] += any(d >= 2 for d in gaps)
            seen["lead-"] += any(f and f.leading() < 0 for f in (p, q))
            seen["non-integer"] += any(c.denominator > 1 for f in (p, q) for c in f)
            if not (p.is_zero() or q.is_zero()):
                gap = q.deg() - p.deg()
                if gap in (-1, 0, 1, 2):
                    seen[f"gap{gap}"] += 1
            seen["non-real"] += not (is_real_rooted(p) and is_real_rooted(q))
            seen["zero"] += p.is_zero() or q.is_zero()
            seen["constant"] += p.deg() == 0 or q.deg() == 0
        assert disagreements == [], f"{len(disagreements)} of {pairs} pairs disagree"
        assert min(seen.values()) >= 100, seen

    @pytest.mark.parametrize("c", [-1, -2, Fraction(-1, 3)])
    def test_negative_multiple(self, c):
        # p = c q shares every root with q, so the Cauchy index is 0 and
        # so is deg(q / gcd); a negative c changes no verdict
        for q in (P(3, 4, 1), P(0, 0, 1), P(-1, 3, -3, 1), P(2, -3, 1) * P(0, 1) ** 2,
                  P(1, 0, 1), P(1, 1, 1) * P(2, 1)):
            expected = is_real_rooted(q)
            assert interlaces(q * c, q) == interlaces(q, q * c) == expected, (c, q)
            assert oracle_interlaces_wronskian(q * c, q) == expected, (c, q)
            assert oracle_interlaces_wronskian(q, q * c) == expected, (c, q)

    def test_esd_zero_member_row(self):
        # the alternating row of the built esd r = 2, n = 5 triangulation,
        # which ends in 0, decided pair by pair in both orientations
        triangle = f_triangle(edgewise_subdivision(5, 2))
        row = [ft_lnk(triangle, 5, k) for k in range(6)]
        for i, p in enumerate(row):
            for j, q in enumerate(row):
                assert interlaces(p, q) == oracle_interlaces_wronskian(p, q), (i, j)
        assert oracle_interlacing_failures(row) == [(0, 3), (0, 4)]


X2_PLUS_1 = P(1, 0, 1)


def fused_pair(rng: random.Random):
    """A pair from agreement_pair, often given a shared x^2 + 1 factor or
    replaced by p = c*q, so that the last entry g of the remainder sequence
    is not real rooted while the index equality can still hold.  Returns
    (p, q, kind) with kind "shared-x2+1", "multiple" or "plain"."""
    p, q, _ = agreement_pair(rng)
    roll = rng.random()
    if roll < 0.12 and not (p.is_zero() or q.is_zero()):
        return p * X2_PLUS_1, q * X2_PLUS_1, "shared-x2+1"
    if roll < 0.24 and q.deg() >= 1:
        if rng.random() < 0.5:
            q = q * rng.choice((X2_PLUS_1, NON_REAL))
        return q * rng.choice((3, -1, Fraction(-2, 3))), q, "multiple"
    return p, q, "plain"


class TestFusedDecision:
    """interlaces reads real rootedness off its one remainder sequence;
    oracle_interlaces checks both members by a Sturm chain first."""

    def test_random_pairs_agree_with_the_pre_checked_route(self):
        rng = random.Random(20261019)
        seen = dict.fromkeys(
            ("true", "false", "shared-real-roots", "shared-x2+1", "multiple-non-real",
             "zero", "constant", "gap0", "gap1", "gap2", "g-deg>=2", "index-holds-g-not-rr"),
            0,
        )
        disagreements = []
        pairs = 3000
        for _ in range(pairs):
            p, q, kind = fused_pair(rng)
            verdict = interlaces(p, q)
            expected = oracle_interlaces(p, q)
            if verdict != expected:
                disagreements.append((p, q))
            # a True verdict is a certificate that both members are real rooted
            assert not verdict or (is_real_rooted(p) and is_real_rooted(q)), (p, q)
            seen["true" if expected else "false"] += 1
            seen["shared-x2+1"] += kind == "shared-x2+1"
            seen["multiple-non-real"] += kind == "multiple" and not is_real_rooted(q)
            seen["zero"] += p.is_zero() or q.is_zero()
            seen["constant"] += p.deg() == 0 or q.deg() == 0
            if p.is_zero() or q.is_zero():
                continue
            gap = q.deg() - p.deg()
            if gap in (0, 1, 2):
                seen[f"gap{gap}"] += 1
            g = oracle_gcd(p, q)
            seen["shared-real-roots"] += g.deg() >= 1 and distinct_real_roots(g) >= 1
            seen["g-deg>=2"] += g.deg() >= 2
            if gap in (0, 1) and p.deg() >= 1:
                index_holds = oracle_interlaces(p.exact_div(g), q.exact_div(g))
                seen["index-holds-g-not-rr"] += index_holds and not is_real_rooted(g)
        assert disagreements == [], f"{len(disagreements)} of {pairs} pairs disagree"
        assert min(seen.values()) >= 50, seen

    def test_named_cases(self):
        x = P(0, 1)
        cases = {
            # shared real roots: g = (x - 1)(x + 1) needs its own Sturm chain
            "shared-real-roots": (P(-1, 0, 1), P(-1, 0, 1) * P(-2, 1), True),
            "shared-double-root": (P(-1, 1) ** 2, P(-1, 1) ** 2 * x, True),
            # the index equality holds on the cofactors 1 and x, g does not
            # have real roots
            "shared-x2+1": (P(1, 1) * X2_PLUS_1, x * P(1, 1) * X2_PLUS_1, False),
            "shared-x2+x+1": (P(-1, 1) * NON_REAL, P(-1, 1) * P(2, 1) * NON_REAL, False),
            "multiple-non-real": (X2_PLUS_1 * 3, X2_PLUS_1, False),
            "negative-multiple-non-real": (NON_REAL * P(2, 1) * -2, NON_REAL * P(2, 1), False),
            "multiple-real-rooted": (P(-1, 1) ** 2 * -2, P(-1, 1) ** 2, True),
            "zero-below-real-rooted": (ZERO, P(-1, 1) ** 2, True),
            "zero-below-non-real": (ZERO, X2_PLUS_1, False),
            "non-real-above-zero": (X2_PLUS_1, ZERO, False),
            "constant-below-linear": (P(2), P(1, 1), True),
            "constant-below-quadratic": (P(2), P(-1, 0, 1), False),
            "gap0": (P(-1, 1) * P(1, 1), P(-2, 1) * P(1, 1), True),
            "gap1": (P(-1, 1), P(-2, 1) * x, True),
            "gap2": (P(1), P(-1, 0, 1), False),
            "gap2-nonconstant": (P(-1, 1), P(-1, 1) * P(-2, 1) * x, False),
            "degree-drop": (P(-2, 1) * x, P(-1, 1), False),
        }
        for name, (p, q, expected) in cases.items():
            assert interlaces(p, q) == expected, name
            assert oracle_interlaces(p, q) == expected, name

    def test_one_remainder_sequence_per_decision(self, monkeypatch):
        # one sequence q, p, -rem(q, p), ...; a Sturm chain on its last
        # entry g only when deg g >= 2 and the index equality holds; no
        # real rootedness check on p or q
        counts = Counter()

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        for name in ("_signed_remainders", "_sturm_chain", "is_real_rooted"):
            monkeypatch.setattr(roots_module, name, counted(name, getattr(roots_module, name)))
        rng = random.Random(7)
        decided = chained = 0
        for _ in range(800):
            p, q, _ = fused_pair(rng)
            if p.deg() < 1 or q.deg() - p.deg() not in (0, 1):
                continue
            counts.clear()
            verdict = interlaces(p, q)
            calls = dict(counts)
            g = oracle_gcd(p, q)
            index_holds = oracle_interlaces(p.exact_div(g), q.exact_div(g))
            assert calls.get("is_real_rooted", 0) == 0
            assert calls["_signed_remainders"] == 1
            assert calls.get("_sturm_chain", 0) == (index_holds and g.deg() >= 2), (p, q)
            assert verdict == (index_holds and is_real_rooted(g))
            decided += 1
            chained += calls.get("_sturm_chain", 0)
        assert decided >= 300 and chained >= 20, (decided, chained)


def row_cases():
    """Rows of the conjecture's additive and alternating sequences, passing
    and failing, with their labels."""
    triangles = [(f"barycentric-{n}", family_f_triangle("barycentric", n)) for n in range(9)]
    triangles += [(f"colored-r2-{n}", family_f_triangle("colored", n, 2)) for n in range(7)]
    triangles += [(f"esd-r3-{n}", family_f_triangle("esd", n, 3)) for n in range(10)]
    for label, triangle in triangles:
        n = triangle.n
        yield f"{label}-q", [ft_qnk(triangle, n, k) for k in range(n + 1)]
        yield f"{label}-l", [ft_lnk(triangle, n, k) for k in range(n + 1)]
    for n in range(7):
        hs = binomial_base(n)
        yield f"generic-binomial-{n}-h", [generic_hnk(hs, n, k) for k in range(n + 1)]
        yield f"generic-binomial-{n}-l", [generic_lnk(hs, n, k) for k in range(n + 1)]
    # members without real roots, in rows of one, two and three
    yield "non-real-single", [X2_PLUS_1]
    yield "non-real-pair", [X2_PLUS_1, X2_PLUS_1]
    yield "non-real-last", [P(1, 1), P(-1, 0, 1), X2_PLUS_1 * P(1, 1)]


class TestRowVerdicts:
    def test_real_rooted_list_read_off_a_row(self):
        seen = Counter()
        for label, row in row_cases():
            rr, fails = _row_verdicts(row)
            assert (rr, fails) == oracle_row_verdicts(row), label
            seen["failing" if fails else "passing"] += 1
            seen["non-real"] += not all(rr)
        assert seen["failing"] >= 5 and seen["passing"] >= 20 and seen["non-real"] >= 3, seen


class TestScale:
    def test_barycentric_n20_conjecture_passes(self):
        # rows of degree 20 with wide coefficients, twice the size that the
        # acceptance loop reaches; each decision is one remainder sequence
        cases, summary = conjecture_cases(barycentric_f_triangle(20))
        assert summary["hypothesis"] is True
        assert [c.name for c in cases if not c.ok] == []


def oracle_interlacing_failures(polys) -> list[tuple[int, int]]:
    """Every pair decided on its own: the route interlacing_failures takes
    when the chain lemma does not certify the row."""
    out = []
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            if not interlaces(polys[i], polys[j]):
                out.append((i, j))
    return out


def chain_decisions_pass(row) -> bool:
    """The n + 1 decisions of the chain lemma, without its hypotheses."""
    n = len(row) - 1
    return interlaces(row[0], row[n]) and all(
        interlaces(row[i], row[i + 1]) for i in range(n)
    )


def paper_rows():
    """The rows the suites check: q and d for n <= 9, and the additive and
    alternating rows of barycentric, built esd and built colored
    f-triangles."""
    for n in range(10):
        yield f"qnk-{n}", [qnk(n, k) for k in range(n + 1)]
        yield f"dnk-{n}", [dnk(n, k) for k in range(n + 1)]
    triangles = [(f"barycentric-{n}", barycentric_f_triangle(n)) for n in range(11)]
    for r in (2, 3):
        triangles += [(f"esd-r{r}-{n}", f_triangle(edgewise_subdivision(n, r))) for n in range(6)]
    triangles += [(f"colored-r2-{n}", f_triangle(colored_barycentric(n, 2))) for n in range(5)]
    for label, triangle in triangles:
        n = triangle.n
        yield f"{label}-ft_qnk", [ft_qnk(triangle, n, k) for k in range(n + 1)]
        yield f"{label}-ft_lnk", [ft_lnk(triangle, n, k) for k in range(n + 1)]


GRID = tuple(Fraction(k, 2) for k in range(-8, 9))
POSITIVE_LEADS = (1, 2, 3, Fraction(1, 2), Fraction(3, 2))


def chain_roots(rng: random.Random) -> list[list[Fraction]]:
    """Descending root lists of a row whose consecutive members interlace,
    on a half integer grid.

    Each member's roots e_1 >= e_2 >= ... sit between those of the one
    before, e_k >= c_k >= e_(k+1), so a degree step is 0 or 1; roots often
    stay put, which gives shared roots, and a coarse grid gives repeated
    ones.  Small steps keep the outer pair interlacing in many rows, so the
    chain lemma is put to work and not only its fallback.
    """
    roots = sorted((rng.choice(GRID) for _ in range(rng.randint(1, 3))), reverse=True)
    row = [roots]
    for _ in range(rng.randint(2, 5)):
        upper = [GRID[-1]] + roots  # e_k lies in [c_k, c_(k-1)]
        new = []
        for k, c in enumerate(roots):
            if rng.random() < 0.5:
                new.append(c)
            else:
                new.append(rng.choice([g for g in GRID if c <= g <= upper[k]]))
        if rng.random() < 0.2:
            new.append(rng.choice([g for g in GRID if g <= roots[-1]]))
        roots = new
        row.append(roots)
    return row


def random_row(rng: random.Random) -> list[Poly]:
    """A chain row, or one of independent members, often spoiled by a moved
    root, a zero member, a constant, a sign flip, a factor without real
    roots or a swap."""
    if rng.random() < 0.15:
        d = rng.randint(1, 3)
        roots = [
            [rng.choice(GRID) for _ in range(d + rng.randint(0, 1))]
            for _ in range(rng.randint(3, 6))
        ]
    else:
        roots = chain_roots(rng)
    if rng.random() < 0.1:
        moved = list(rng.choice(roots))
        moved[rng.randrange(len(moved))] = rng.choice(GRID)
        roots[rng.randrange(len(roots))] = moved
    row = [from_roots(r, rng.choice(POSITIVE_LEADS)) for r in roots]
    roll = rng.random()
    i = rng.randrange(len(row))
    if roll < 0.15:
        row[rng.choice((i, -1))] = ZERO
    elif roll < 0.23:
        row[i] = P(rng.choice((1, -2, Fraction(1, 3))))
    elif roll < 0.33:
        row[i] = -row[i]
    elif roll < 0.39:
        row[i] = row[i] * NON_REAL
    elif roll < 0.45:
        j = rng.randrange(len(row))
        row[i], row[j] = row[j], row[i]
    return row


class TestInterlacingSequences:
    """interlacing_failures against the all-pairs oracle."""

    def test_paper_rows_match_oracle(self):
        outcomes = set()
        for label, row in paper_rows():
            expected = oracle_interlacing_failures(row)
            assert interlacing_failures(row) == expected, label
            outcomes.add(bool(expected))
        assert outcomes == {True, False}

    def test_random_rows_match_oracle(self):
        rng = random.Random(20231109)
        seen = dict.fromkeys(
            ("certified", "certified-shared", "certified-repeated", "certified-degree-step",
             "failing", "zero", "constant", "lead-", "non-real", "decisions-pass-row-fails"),
            0,
        )
        for _ in range(600):
            row = random_row(rng)
            expected = oracle_interlacing_failures(row)
            assert interlacing_failures(row) == expected, row
            assert is_interlacing_sequence(row) == (not expected), row
            seen["failing"] += bool(expected)
            seen["zero"] += any(p.is_zero() for p in row)
            seen["constant"] += any(p.deg() == 0 for p in row)
            seen["lead-"] += any(p and p.leading() < 0 for p in row)
            seen["non-real"] += not all(is_real_rooted(p) for p in row)
            if not chain_decisions_pass(row):
                continue
            if expected:
                # the chain lemma leaves only one way for the n + 1
                # decisions to pass on a failing row
                assert any(p.is_zero() for p in row), row
                seen["decisions-pass-row-fails"] += 1
            elif all(p.deg() >= 1 and p.leading() > 0 for p in row):
                seen["certified"] += 1
                seen["certified-shared"] += any(
                    oracle_gcd(p, q).deg() > 0 for p, q in zip(row, row[1:])
                )
                seen["certified-repeated"] += any(
                    oracle_squarefree_part(p).deg() < p.deg() for p in row
                )
                seen["certified-degree-step"] += row[0].deg() < row[-1].deg()
        assert min(seen.values()) >= 10, seen

    def test_zero_member_row(self):
        # the alternating row of the built esd r = 2, n = 5 triangulation
        # ends in 0: the chain and the outer pair pass, two pairs do not
        triangle = f_triangle(edgewise_subdivision(5, 2))
        row = [ft_lnk(triangle, 5, k) for k in range(6)]
        assert row[-1] == ZERO
        assert chain_decisions_pass(row)
        assert interlacing_failures(row) == [(0, 3), (0, 4)]
        assert not is_interlacing_sequence(row)


class TestDecompositionVerdict:
    def test_reversed_q42(self):
        # reversal of 1 + 13x + 20x^2 + 4x^3 in window 4 decomposes with
        # nonnegative parts 3x + 10x^2 + 3x^3 and 1 + 10x + 10x^2 + x^3
        f = reciprocal(qnk(4, 2), 4)
        verdict = interlacing_symmetric_decomposition(f, 4)
        assert verdict.nonnegative
        assert verdict.real_rooted_pair
        assert verdict.interlacing
        assert verdict.unimodal_pair and verdict.gamma_positive_pair
        assert verdict.a == P(0, 3, 10, 3)
        assert verdict.b == P(1, 10, 10, 1)

    def test_gamma_flags_on_symmetric_input(self):
        p = eulerian(4)
        verdict = interlacing_symmetric_decomposition(p, 3)
        assert verdict.a == p and verdict.b == ZERO
        assert verdict.interlacing

    def test_negative_split_reported(self):
        # q_{4,2} itself splits with a negative b part in window 4
        verdict = interlacing_symmetric_decomposition(qnk(4, 2), 4)
        assert not verdict.nonnegative

    def test_equivalent_routes_agree_on_sample_images(self):
        """The routes that interlacing_symmetric_decomposition no longer
        runs: for a nonnegative split p = a + x b, b interlacing a is
        equivalent to a interlacing p, to b interlacing p and to the
        reversal of p interlacing p, and it forces p to be real rooted."""
        inputs = []
        for n in range(2, 9):
            for c in theorem1_sample_cases(n, 3, n):
                inputs.append((Poly.from_text(c.detail.split("image ")[1].split(";")[0]), n))
            for c in derangement_sample_cases(n, 3, n):
                image = Poly.from_text(c.detail.split("image ")[1].split(";")[0])
                inputs.append((reciprocal(image, n), n))
            # x s for s in the cone of A_n, A_n + A_(n-1), A_n + 2A_(n-1) + A_(n-2)
            a, a1, a2 = eulerian(n), eulerian(n - 1), eulerian(n - 2)
            cone = (a, a + a1, a + 2 * a1 + a2)
            rng = random.Random(n)
            for _ in range(3):
                weights = [Fraction(rng.randrange(100), rng.randrange(1, 10)) for _ in cone]
                inputs.append((X * sum((w * g for w, g in zip(weights, cone)), ZERO), n))
        # random nonnegative splits, most of which do not interlace
        rng = random.Random(20231108)
        while len(inputs) < 200:
            n = rng.randint(1, 7)
            p = Poly([rng.randint(0, 20) for _ in range(n + 1)])
            if p and interlacing_symmetric_decomposition(p, n).nonnegative:
                inputs.append((p, n))
        seen = set()
        for p, n in inputs:
            verdict = interlacing_symmetric_decomposition(p, n)
            assert verdict.nonnegative, p
            seen.add(verdict.interlacing)
            routes = (
                verdict.interlacing,
                interlaces(verdict.a, p),
                interlaces(verdict.b, p),
                interlaces(reciprocal(p, n), p),
            )
            assert len(set(routes)) == 1, (p, n, routes)
            assert is_real_rooted(p) or not verdict.interlacing, p
        assert seen == {True, False}

    def test_window_too_small(self):
        with pytest.raises(ValueError):
            interlacing_symmetric_decomposition(P(1, 1, 1, 1), 2)

    def test_unimodality_and_gamma_are_decided_when_read(self, monkeypatch):
        calls = Counter()
        for name in ("is_unimodal", "is_gamma_positive"):
            real = getattr(roots_module, name)

            def counted(*args, real=real, name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(roots_module, name, counted)
        derangement_sample_cases(6, 5, 1)
        assert not calls
        verdict = interlacing_symmetric_decomposition(reciprocal(qnk(4, 2), 4), 4)
        assert not calls
        assert verdict.unimodal_pair and verdict.gamma_positive_pair
        assert verdict.unimodal_pair and verdict.gamma_positive_pair
        assert calls == {"is_unimodal": 2, "is_gamma_positive": 2}


# Images that fail exactly one gate of a sample suite, with the gate and
# whether the theorem1 bounds are replaced by zero.  real_rooted_pair follows
# from interlacing, and unimodal_pair and gamma_positive_pair from
# nonnegative real-rooted palindromic parts, so no image fails one of them
# alone.  Between the true theorem1 bounds no image of degree <= 3 with
# coefficients in -4..12 fails only nonnegative or only interlacing; with
# zero bounds, which interlace every real-rooted polynomial, interlacing
# fails alone.
ONE_GATE_FAILURES = [
    ("theorem1", P(0, 1, 1), "lower", False),
    ("theorem1", P(0, 1, 2, 1), "upper", False),
    ("theorem1", P(1, 5, 6, 1), "interlacing", True),
    ("derangement", P(0, 0, 1), "nonnegative", False),
    ("derangement", P(1, 4, 3, 1), "interlacing", False),
]


class TestSampleRoutes:
    @pytest.mark.parametrize("suite, image, gate, zero_bounds", ONE_GATE_FAILURES)
    def test_an_image_failing_one_gate_fails_every_sample(
        self, monkeypatch, suite, image, gate, zero_bounds
    ):
        """Every sample goes to a positive multiple of the one image, so a
        suite that dropped the gate would pass it."""
        n = 3
        transform = LinearTransform("one-gate", n, lambda m: image)
        if zero_bounds:
            monkeypatch.setattr(suites_module, "binomial_eulerian", lambda n: ZERO)
            monkeypatch.setattr(suites_module, "eulerian", lambda n: ZERO)
        fields = ["nonnegative", "real_rooted_pair", "interlacing"]
        if suite == "theorem1":
            monkeypatch.setattr(suites_module, "eulerian_transform", lambda n: transform)
            lower = suites_module.binomial_eulerian(n)
            upper = X * suites_module.eulerian(n)
            gates = {"lower": interlaces(lower, image), "upper": interlaces(image, upper)}
            verdict = interlacing_symmetric_decomposition(image, n)
            fields += ["unimodal_pair", "gamma_positive_pair"]
            run = theorem1_sample_cases
        else:
            monkeypatch.setattr(suites_module, "derangement_transform", lambda n: transform)
            gates = {}
            verdict = interlacing_symmetric_decomposition(reciprocal(image, n), n)
            run = derangement_sample_cases
        gates.update((field, getattr(verdict, field)) for field in fields)
        assert [g for g, ok in gates.items() if not ok] == [gate]
        assert [c.status for c in run(n, 5, 0)] == ["fail"] * 5

    @pytest.mark.parametrize("n", range(1, 11))
    def test_integer_multiple_agrees_with_fraction_route(self, monkeypatch, n):
        """Each suite gives the (name, status, detail) list of the Fraction
        route on 100 seeds and leaves its random stream where that route
        does: the next draw after the samples is the same."""
        made = []

        class Recorded(random.Random):
            def __init__(self, seed):
                super().__init__(seed)
                made.append(self)

        monkeypatch.setattr(suites_module, "random", SimpleNamespace(Random=Recorded))
        routes = (
            (theorem1_sample_cases, oracle_theorem1_sample_cases),
            (derangement_sample_cases, oracle_derangement_sample_cases),
        )
        for seed in range(100):
            for suite, oracle in routes:
                made.clear()
                got = suite(n, 3, seed)
                rng = random.Random(seed)
                want = oracle(n, 3, rng)
                assert [(c.name, c.status, c.detail) for c in got] == [
                    (c.name, c.status, c.detail) for c in want
                ]
                assert len(made) == 1
                assert made[0].random() == rng.random()

    def test_derangement_real_rootedness_read_off_the_verdict(self):
        """A nonnegative interlacing split of the reversal x^n g(1/x)
        certifies g real rooted, zero roots included: decided on its own on
        seeded derangement images and on random g of degree at most n."""
        inputs = []
        rng = random.Random(20261019)
        for n in range(1, 11):
            transform = derangement_transform(n)
            for _ in range(10):
                inputs.append((apply_transform(transform, sample_p_polynomial(rng, n)), n))
        while len(inputs) < 600:
            n = rng.randint(1, 7)
            g = Poly([rng.randint(0, 12) for _ in range(rng.randint(1, n + 1))])
            inputs.append((g.times_x_power(rng.randint(0, 2)) if g.deg() < n - 1 else g, n))
        seen = Counter()
        for g, n in inputs:
            verdict = interlacing_symmetric_decomposition(reciprocal(g, n), n)
            certified = verdict.nonnegative and verdict.interlacing
            if certified:
                assert is_real_rooted(g), (g, n)
            seen["certified" if certified else "not"] += 1
            seen["zero roots of the reversal"] += certified and g.deg() < n
            seen["zero roots of g"] += certified and g.deg() > 0 and g.coeffs[0] == 0
        assert seen["certified"] >= 100 and seen["not"] >= 100, seen
        assert seen["zero roots of the reversal"] >= 10, seen
        assert seen["zero roots of g"] >= 10, seen
