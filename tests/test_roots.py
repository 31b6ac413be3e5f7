"""Sturm counting, root isolation and interlacing decisions."""

import random
from fractions import Fraction

import pytest

from eulerian_lab.poly import ONE, X, ZERO, Poly, poly_gcd, reciprocal, squarefree_part
from eulerian_lab.roots import (
    interlaces,
    interlacing_failures,
    interlacing_symmetric_decomposition,
    is_interlacing_sequence,
    is_real_rooted,
    isolate_roots,
    sturm_distinct_real_roots,
)
from eulerian_lab.simplicial import (
    barycentric_f_triangle,
    colored_barycentric,
    edgewise_subdivision,
    f_triangle,
    ft_lnk,
    ft_qnk,
)
from eulerian_lab.suites import (
    binomial_base,
    derangement_sample_cases,
    eulerian_combination_sample_cases,
    theorem1_sample_cases,
)
from eulerian_lab.transforms import dnk, eulerian, generic_hnk, generic_lnk, qnk


def P(*coeffs) -> Poly:
    return Poly(coeffs)


class TestSturmCounting:
    def test_full_line_count(self):
        # x^2 - 3x + 2 has roots 1 and 2
        assert sturm_distinct_real_roots(P(2, -3, 1)) == 2
        assert sturm_distinct_real_roots(P(1, 1, 1)) == 0

    def test_half_open_interval(self):
        p = P(2, -3, 1)
        assert sturm_distinct_real_roots(p, 0, 1) == 1  # (0, 1] holds root 1
        assert sturm_distinct_real_roots(p, 1, 2) == 1  # (1, 2] holds root 2
        assert sturm_distinct_real_roots(p, 2, 5) == 0

    def test_multiplicities_collapse(self):
        # distinct roots only: (x-1)^3 counts once
        assert sturm_distinct_real_roots(P(-1, 3, -3, 1)) == 1

    def test_one_sided_infinite(self):
        p = P(2, -3, 1)
        assert sturm_distinct_real_roots(p, None, Fraction(3, 2)) == 1
        assert sturm_distinct_real_roots(p, Fraction(3, 2), None) == 1


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


class TestIsolation:
    def test_exact_rational_roots(self):
        recs = isolate_roots(P(2, -3, 1))
        vals = []
        for rec in recs:
            assert rec.multiplicity == 1
            if rec.is_exact():
                vals.append(rec.lo)
        assert len(recs) == 2

    def test_irrational_pair(self):
        # 1 + 4x + x^2 has roots -2 +- sqrt(3)
        recs = isolate_roots(P(1, 4, 1), max_width=Fraction(1, 64))
        assert len(recs) == 2
        lo_root, hi_root = recs
        assert lo_root.hi < hi_root.lo  # disjoint and ordered
        for rec, target in ((lo_root, -3.732), (hi_root, -0.268)):
            assert rec.width() <= Fraction(1, 64)
            assert float(rec.lo) <= target + 0.02 and target - 0.02 <= float(rec.hi)

    def test_multiplicity_reported(self):
        recs = isolate_roots(P(1, 2, 1) * P(0, 1))
        mults = sorted(r.multiplicity for r in recs)
        assert mults == [1, 2]

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            isolate_roots(ZERO)


# Quadratics without a real root: (x - c)^2 + e with e > 0.
ROOT_FREE = (P(1, 0, 1), P(1, 1, 1), P(Fraction(37, 4), -6, 1), P(Fraction(1, 9), Fraction(2, 3), 2))


class TestIsolationOnKnownRoots:
    """isolate_roots against polynomials built from their roots, an oracle
    that shares no code with the Sturm and Yun kernel."""

    def test_random_products(self):
        rng = random.Random(20231107)
        widths = (None, Fraction(1, 8), Fraction(1, 1024))
        for index in range(150):
            roots = {}
            for _ in range(rng.randint(1, 5)):
                roots[Fraction(rng.randint(-12, 12), rng.randint(1, 6))] = rng.randint(1, 3)
            p = P(rng.choice(ORACLE_LEADS))
            for r, m in roots.items():
                p = p * P(-r, 1) ** m
            for _ in range(rng.randrange(3)):
                p = p * rng.choice(ROOT_FREE) ** rng.randint(1, 2)
            max_width = widths[index % 3]
            recs = isolate_roots(p, max_width=max_width)
            assert len(recs) == len(roots), (p, recs)
            for rec, r in zip(recs, sorted(roots)):
                assert rec.lo == rec.hi == r or rec.lo < r < rec.hi, (p, rec, r)
                assert rec.multiplicity == roots[r], (p, rec, r)
                if max_width is not None:
                    assert rec.width() <= max_width
            for left, right in zip(recs, recs[1:]):
                assert left.hi <= right.lo

    def test_no_real_root(self):
        assert isolate_roots(ROOT_FREE[1] * ROOT_FREE[2] ** 2) == ()


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


def root_list_interlaces(p: Poly, q: Poly) -> bool:
    """Reference decision on descending root lists, for nonconstant p, q.

    The roots come from isolate_roots alone.  p*q and p*q^2 have the same
    distinct real roots, so the k-th intervals of their isolations locate
    the same root, with multiplicities m_p + m_q and m_p + 2 m_q there.
    Equal roots get equal indices, and a larger root a larger index.
    """
    once = isolate_roots(p * q)
    twice = isolate_roots(p * q * q)
    assert len(once) == len(twice)
    a_desc: list[int] = []
    b_desc: list[int] = []
    for k in reversed(range(len(once))):
        m1, m2 = once[k].multiplicity, twice[k].multiplicity
        a_desc += [k] * (2 * m1 - m2)
        b_desc += [k] * (m2 - m1)
    if len(a_desc) < p.deg() or len(b_desc) < q.deg():
        return False  # a root is not real
    if len(b_desc) - len(a_desc) not in (0, 1):
        return False
    return all(b_desc[i] >= a_desc[i] for i in range(len(a_desc))) and all(
        a_desc[i] >= b_desc[i + 1] for i in range(len(b_desc) - 1)
    )


ORACLE_ROOTS = sorted({Fraction(a, b) for a in range(-3, 4) for b in (1, 2, 3)})
ORACLE_LEADS = (1, -1, 2, Fraction(-3, 2), Fraction(2, 3))
NON_REAL = P(1, 1, 1)
IRRATIONAL = (P(-2, 0, 1), P(1, 3, 1))  # roots +-sqrt 2 and (-3 +- sqrt 5)/2


def from_roots(roots, lead=1) -> Poly:
    p = P(lead)
    for r in roots:
        p = p * P(-r, 1)
    return p


def random_pair(rng: random.Random) -> tuple[Poly, Poly]:
    """A pair with deg q - deg p in {0, 1, 2} before an occasional swap.

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
    roll = rng.random()
    if roll < 0.2:
        linear = P(-rng.choice(ORACLE_ROOTS), 1)
        common = rng.choice(IRRATIONAL + (NON_REAL, linear, linear**2))
        p, q = p * common, q * common
    elif roll < 0.35:
        extra = rng.choice((NON_REAL,) + IRRATIONAL)
        p, q = (p * extra, q) if rng.random() < 0.5 else (p, q * extra)
    elif roll < 0.45:
        power = P(-rng.choice(ORACLE_ROOTS), 1) ** rng.choice((2, 3))
        p, q = (p * power, q) if rng.random() < 0.5 else (p, q * power)
    if rng.random() < 0.1:
        p, q = q, p
    return p, q


class TestInterlacesAgainstRootLists:
    def test_random_pairs_match_oracle(self):
        rng = random.Random(20230201)
        seen = dict.fromkeys(
            ("shared", "repeated", "non-real", "non-integer", "lead+", "lead-",
             "gap0", "gap1", "gap2", "true", "false"), 0)
        for _ in range(400):
            p, q = random_pair(rng)
            expected = root_list_interlaces(p, q)
            assert interlaces(p, q) == expected, (p, q)
            seen["true" if expected else "false"] += 1
            seen["shared"] += poly_gcd(p, q).deg() > 0
            seen["repeated"] += any(squarefree_part(f).deg() < f.deg() for f in (p, q))
            seen["non-real"] += not (is_real_rooted(p) and is_real_rooted(q))
            seen["non-integer"] += any(c.denominator > 1 for f in (p, q) for c in f)
            seen["lead+"] += p.leading() > 0
            seen["lead-"] += p.leading() < 0
            if q.deg() - p.deg() in (0, 1, 2):
                seen[f"gap{q.deg() - p.deg()}"] += 1
        assert min(seen.values()) >= 20, seen

    def test_binomial_counterexample(self):
        hs = binomial_base(2)
        for row in (
            [generic_hnk(hs, 2, k) for k in range(3)],
            [generic_lnk(hs, 2, k) for k in range(3)],
        ):
            assert interlacing_failures(row) == [(0, 2)]
            for i in range(3):
                for j in range(3):
                    assert interlaces(row[i], row[j]) == root_list_interlaces(row[i], row[j])

    def test_pinned_pairs(self):
        x2, x1sq = P(0, 0, 1), P(1, -2, 1)
        assert not interlaces(x2, x1sq) and not interlaces(x1sq, x2)
        assert not root_list_interlaces(x2, x1sq)
        # x^2 (x-1) below x (x-1)^2: roots 1, 0, 0 against 1, 1, 0
        p, q = x2 * P(-1, 1), P(0, 1) * x1sq
        assert interlaces(p, q) and root_list_interlaces(p, q)
        assert not interlaces(q, p) and not root_list_interlaces(q, p)
        # triple roots: W = -3x^2 (x-1)^2 <= 0, but 0, 0, 0 against 1, 1, 1
        # does not alternate, which only the repeated-root step sees
        cube, shifted = P(0, 0, 0, 1), P(-1, 3, -3, 1)
        assert not interlaces(cube, shifted) and not root_list_interlaces(cube, shifted)
        for f in (P(3, 4, 1), x2, P(-1, 3, -3, 1), P(1, 0, 1)):
            assert interlaces(f, f) == is_real_rooted(f)
            assert interlaces(f, -f * 2) == is_real_rooted(f)


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
                    poly_gcd(p, q).deg() > 0 for p, q in zip(row, row[1:])
                )
                seen["certified-repeated"] += any(
                    squarefree_part(p).deg() < p.deg() for p in row
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


class TestRealRootedCache:
    def test_cache_stays_bounded(self):
        # each sample leaves a few new polynomials in the cache
        for s in range(200):
            theorem1_sample_cases(6, 1, s)
        info = is_real_rooted.cache_info()
        assert info.maxsize is not None
        assert info.misses > info.maxsize
        assert info.currsize <= info.maxsize


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
            for c in eulerian_combination_sample_cases(n, 3, n):
                inputs.append((X * Poly.from_text(c.detail.split("s = ")[1]), n))
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
