"""Reference routines that several test files share.

Euclid and Yun over Fraction coefficients run on ``Poly`` arithmetic only.
The library decides real rootedness and interlacing without a gcd, so they
are the tests' own: they share no code with the integer kernel
``_intpoly``, and the interlacing oracles and seen-counters of the tests
build on them.  ``list_interlaces`` is the interlacing order read off root
lists.

Two routes the library has replaced stay here as oracles for the ones
that replaced them.  ``oracle_interlaces`` decides interlacing with real
rootedness checked first, by a Sturm chain on each member, before the
index sequence; the library reads real rootedness off that one sequence.
``oracle_des_B_tally`` walks every signed word; the library tallies S_n by
descent mask and evaluates each sign mask with bit operations.
``oracle_theorem1_sample_cases`` and ``oracle_derangement_sample_cases``
decide each sampled p of ``sample_p_polynomial`` on its ``Fraction``
coefficients, and the derangement route decides the real rootedness of
each image on its own; the library decides each sample on its integer
multiple and reads real rootedness off the verdict.
``oracle_row_verdicts`` decides the real rootedness of every member of a
row on its own, and ``oracle_generic_hypothesis`` decides each base
polynomial and then each consecutive pair; the library reads real
rootedness off the passed interlacing decisions that hold a member.
``oracle_identity_suite`` sums each identity of ``identity_suite`` on
``Poly`` terms, term by term; the library decides the interval identities
on their values at one power of two that makes equal values certify equal
polynomials.
``oracle_h_where`` and the oracles built on it read the h-polynomials and
f-triangle rows of a carried triangulation by counting its faces by
carrier mask and size (``oracle_carrier_counts``, a walk of its own over
the faces) and keeping the carrier masks a test asks for; the library
reads one row of its per-mask face table.
"""

import itertools
import random
from fractions import Fraction

from eulerian_lab._intpoly import _cauchy_index, _int_poly, _neg, _signed_remainders
from eulerian_lab.errors import CertificationError
from eulerian_lab.poly import (
    ONE,
    X,
    ZERO,
    Poly,
    basis_p_combination,
    is_symmetric,
    linear_combination,
    reciprocal,
)
from eulerian_lab.roots import (
    interlaces,
    interlacing_failures,
    interlacing_symmetric_decomposition,
    is_real_rooted,
)
from eulerian_lab.simplicial import _submasks_over, derangement_transform, eulerian_transform
from eulerian_lab.suites import CaseResult
from eulerian_lab.transforms import (
    apply_transform,
    binomial_eulerian,
    derangement,
    dnk,
    eulerian,
)


def oracle_gcd(a: Poly, b: Poly) -> Poly:
    """The monic gcd by Euclid's algorithm; ZERO when both are ZERO."""
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return ZERO
    return a * (1 / a.leading())


def oracle_squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: monic squarefree factors of a nonconstant p with
    their multiplicities, in increasing multiplicity order."""
    if p.deg() <= 0:
        return []
    p = p * (1 / p.leading())
    dp = p.derivative()
    g = oracle_gcd(p, dp)
    w = p.exact_div(g)
    y = dp.exact_div(g)
    z = y - w.derivative()
    out: list[tuple[Poly, int]] = []
    i = 1
    while w.deg() > 0:
        f = oracle_gcd(w, z)
        if f.deg() > 0:
            out.append((f, i))
        w = w.exact_div(f)
        y = z.exact_div(f)
        z = y - w.derivative()
        i += 1
    return out


def oracle_squarefree_part(p: Poly) -> Poly:
    """p divided by gcd(p, p'), made monic."""
    if p.deg() <= 0:
        return ZERO if p.is_zero() else ONE
    q = p.exact_div(oracle_gcd(p, p.derivative()))
    return q * (1 / q.leading())


def list_interlaces(a_desc, b_desc) -> bool:
    """Alternation of descending root lists, b dominating:
    b_1 >= a_1 >= b_2 >= a_2 >= ..."""
    if len(b_desc) - len(a_desc) not in (0, 1):
        return False
    return all(b_desc[i] >= a_desc[i] for i in range(len(a_desc))) and all(
        a_desc[i] >= b_desc[i + 1] for i in range(len(b_desc) - 1)
    )


def oracle_interlaces(p: Poly, q: Poly) -> bool:
    """The interlacing decision with real rootedness checked first: both
    members by a Sturm chain of their own, then the index equality
    Ind(p/q) = deg q - deg gcd(p, q) on one more remainder sequence."""
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
    f, h = _int_poly(p.coeffs), _int_poly(q.coeffs)
    if f[-1] < 0:
        f = _neg(f)
    if h[-1] < 0:
        h = _neg(h)
    chain = _signed_remainders(h, f)
    return _cauchy_index(chain) == len(h) - len(chain[-1])


def oracle_des_B_tally(n: int) -> list[int]:
    """How many signed permutations of size n have each value of des_B, by
    walking every signed word: bit i of the sign mask negates position i
    of the base permutation, and each value below the one before, starting
    from a fixed 0, is a descent."""
    tally = [0] * (n + 1)
    for base in itertools.permutations(range(1, n + 1)):
        for smask in range(1 << n):
            prev = d = 0
            for i, v in enumerate(base):
                if smask >> i & 1:
                    v = -v
                if prev > v:
                    d += 1
                prev = v
            tally[d] += 1
    return tally


def sample_p_polynomial(rng: random.Random, n: int) -> Poly:
    """Random element of the nonnegative span of x^(n-k) (1+x)^k."""
    coeffs = [
        Fraction(rng.randrange(100), rng.randrange(1, 10)) for _ in range(n + 1)
    ]
    return basis_p_combination(coeffs, n)


def _sample_case(name: str, ok: bool, p: Poly, image: Poly, verdict) -> CaseResult:
    return CaseResult(
        name,
        "pass" if ok else "fail",
        f"p = {p.to_text()}; image {image.to_text()}; "
        f"nonneg={verdict.nonnegative} rr={verdict.real_rooted_pair} "
        f"interlacing={verdict.interlacing}",
    )


def oracle_theorem1_sample_cases(n: int, samples: int, rng: random.Random) -> list[CaseResult]:
    """``theorem1_sample_cases`` on the Fraction coefficients of each p."""
    transform = eulerian_transform(n)
    upper = X * eulerian(n)
    lower = binomial_eulerian(n)
    cases = []
    for s in range(samples):
        p = sample_p_polynomial(rng, n)
        f = apply_transform(transform, p)
        verdict = interlacing_symmetric_decomposition(f, n)
        ok = (
            interlaces(lower, f)
            and interlaces(f, upper)
            and verdict.nonnegative
            and verdict.real_rooted_pair
            and verdict.interlacing
            and verdict.unimodal_pair
            and verdict.gamma_positive_pair
        )
        cases.append(_sample_case(f"theorem1-sample-{n}-{s}", ok, p, f, verdict))
    return cases


def oracle_derangement_sample_cases(n: int, samples: int, rng: random.Random) -> list[CaseResult]:
    """``derangement_sample_cases`` on the Fraction coefficients of each p,
    with the real rootedness of each image decided on its own."""
    transform = derangement_transform(n)
    cases = []
    for s in range(samples):
        p = sample_p_polynomial(rng, n)
        g = apply_transform(transform, p)
        verdict = interlacing_symmetric_decomposition(reciprocal(g, n), n)
        ok = (
            is_real_rooted(g)
            and verdict.nonnegative
            and verdict.real_rooted_pair
            and verdict.interlacing
        )
        cases.append(_sample_case(f"derangement-sample-{n}-{s}", ok, p, g, verdict))
    return cases


def oracle_carrier_counts(t) -> dict[tuple[int, int], int]:
    """Faces of the carried triangulation t counted by (carrier mask, size),
    from a walk over its faces and carriers; the library counts them once,
    in its per-mask face table."""
    counts: dict[tuple[int, int], int] = {}
    for f in t.complex.faces:
        mask = t.base_mask(frozenset().union(*(t.carrier[u] for u in f)))
        counts[mask, len(f)] = counts.get((mask, len(f)), 0) + 1
    return counts


def oracle_h_where(t, keep, window: int) -> Poly:
    """h-polynomial, in the window, of the faces of the carried
    triangulation t whose carrier mask passes keep, by a scan of its face
    counts.  A face past the window raises ValueError: a negative power of
    1 - x."""
    return linear_combination(
        (c, Poly((1, -1)) ** (window - size), size)
        for (mask, size), c in oracle_carrier_counts(t).items()
        if keep(mask)
    )


def oracle_restriction_h(t, fmask: int) -> Poly:
    return oracle_h_where(t, lambda mask: mask & ~fmask == 0, fmask.bit_count())


def oracle_boundary_h(t, fmask: int) -> Poly:
    return oracle_h_where(
        t, lambda mask: mask & ~fmask == 0 and mask != fmask, fmask.bit_count() - 1
    )


def oracle_interior_h(t, fmask: int) -> Poly:
    """The exact-carrier sum, not certified against the reversal."""
    return oracle_h_where(t, lambda mask: mask == fmask, fmask.bit_count())


def oracle_face_rows(t) -> list[list[int]]:
    """[fmask][i]: i-element faces with carrier inside fmask, scanned from
    the face counts for each mask."""
    counts = oracle_carrier_counts(t)
    rows = []
    for fmask in range(1 << t.n):
        row = [0] * (fmask.bit_count() + 1)
        for (mask, size), count in counts.items():
            if mask & ~fmask == 0:
                row[size] += count
        rows.append(row)
    return rows


def oracle_row_verdicts(row) -> tuple[list[bool], list[tuple[int, int]]]:
    """suites._row_verdicts with every member decided on its own."""
    return [is_real_rooted(q) for q in row], interlacing_failures(row)


def oracle_generic_hypothesis(hs, n: int) -> bool:
    """The hypothesis of suites.generic_conjecture_cases as a conjunction:
    h_0..h_n real rooted, then each consecutive pair interlacing."""
    return all(is_real_rooted(h) for h in hs[: n + 1]) and all(
        interlaces(hs[m - 1], hs[m]) for m in range(1, n + 1)
    )


def oracle_identity_suite(t) -> list[tuple[str, bool, str]]:
    """(name, ok, detail) of each case of suites.identity_suite, every
    identity summed on Poly terms: one term per base face, and each relative
    local h read from t.local_h.  The library decides the interval
    identities on their values at one certified power of two."""
    n = t.n
    full = (1 << n) - 1
    cases: list[tuple[str, bool, str]] = []

    thetas: dict[int, Poly] = {}
    for fmask in range(1 << n):
        m = fmask.bit_count()
        try:
            t.interior_h(fmask)
            ok = True
        except CertificationError:
            ok = False
        cases.append(("interior-reciprocity", ok, f"face mask {fmask}"))
        theta = thetas[fmask] = t.theta(fmask)
        cases.append(("theta-symmetric", is_symmetric(theta, m), f"face mask {fmask}"))

    lhs = t.restriction_h(full)
    rhs = linear_combination(
        (1, theta * eulerian(n - fmask.bit_count()), 0) for fmask, theta in thetas.items()
    )
    cases.append(("h-from-theta", lhs == rhs, f"{lhs!r} vs {rhs!r}"))

    lhs = t.local_h()
    rhs = linear_combination(
        (1, theta * derangement(n - fmask.bit_count()), 0) for fmask, theta in thetas.items()
    )
    cases.append(("local-h-from-theta", lhs == rhs, f"{lhs!r} vs {rhs!r}"))

    # theta_F d(n - |F|, n - |E u F|) depends on E only through |E u F|
    relative = {
        (f, u): theta * dnk(n - f.bit_count(), n - u)
        for f, theta in thetas.items()
        for u in range(f.bit_count(), n + 1)
    }
    for emask in range(1 << n):
        lhs = t.local_h(emask)
        rhs = linear_combination((1, relative[f, (emask | f).bit_count()], 0) for f in thetas)
        cases.append(("relative-local-h-from-theta", lhs == rhs, f"E mask {emask}"))

        comp = full & ~emask
        rhs = linear_combination(
            (1, t.local_h(0, fmask), 0) for fmask in _submasks_over(comp, full)
        )
        cases.append(("relative-local-h-from-restrictions", lhs == rhs, f"E mask {emask}"))

        if emask.bit_count() == n - 1:
            diff = t.restriction_h(full) - t.restriction_h(emask)
            cases.append(("facet-difference", lhs == diff, f"E mask {emask}"))

        for gmask in _submasks_over(emask, full):
            rhs = linear_combination(
                (1, t.local_h(emask, fmask), 0) for fmask in _submasks_over(emask, gmask)
            )
            ok = t.restriction_h(gmask) == rhs
            cases.append(("h-from-relative-local-h", ok, f"E mask {emask} G mask {gmask}"))

    return cases
