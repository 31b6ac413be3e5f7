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
"""

import itertools

from eulerian_lab._intpoly import _cauchy_index, _int_poly, _neg, _signed_remainders
from eulerian_lab.poly import ONE, ZERO, Poly
from eulerian_lab.roots import is_real_rooted


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
