"""Reference routines that several test files share.

Euclid and Yun over Fraction coefficients run on ``Poly`` arithmetic only.
The library decides real rootedness and interlacing without a gcd, so they
are the tests' own: they share no code with the integer kernel
``_intpoly``, and the interlacing oracles and seen-counters of the tests
build on them.  ``list_interlaces`` is the interlacing order read off root
lists.
"""

from eulerian_lab.poly import ONE, ZERO, Poly


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
