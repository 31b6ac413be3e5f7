"""The exact polynomial kernel: integer coefficient tuples.

Every signed remainder sequence in the package runs here, and ``roots``
reads each of its decisions off one of them: real rootedness and
interlacing are both a Cauchy index, the sign variations of a sequence at
-inf minus those at +inf.  No root is isolated and nothing is divided by a
gcd; where a decision needs the degree of a gcd, it reads the last entry
of the sequence.  The module imports no other module of the package.

A sequence is the signed subresultant remainder sequence of G. E. Collins,
"Subresultants and reduced polynomial remainder sequences", J. ACM 14
(1967), as presented in S. Basu, R. Pollack and M.-F. Roy, "Algorithms in
Real Algebraic Geometry", ch. 8: each entry is the pseudo remainder of the
two before it divided by a factor known in advance, so its coefficients
stay of the size of a determinant in the inputs' coefficients, and no
content is computed or divided out.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

# A polynomial is a tuple of ints, low degree first, without trailing zeros;
# () is zero.  Every factor the kernel multiplies in or divides out is a
# positive integer, so each tuple has the sign of the rational polynomial it
# stands for at every point, and Sturm sign counts on it are exact.

IntPoly = tuple[int, ...]


def _primitive(cs: Sequence[int]) -> IntPoly:
    """Strip trailing zeros and divide out the (positive) content."""
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    content = math.gcd(*cs[:n])
    if content <= 1:
        return tuple(cs[:n])
    return tuple(c // content for c in cs[:n])


def _int_poly(cs: Sequence[int | Fraction]) -> IntPoly:
    """Rational coefficients cs, low degree first and without trailing
    zeros, rescaled by a positive rational to primitive integers."""
    if not cs:
        return ()
    lcm = math.lcm(*(c.denominator for c in cs))
    return _primitive([c.numerator * (lcm // c.denominator) for c in cs])


def _neg(f: IntPoly) -> IntPoly:
    return tuple(-c for c in f)


def _derivative(f: IntPoly) -> IntPoly:
    return tuple(i * c for i, c in enumerate(f) if i)


def _signed_remainders(a: IntPoly, b: IntPoly) -> list[IntPoly]:
    """Signed remainder sequence a, b, -rem(a, b), ... of a nonzero a, each
    entry a positive multiple of the rational one; it stops before the
    first zero, so its last entry is gcd(a, b) up to a nonzero constant.

    With d = deg a - deg b at each step, the next entry is
    -(|lc b|^(d+1) a mod b) / beta.  beta is 1 at the first step and
    |lc a| psi^d after it, where psi starts at 1 and becomes
    |lc b|^d / psi^(d-1) after each step.  Up to sign, these are the
    entries of Collins' subresultant sequence, which are subresultants of
    the first two and so have integer coefficients: the division by beta
    and the one in psi are exact (Collins 1967; Basu, Pollack and Roy,
    ch. 8).  The signs are kept by taking |lc b| and a positive beta in
    place of their signed values: each entry is then a positive multiple
    of the rational signed remainder, as the Cauchy index reads it.  A
    step with d = 1, nearly every step, and one with d = 0, which only the
    first step can be, each take one pass over the coefficients.  A
    nonzero constant b ends the sequence.  When deg a < deg b the sequence
    is a, b, -a, followed by the sequence that starts from b, -a.
    """
    chain = [a]
    if b and len(a) < len(b):
        chain.append(b)
        a, b = b, _neg(a)
    beta = psi = 1
    while b:
        chain.append(b)
        db = len(b) - 1
        if not db:
            break
        d = len(a) - 1 - db
        lb = b[-1]
        if d == 1:
            # lb^2 a - (lb lc(a) x + c) b is the pseudo remainder, and
            # lb^2 = |lb|^2 whatever the sign of lb
            c = lb * a[-2] - a[-1] * b[-2]
            l2, m = lb * lb, lb * a[-1]
            r = [(c * b[0] - l2 * a[0]) // beta]
            r += [(m * y + c * z - l2 * x) // beta for x, y, z in zip(a[1:db], b, b[1:])]
            lb = abs(lb)
        elif not d:
            # beta = 1: only the first step keeps the degree
            la = a[-1]
            if lb < 0:
                lb, la = -lb, -la
            r = [la * y - lb * x for x, y in zip(a, b[:db])]
        else:
            tail = b[:db]
            if lb < 0:
                lb, tail = -lb, _neg(tail)
            r = list(a)
            for _ in range(d + 1):
                lr = r.pop()
                s = len(r) - db
                r = [lb * x for x in r[:s]] + [lb * x - lr * y for x, y in zip(r[s:], tail)]
            r = [-(x // beta) for x in r]
        while r and not r[-1]:
            r.pop()
        if d:
            psi = lb if d == 1 else lb**d // psi ** (d - 1)
        a, b = b, tuple(r)
        if b:
            beta = lb * psi ** (len(a) - len(b))
    return chain


def _sturm_chain(f: IntPoly) -> list[IntPoly]:
    """Signed remainder sequence f, f', -rem, ... of a nonconstant f.  Its
    last entry is gcd(f, f') up to a nonzero constant, so on a squarefree f
    it is the classical Sturm chain."""
    return _signed_remainders(f, _primitive(_derivative(f)))


def _variations(signs: Sequence[bool]) -> int:
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _cauchy_index(chain: Sequence[IntPoly]) -> int:
    """Sign variations at -inf minus those at +inf of a signed remainder
    sequence a, b, ...: the Cauchy index of b/a over the real line.  On a
    Sturm chain f, f', ... it is the number of distinct real roots of f.
    No entry is zero, so each has the sign of its leading coefficient at
    +inf, and the opposite sign at -inf when its degree is odd."""
    at_pos_inf = [f[-1] > 0 for f in chain]
    at_neg_inf = [(f[-1] > 0) == (len(f) % 2 == 1) for f in chain]
    return _variations(at_neg_inf) - _variations(at_pos_inf)
