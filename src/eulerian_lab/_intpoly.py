"""The exact polynomial kernel: integer coefficient tuples.

Every signed remainder sequence in the package runs here, and ``roots``
reads each of its decisions off one of them: real rootedness and
interlacing are both a Cauchy index, the sign variations of a sequence at
-inf minus those at +inf.  No root is isolated and nothing is divided by a
gcd; where a decision needs the degree of a gcd, it reads the last entry
of the sequence.  The module imports no other module of the package.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

# A polynomial is a tuple of ints, low degree first, without trailing zeros;
# () is zero.  Contents and pseudo-division factors are divided out or
# multiplied in as positive integers only, so each tuple has the sign of the
# rational polynomial it stands for at every point, and Sturm sign counts on
# it are exact.

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


def _prem(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive part of a positive multiple of the remainder of a by b != 0.

    Each elimination step scales the running remainder by a positive
    factor (|lc b| over its gcd with the current leading coefficient), so
    the result has the sign of the rational remainder everywhere.
    """
    db = len(b) - 1
    lb = b[-1]
    if lb < 0:
        b, lb = _neg(b), -lb
    r = list(a)
    while len(r) > db:
        lr = r[-1]
        g = math.gcd(lb, lr)
        mb, mr = lb // g, lr // g
        if mb != 1:
            r = [mb * c for c in r]
        shift = len(r) - 1 - db
        for j in range(db):
            r[shift + j] -= mr * b[j]
        r.pop()
        while r and not r[-1]:
            r.pop()
    return _primitive(r)


def _signed_remainders(a: IntPoly, b: IntPoly) -> list[IntPoly]:
    """Signed remainder sequence a, b, -rem(a, b), ... of a nonzero a, each
    entry a positive multiple of the rational one; it stops before the
    first zero, so its last entry is gcd(a, b) up to a nonzero constant."""
    chain = [a]
    while b:
        chain.append(b)
        b = _neg(_prem(chain[-2], b))
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
