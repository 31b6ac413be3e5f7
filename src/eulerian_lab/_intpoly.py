"""The exact polynomial kernel: integer coefficient tuples.

Every gcd, squarefree part, Yun decomposition and signed remainder
sequence in the package runs here.  ``poly`` wraps the gcd and Yun
routines into its public ``poly_gcd``, ``squarefree_decomposition`` and
``squarefree_part``; ``roots`` decides real rootedness and interlacing and
isolates roots on top of them.  The module imports neither, so both can
import it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

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


def _sub(a: IntPoly, b: IntPoly) -> IntPoly:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    while out and not out[-1]:
        out.pop()
    return tuple(out)


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


def _gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd with a positive leading coefficient; gcd(0, 0) = ()."""
    while b:
        a, b = b, _prem(a, b)
    a = _primitive(a)
    return _neg(a) if a and a[-1] < 0 else a


def _quo(a: IntPoly, b: IntPoly) -> IntPoly:
    """a / b for a primitive b that divides a over the rationals.

    By Gauss's lemma the quotient has integer coefficients, so every step
    of the long division is an exact integer division.
    """
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    q = [0] * (len(a) - db)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + db] // lb
        if c:
            q[i] = c
            for j, bc in enumerate(b):
                r[i + j] -= c * bc
    if any(r):
        raise ArithmeticError("polynomial division is not exact")
    return tuple(q)


def _squarefree_part(f: IntPoly) -> IntPoly:
    return _quo(f, _gcd(f, _derivative(f)))


def _yun(f: IntPoly) -> list[tuple[IntPoly, int]]:
    """Yun's squarefree decomposition of a nonconstant f: pairs (a_i, i)
    with f a nonzero multiple of the product of the a_i^i.

    The quotients stay integral because every divisor is a primitive gcd,
    and they keep the scale that the relation z = y - w' needs.
    """
    df = _derivative(f)
    g = _gcd(f, df)
    w, y = _quo(f, g), _quo(df, g)
    z = _sub(y, _derivative(w))
    out = []
    i = 1
    while len(w) > 1:
        h = _gcd(w, z)
        if len(h) > 1:
            out.append((h, i))
        w, y = _quo(w, h), _quo(z, h)
        z = _sub(y, _derivative(w))
        i += 1
    return out


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


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _sign_at(f: IntPoly, x: Fraction) -> int:
    """Sign of f(x) for rational x = a/b, b > 0: the sign of b^d f(a/b),
    evaluated by a homogeneous integer Horner scheme."""
    a, b = x.numerator, x.denominator
    acc = 0
    scale = 1
    for c in reversed(f):
        acc = acc * a + c * scale
        scale *= b
    return _sign(acc)


def _variations(signs: Iterable[int]) -> int:
    out = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev != 0 and s != prev:
            out += 1
        prev = s
    return out


def _variations_at(chain: Sequence[IntPoly], x: Fraction) -> int:
    return _variations(_sign_at(f, x) for f in chain)


def _variations_neg_inf(chain: Sequence[IntPoly]) -> int:
    return _variations(_sign(f[-1]) * (-1 if len(f) % 2 == 0 else 1) for f in chain)


def _variations_pos_inf(chain: Sequence[IntPoly]) -> int:
    return _variations(_sign(f[-1]) for f in chain)


def _cauchy_index(chain: Sequence[IntPoly]) -> int:
    """Sign variations at -inf minus those at +inf of a signed remainder
    sequence a, b, ...: the Cauchy index of b/a over the real line.  On a
    Sturm chain f, f', ... it is the number of distinct real roots of f."""
    return _variations_neg_inf(chain) - _variations_pos_inf(chain)
