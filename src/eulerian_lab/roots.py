"""Exact real root analysis built on Sturm chains.

Everything here is decided exactly, without floating point: distinct root
counts over half open intervals (lo, hi], real rootedness, isolating
intervals with multiplicities, and the interlacing partial order on real
rooted polynomials.

The decisions never isolate a root.  They run on primitive integer
coefficient tuples (a private kernel below: sign preserving pseudo
remainders, gcds by primitive remainder sequences, squarefree parts, Yun
decompositions and Sturm chains) and read Sturm signs at -inf and +inf
only.  A polynomial is real rooted when its Sturm chain counts as many
distinct real roots as it has distinct roots.  Interlacing rests on two
facts:

* the Wronskian criterion: for real rooted p, q with positive leading
  coefficients, p interlaces q exactly when W = p'q - pq' <= 0 on the whole
  real line (P. Braenden, "Unimodality, log-concavity, real-rootedness and
  beyond", Handbook of Enumerative Combinatorics, 2015);
* common factors: p interlaces q exactly when p/g interlaces q/g for
  g = gcd(p, q), provided neither quotient keeps a repeated root; a root
  whose multiplicities in p and q differ by two or more breaks the
  alternation (S. Fisk, "Polynomials, roots, and interlacing",
  arXiv:math/0612833).

W <= 0 everywhere holds when W is zero, or when W has even degree, a
negative leading coefficient, and no real root of odd multiplicity; the
last condition is a Sturm count at +-inf on each odd multiplicity factor
of the Yun decomposition of W.  Root isolation (``isolate_roots``) is kept
as a separate, independent route and serves as the test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import CertificationError
from .poly import (
    Poly,
    is_gamma_positive,
    is_unimodal,
    reciprocal,
    squarefree_decomposition,
    symmetric_decomposition,
)

__all__ = [
    "sturm_distinct_real_roots",
    "is_real_rooted",
    "IsolatingInterval",
    "isolate_roots",
    "interlaces",
    "interlaces_checked",
    "is_interlacing_sequence",
    "interlacing_failures",
    "DecompositionVerdict",
    "interlacing_symmetric_decomposition",
]

# Entries kept by the is_real_rooted cache.  Callers reuse a verdict within
# one row or one sample; a bound keeps long sampling runs from growing it.
_REAL_ROOTED_CACHE_SIZE = 512

# -- integer kernel ------------------------------------------------------------
#
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


def _int_poly(p: Poly) -> IntPoly:
    """p rescaled by a positive rational to primitive integer coefficients."""
    if p.is_zero():
        return ()
    lcm = math.lcm(*(c.denominator for c in p.coeffs))
    return _primitive([c.numerator * (lcm // c.denominator) for c in p.coeffs])


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


def _mul(a: IntPoly, b: IntPoly) -> IntPoly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
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


def _has_repeated_root(f: IntPoly) -> bool:
    return len(_gcd(f, _derivative(f))) > 1


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


def _sturm_chain(f: IntPoly) -> list[IntPoly]:
    """Signed remainder sequence f, f', -rem, ... of a nonconstant f, each
    entry a positive multiple of the rational one.  Its last entry is
    gcd(f, f') up to a nonzero constant, so on a squarefree f it is the
    classical Sturm chain."""
    chain = [f]
    d = _primitive(_derivative(f))
    while d:
        chain.append(d)
        d = _neg(_prem(chain[-2], d))
    return chain


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


def _real_root_count(chain: Sequence[IntPoly]) -> int:
    """Distinct real roots of chain[0], from the signs at -inf and +inf."""
    return _variations_neg_inf(chain) - _variations_pos_inf(chain)


# -- public decisions ----------------------------------------------------------


def sturm_distinct_real_roots(
    p: Poly,
    lo: Fraction | int | None = None,
    hi: Fraction | int | None = None,
) -> int:
    """Number of distinct real roots of p in the half open interval (lo, hi].

    A bound of None stands for the corresponding infinity.  Multiplicities
    are ignored; the count is exact for any nonzero p.
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has every point as a root")
    if lo is not None and hi is not None and Fraction(lo) > Fraction(hi):
        raise ValueError("need lo <= hi")
    if p.deg() <= 0:
        return 0
    chain = _sturm_chain(_squarefree_part(_int_poly(p)))
    va = _variations_neg_inf(chain) if lo is None else _variations_at(chain, Fraction(lo))
    vb = _variations_pos_inf(chain) if hi is None else _variations_at(chain, Fraction(hi))
    return va - vb


@lru_cache(maxsize=_REAL_ROOTED_CACHE_SIZE)
def is_real_rooted(p: Poly) -> bool:
    """Whether all complex roots of p are real.

    The zero polynomial and nonzero constants count as real rooted (there
    is nothing to check).  Decided by one signed remainder sequence: p has
    deg p - deg gcd(p, p') distinct roots, and they are all real when the
    Sturm count at -inf and +inf finds that many.
    """
    if p.deg() <= 0:
        return True
    chain = _sturm_chain(_int_poly(p))
    return _real_root_count(chain) == p.deg() - (len(chain[-1]) - 1)


# -- root isolation -----------------------------------------------------------
#
# Bisection on Sturm counts at rational points, then pairwise refinement.
# Only isolate_roots uses it; the decisions above never isolate a root.


def _root_bound_pow2(p: Poly) -> int:
    # power of two strictly exceeding the magnitude of every root
    an = abs(p.leading())
    m = max((abs(c) for c in p.coeffs[:-1]), default=Fraction(0))
    bound = 1 + m / an
    return 2 ** (bound.numerator // bound.denominator).bit_length()


def _isolate_squarefree(p: Poly) -> list[tuple[Fraction, Fraction]]:
    """Disjoint isolating intervals for the roots of a squarefree p.

    Pairs (lo, hi) come back sorted; lo == hi marks an exact rational root,
    otherwise the unique root sits strictly inside (lo, hi) and p(hi) != 0.
    """
    if p.deg() <= 0:
        return []
    chain = _sturm_chain(_int_poly(p))
    bound = _root_bound_pow2(p)
    a, b = Fraction(-bound), Fraction(bound)
    out: list[tuple[Fraction, Fraction]] = []
    stack = [(a, _variations_at(chain, a), b, _variations_at(chain, b))]
    while stack:
        lo, vlo, hi, vhi = stack.pop()
        cnt = vlo - vhi
        if cnt == 0:
            continue
        if cnt == 1:
            if _sign_at(chain[0], hi) == 0:
                out.append((hi, hi))
            else:
                out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        vmid = _variations_at(chain, mid)
        stack.append((lo, vlo, mid, vmid))
        stack.append((mid, vmid, hi, vhi))
    out.sort()
    return out


def _refine_step(f: Poly, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    # invariant: exactly one root of f inside the open interval, f(hi) != 0
    mid = (lo + hi) / 2
    fm = f.evaluate(mid)
    if fm == 0:
        return mid, mid
    if (fm > 0) == (f.evaluate(hi) > 0):
        return lo, mid
    return mid, hi


class _RootRec:
    """One isolated root: exact point when lo == hi, else open interval."""

    __slots__ = ("source", "lo", "hi")

    def __init__(self, source: int, lo: Fraction, hi: Fraction) -> None:
        self.source = source
        self.lo = lo
        self.hi = hi

    def is_point(self) -> bool:
        return self.lo == self.hi


def _separated(r1: _RootRec, r2: _RootRec) -> bool:
    return r1.hi <= r2.lo or r2.hi <= r1.lo


def _separated_roots(sources: Sequence[Poly]) -> list[_RootRec]:
    """Isolate the roots of pairwise coprime squarefree polynomials and
    refine until every pair of records is strictly ordered.

    After this the half open interval (lo, hi] of each record contains
    exactly one root of the product of all sources, so records give a total
    order on the union of the root sets.
    """
    recs: list[_RootRec] = []
    for si, f in enumerate(sources):
        for lo, hi in _isolate_squarefree(f):
            recs.append(_RootRec(si, lo, hi))
    for _ in range(10000):
        dirty = False
        for i in range(len(recs)):
            for j in range(i + 1, len(recs)):
                r1, r2 = recs[i], recs[j]
                if r1.is_point() and r2.is_point():
                    if r1.lo == r2.lo:
                        raise ValueError("sources are not coprime: shared root")
                    continue
                if _separated(r1, r2):
                    continue
                dirty = True
                if r1.is_point() or r2.is_point():
                    pt, iv = (r1, r2) if r1.is_point() else (r2, r1)
                    f = sources[iv.source]
                    v = pt.lo
                    fv = f.evaluate(v)
                    if fv == 0:
                        raise ValueError("sources are not coprime: shared root")
                    # split the interval exactly at the point value
                    if (fv > 0) == (f.evaluate(iv.hi) > 0):
                        iv.hi = v
                    else:
                        iv.lo = v
                else:
                    r1.lo, r1.hi = _refine_step(sources[r1.source], r1.lo, r1.hi)
                    r2.lo, r2.hi = _refine_step(sources[r2.source], r2.lo, r2.hi)
        if not dirty:
            recs.sort(key=lambda r: (r.lo, r.hi))
            return recs
    raise RuntimeError("root separation failed to converge")


@dataclass(frozen=True)
class IsolatingInterval:
    """A root locator: exact when lo == hi, otherwise the root lies
    strictly inside (lo, hi)."""

    lo: Fraction
    hi: Fraction
    multiplicity: int

    def is_exact(self) -> bool:
        return self.lo == self.hi

    def width(self) -> Fraction:
        return self.hi - self.lo


def isolate_roots(
    p: Poly, max_width: Fraction | int | None = None
) -> tuple[IsolatingInterval, ...]:
    """Pairwise disjoint isolating intervals for all real roots, ascending.

    Multiplicities refer to p itself.  With max_width set, non exact
    intervals are bisected until no wider than requested.
    """
    if p.is_zero():
        raise ValueError("cannot isolate roots of the zero polynomial")
    if p.deg() == 0:
        return ()
    factors = squarefree_decomposition(p)
    recs = _separated_roots([f for f, _ in factors])
    out = []
    for rec in recs:
        f, mult = factors[rec.source]
        lo, hi = rec.lo, rec.hi
        if max_width is not None:
            while lo != hi and hi - lo > max_width:
                lo, hi = _refine_step(f, lo, hi)
        out.append(IsolatingInterval(lo=lo, hi=hi, multiplicity=mult))
    return tuple(out)


def interlaces(p: Poly, q: Poly) -> bool:
    """Decide whether p interlaces q (p below q in the interlacing order).

    For real rooted p, q with descending root lists a_1 >= a_2 >= ... and
    b_1 >= b_2 >= ... this requires deg q - deg p in {0, 1} and the
    alternation b_1 >= a_1 >= b_2 >= a_2 >= ...  Conventions: the zero
    polynomial interlaces every real rooted polynomial and conversely, and
    a nonzero constant interlaces exactly the polynomials of degree <= 1.
    Shared roots and repeated roots are compared exactly.

    No root is isolated.  After the checks on degrees and real rootedness,
    both polynomials are divided by g = gcd(p, q); a quotient with a
    repeated root means some root has multiplicities in p and q that differ
    by two or more, which no alternation allows (Fisk).  Otherwise p/g
    interlaces q/g exactly when p interlaces q, and with both leading
    coefficients made positive that holds exactly when the Wronskian
    W = p'q - pq' of the quotients is <= 0 on the real line (Braenden):
    W is zero, or W has even degree, a negative leading coefficient and no
    real root of odd multiplicity.
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
    f, h = _int_poly(p), _int_poly(q)
    g = _gcd(f, h)
    f, h = _quo(f, g), _quo(h, g)
    if _has_repeated_root(f) or _has_repeated_root(h):
        return False
    if f[-1] < 0:
        f = _neg(f)
    if h[-1] < 0:
        h = _neg(h)
    w = _sub(_mul(_derivative(f), h), _mul(f, _derivative(h)))
    if not w:
        return True
    # odd degree would also show up as an odd multiplicity real root below,
    # but the parity test is free
    if len(w) % 2 == 0 or w[-1] > 0:
        return False
    return all(
        _real_root_count(_sturm_chain(factor)) == 0
        for factor, mult in _yun(w)
        if mult % 2
    )


def interlaces_checked(p: Poly, q: Poly) -> bool:
    """Like interlaces, but refuses non real rooted input outright."""
    for which, f in (("first", p), ("second", q)):
        if not is_real_rooted(f):
            raise ValueError(f"{which} argument is not real rooted: {f!r}")
    return interlaces(p, q)


def interlacing_failures(polys: Sequence[Poly]) -> list[tuple[int, int]]:
    """Index pairs (i, j) with i < j where polys[i] fails to interlace polys[j]."""
    out = []
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            if not interlaces(polys[i], polys[j]):
                out.append((i, j))
    return out


def is_interlacing_sequence(polys: Sequence[Poly]) -> bool:
    """Whether every earlier entry interlaces every later one."""
    return not interlacing_failures(polys)


@dataclass(frozen=True)
class DecompositionVerdict:
    """Certified facts about the split p = a + x*b inside degree window n."""

    a: Poly
    b: Poly
    n: int
    nonnegative: bool
    unimodal_pair: bool
    gamma_positive_pair: bool
    real_rooted_pair: bool
    interlacing: bool


def interlacing_symmetric_decomposition(p: Poly, n: int) -> DecompositionVerdict:
    """Certify structural positivity of the split p = a + x*b for window n.

    When the split is nonnegative (both a and b have nonnegative
    coefficients), four equivalent routes to the interlacing property are
    computed independently (b interlaces a, a interlaces p, b interlaces p,
    the reversal of p interlaces p) and any disagreement raises
    CertificationError.  A positive verdict also forces p itself to be real
    rooted, which is checked as well.
    """
    dec = symmetric_decomposition(p, n)
    a, b = dec.a, dec.b
    nonneg = all(c >= 0 for c in a.coeffs) and all(c >= 0 for c in b.coeffs)
    unimodal = is_unimodal(a) is not None and is_unimodal(b) is not None
    gamma_a = is_gamma_positive(a, n)
    gamma_b = True if b.is_zero() else is_gamma_positive(b, n - 1)
    rr_pair = is_real_rooted(a) and is_real_rooted(b)
    e1 = interlaces(b, a)
    if nonneg:
        e2 = interlaces(a, p)
        e3 = interlaces(b, p)
        e4 = interlaces(reciprocal(p, n), p)
        if not (e1 == e2 == e3 == e4):
            raise CertificationError(
                f"equivalent interlacing routes disagree on {p!r} in window {n}: "
                f"b|a={e1} a|p={e2} b|p={e3} rev|p={e4}"
            )
        if e1 and not is_real_rooted(p):
            raise CertificationError(
                f"interlacing decomposition found for non real rooted {p!r}"
            )
    return DecompositionVerdict(
        a=a,
        b=b,
        n=n,
        nonnegative=nonneg,
        unimodal_pair=unimodal,
        gamma_positive_pair=gamma_a and gamma_b,
        real_rooted_pair=rr_pair,
        interlacing=e1,
    )
