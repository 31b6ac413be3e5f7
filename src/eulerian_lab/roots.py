"""Exact real root analysis built on Sturm chains.

Everything here is decided exactly, without floating point: distinct root
counts over half open intervals (lo, hi], real rootedness, isolating
intervals with multiplicities, and the interlacing partial order on real
rooted polynomials.

All of it runs on the package's one exact polynomial kernel, ``_intpoly``:
primitive integer coefficient tuples, sign preserving pseudo remainders,
gcds by primitive remainder sequences, squarefree parts, Yun
decompositions and Sturm chains.  The decisions never isolate a root; they
read Sturm signs at -inf and +inf only.  A polynomial is real rooted when
its Sturm chain counts as many distinct real roots as it has distinct
roots.  Interlacing rests on three facts:

* the Wronskian criterion: for real rooted p, q with positive leading
  coefficients, p interlaces q exactly when W = p'q - pq' <= 0 on the whole
  real line (P. Braenden, "Unimodality, log-concavity, real-rootedness and
  beyond", Handbook of Enumerative Combinatorics, 2015);
* common factors: p interlaces q exactly when p/g interlaces q/g for
  g = gcd(p, q), provided neither quotient keeps a repeated root; a root
  whose multiplicities in p and q differ by two or more breaks the
  alternation (S. Fisk, "Polynomials, roots, and interlacing",
  arXiv:math/0612833);
* the chain lemma: for real rooted, nonconstant f_0..f_n with positive
  leading coefficients, f_i interlaces f_(i+1) for every i and f_0
  interlaces f_n exactly when f_i interlaces f_j for all i < j (Braenden;
  Fisk).  A sequence that meets these hypotheses is certified in n + 1
  decisions, not n(n + 1)/2; any other sequence, and one that fails a
  decision, is decided pair by pair.

W <= 0 everywhere holds when W is zero, or when W has even degree, a
negative leading coefficient, and no real root of odd multiplicity; the
last condition is a Sturm count at +-inf on each odd multiplicity factor
of the Yun decomposition of W.

Root isolation (``isolate_roots``) bisects on Sturm counts of the
squarefree part at rational points and reads each multiplicity off the
Yun factor with a root there.  It shares the kernel with the decisions,
so the root-list oracle of the interlacing tests is not independent of
them; the independent check of isolation is the test on polynomials built
from known rational roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from ._intpoly import (
    IntPoly,
    _derivative,
    _gcd,
    _has_repeated_root,
    _int_poly,
    _mul,
    _neg,
    _quo,
    _real_root_count,
    _sign_at,
    _squarefree_part,
    _sturm_chain,
    _sub,
    _variations_at,
    _variations_neg_inf,
    _variations_pos_inf,
    _yun,
)
from .poly import Poly, is_gamma_positive, is_unimodal, symmetric_decomposition

__all__ = [
    "sturm_distinct_real_roots",
    "is_real_rooted",
    "IsolatingInterval",
    "isolate_roots",
    "interlaces",
    "is_interlacing_sequence",
    "interlacing_failures",
    "DecompositionVerdict",
    "interlacing_symmetric_decomposition",
]

# Entries kept by the is_real_rooted cache.  Callers reuse a verdict within
# one row or one sample; a bound keeps long sampling runs from growing it.
_REAL_ROOTED_CACHE_SIZE = 512

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
    chain = _sturm_chain(_squarefree_part(_int_poly(p.coeffs)))
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
    chain = _sturm_chain(_int_poly(p.coeffs))
    return _real_root_count(chain) == p.deg() - (len(chain[-1]) - 1)


# -- root isolation -----------------------------------------------------------
#
# Bisection on Sturm counts at rational points.  Only isolate_roots uses it;
# the decisions above never isolate a root.


def _root_bound_pow2(f: IntPoly) -> int:
    # power of two strictly exceeding the magnitude of every root
    m = max((abs(c) for c in f[:-1]), default=0)
    return 2 ** (1 + m // abs(f[-1])).bit_length()


def _isolate_squarefree(f: IntPoly) -> list[tuple[Fraction, Fraction]]:
    """Disjoint isolating intervals for the roots of a squarefree,
    nonconstant f.

    Pairs (lo, hi) come back sorted; lo == hi marks an exact rational root,
    otherwise the unique root sits strictly inside (lo, hi) and f(hi) != 0.
    """
    chain = _sturm_chain(f)
    bound = _root_bound_pow2(f)
    a, b = Fraction(-bound), Fraction(bound)
    out: list[tuple[Fraction, Fraction]] = []
    stack = [(a, _variations_at(chain, a), b, _variations_at(chain, b))]
    while stack:
        lo, vlo, hi, vhi = stack.pop()
        cnt = vlo - vhi
        if cnt == 0:
            continue
        if cnt == 1:
            if _sign_at(f, hi) == 0:
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
    f = _int_poly(p.coeffs)
    sf = _squarefree_part(f)
    factors = [(h, _sturm_chain(h), mult) for h, mult in _yun(f)]
    out = []
    for lo, hi in _isolate_squarefree(sf):
        # the one Yun factor with a root at the point, or in (lo, hi]
        if lo == hi:
            mult = next(m for h, _, m in factors if _sign_at(h, lo) == 0)
        else:
            mult = next(
                m
                for _, chain, m in factors
                if _variations_at(chain, lo) - _variations_at(chain, hi) == 1
            )
            if max_width is not None:
                # the root is simple in sf, so sf changes sign across it
                s_hi = _sign_at(sf, hi)
                while lo != hi and hi - lo > max_width:
                    mid = (lo + hi) / 2
                    s_mid = _sign_at(sf, mid)
                    if s_mid == 0:
                        lo = hi = mid
                    elif s_mid == s_hi:
                        hi = mid
                    else:
                        lo = mid
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
    f, h = _int_poly(p.coeffs), _int_poly(q.coeffs)
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


def interlacing_failures(polys: Sequence[Poly]) -> list[tuple[int, int]]:
    """Index pairs (i, j) with i < j where polys[i] fails to interlace polys[j].

    A row f_0..f_n is first tried with n + 1 decisions: the outer pair
    (0, n) and the n consecutive pairs.  By the chain lemma (P. Braenden,
    "Unimodality, log-concavity, real-rootedness and beyond", Handbook of
    Enumerative Combinatorics, 2015; S. Fisk, "Polynomials, roots, and
    interlacing", arXiv:math/0612833), if real rooted, nonconstant f_i
    with positive leading coefficients satisfy f_i <= f_(i+1) for every i
    and f_0 <= f_n, then f_i <= f_j for all i < j.  Counting roots >= t
    with multiplicity as N_i(t), p <= q says 0 <= N_q(t) - N_p(t) <= 1 at
    every t, so the counts grow with i and f_0 <= f_n bounds the growth
    from i to j by 1.  The degree windows come along at t = -inf: each
    consecutive degree step is 0 or 1, and the outer pair bounds their sum
    by 1.

    The shortcut applies only to rows of three or more members that are all
    real rooted, nonconstant and with positive leading coefficients.  A
    zero member would break it, since zero interlaces every real rooted
    polynomial in both directions (the esd r = 2, n = 5 alternating row
    ends in 0 and passes the chain, yet fails at (0, 3) and (0, 4)).  In
    every other case, and whenever one of the n + 1 decisions fails, all
    n(n + 1)/2 pairs are decided, so the failures listed are always the
    complete list.
    """
    n = len(polys) - 1
    if (
        n >= 2
        and all(p.deg() >= 1 and p.coeffs[-1] > 0 and is_real_rooted(p) for p in polys)
        and interlaces(polys[0], polys[n])
        and all(interlaces(polys[i], polys[i + 1]) for i in range(n))
    ):
        return []
    out = []
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            if not interlaces(polys[i], polys[j]):
                out.append((i, j))
    return out


def is_interlacing_sequence(polys: Sequence[Poly]) -> bool:
    """Whether every earlier entry interlaces every later one.

    Through interlacing_failures, a row of real rooted, nonconstant members
    with positive leading coefficients is certified by the chain lemma
    (Braenden, Handbook of Enumerative Combinatorics, 2015; Fisk,
    arXiv:math/0612833) in n + 1 decisions: f_i <= f_(i+1) for each i and
    f_0 <= f_n.  Consecutive
    degree steps are 0 or 1 and the outer pair bounds their sum by 1, so
    every pair also meets its degree window.  Other rows are decided pair
    by pair.
    """
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

    The interlacing field is the one decision b interlaces a.  When both
    parts are nonnegative it is equivalent to a interlacing p, to b
    interlacing p and to the reversal of p interlacing p, and it forces p
    to be real rooted; those routes are compared in the tests, not here.
    """
    dec = symmetric_decomposition(p, n)
    a, b = dec.a, dec.b
    gamma_b = True if b.is_zero() else is_gamma_positive(b, n - 1)
    return DecompositionVerdict(
        a=a,
        b=b,
        n=n,
        nonnegative=all(c >= 0 for c in a.coeffs) and all(c >= 0 for c in b.coeffs),
        unimodal_pair=is_unimodal(a) is not None and is_unimodal(b) is not None,
        gamma_positive_pair=is_gamma_positive(a, n) and gamma_b,
        real_rooted_pair=is_real_rooted(a) and is_real_rooted(b),
        interlacing=interlaces(b, a),
    )
