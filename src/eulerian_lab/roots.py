"""Exact decisions on real roots: real rootedness and interlacing.

Everything here is decided exactly, without floating point, on the
package's one exact polynomial kernel, ``_intpoly``: primitive integer
coefficient tuples, sign preserving pseudo remainders and signed remainder
sequences.  No decision isolates a root, counts roots on an interval or
divides by a gcd; each reads the signs of one signed remainder sequence at
-inf and +inf only.  A polynomial is real rooted when its Sturm chain counts as
many distinct real roots as it has distinct roots.  Interlacing rests on
two facts:

* the Cauchy index: for q != 0, the signed remainder sequence
  q, p, -rem(q, p), ... ends in g = gcd(p, q), and its sign variations at
  -inf minus those at +inf are the Cauchy index Ind(p/q) over the real
  line (Sturm-Tarski; S. Basu, R. Pollack and M.-F. Roy, "Algorithms in
  Real Algebraic Geometry", Thm 2.58).  For p, q with positive leading
  coefficients and deg q - deg p in {0, 1}, "p and q are real rooted and
  p interlaces q" holds exactly when Ind(p/q) = deg q - deg g and g is
  real rooted (S. Fisk, "Polynomials, roots, and interlacing",
  arXiv:math/0612833; the proof is in ``interlaces``).  So one sequence
  decides real rootedness and interlacing together: g is nearly always a
  constant or x, and it needs a Sturm chain of its own only when its
  degree is 2 or more.  A passed decision thus certifies both of its
  members real rooted.  No verdict is cached: callers read real
  rootedness off the passed decisions that hold a member, and decide it
  on its own only for a member that none holds;
* the chain lemma: for real rooted, nonconstant f_0..f_n with positive
  leading coefficients, f_i interlaces f_(i+1) for every i and f_0
  interlaces f_n exactly when f_i interlaces f_j for all i < j
  (P. Braenden, "Unimodality, log-concavity, real-rootedness and beyond",
  Handbook of Enumerative Combinatorics, 2015; Fisk).  A sequence of
  nonconstant members with positive leading coefficients is certified in
  n + 1 decisions, not n(n + 1)/2, since the passed decisions make every
  member real rooted; any other sequence, and one that fails a decision,
  is decided pair by pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from ._intpoly import (
    IntPoly,
    _cauchy_index,
    _int_poly,
    _neg,
    _signed_remainders,
    _sturm_chain,
)
from .poly import Poly, is_gamma_positive, is_unimodal, symmetric_decomposition

__all__ = [
    "is_real_rooted",
    "interlaces",
    "is_interlacing_sequence",
    "interlacing_failures",
    "DecompositionVerdict",
    "interlacing_symmetric_decomposition",
]

def _real_rooted(f: IntPoly) -> bool:
    """Whether a nonconstant integer polynomial has only real roots: its
    Sturm chain counts deg f - deg gcd(f, f') distinct real roots."""
    chain = _sturm_chain(f)
    return _cauchy_index(chain) == len(f) - len(chain[-1])


# -- public decisions ----------------------------------------------------------


def is_real_rooted(p: Poly) -> bool:
    """Whether all complex roots of p are real.

    The zero polynomial and nonzero constants count as real rooted (there
    is nothing to check).  Decided by one signed remainder sequence: p has
    deg p - deg gcd(p, p') distinct roots, and they are all real when the
    Sturm count at -inf and +inf finds that many.
    """
    if p.deg() <= 0:
        return True
    return _real_rooted(_int_poly(p.coeffs))


def interlaces(p: Poly, q: Poly) -> bool:
    """Decide whether p interlaces q (p below q in the interlacing order).

    For real rooted p, q with descending root lists a_1 >= a_2 >= ... and
    b_1 >= b_2 >= ... this requires deg q - deg p in {0, 1} and the
    alternation b_1 >= a_1 >= b_2 >= a_2 >= ...  Conventions: the zero
    polynomial interlaces every real rooted polynomial and conversely, and
    a nonzero constant interlaces exactly the polynomials of degree <= 1.
    Shared roots and repeated roots are compared exactly.  A True verdict
    certifies that p and q are both real rooted.

    No root is isolated, and real rootedness is not checked first.  After
    the checks on degrees, both leading coefficients are made positive and
    one signed remainder sequence q, p, -rem(q, p), ... is formed.  Its
    last entry is g = gcd(p, q), and its sign variations at -inf minus
    those at +inf are the Cauchy index Ind(p/q) (Basu, Pollack and Roy,
    Thm 2.58).  p and q are real rooted and p interlaces q exactly when
    Ind(p/q) = deg(q/g) and g is real rooted.  Each real pole of
    p/q = (p/g)/(q/g) adds +1, -1 or 0 to the index, so the equality holds
    exactly when q/g has deg(q/g) simple real roots and p/q has a positive
    residue (p/g)(b)/(q/g)'(b) at each of them.  Since (q/g)' alternates
    in sign over consecutive roots, so does p/g: it has a root strictly
    between any two, and, when deg p = deg q, one below the least, as p/q
    tends to lc(p)/lc(q) > 0 at -inf from below.  That is every root of
    p/g, so p/g is real rooted as well, and p = g (p/g) and q = g (q/g) are
    real rooted exactly when g is.  q/g squarefree also means that no
    shared root has multiplicities in p and q that differ by two or more
    (Fisk).  That is exactly the alternation.  Conversely, real rooted p
    and q with p interlacing q meet the equality, and g divides both, so g
    is real rooted.  When p = c*q the quotient q/g is constant, the index
    is 0 = deg(q/g), and the verdict is whether q is real rooted.  g is
    nearly always a constant or x; it needs a Sturm chain of its own only
    when deg g >= 2.
    """
    if p.is_zero():
        return is_real_rooted(q)
    if q.is_zero():
        return is_real_rooted(p)
    if p.deg() == 0:
        return q.deg() <= 1
    if q.deg() - p.deg() not in (0, 1):
        return False
    f, h = _int_poly(p.coeffs), _int_poly(q.coeffs)
    if f[-1] < 0:
        f = _neg(f)
    if h[-1] < 0:
        h = _neg(h)
    chain = _signed_remainders(h, f)
    g = chain[-1]
    return _cauchy_index(chain) == len(h) - len(g) and (len(g) <= 2 or _real_rooted(g))


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
    nonconstant and with positive leading coefficients.  Real rootedness is
    not checked first: a passed decision certifies both of its members, and
    every member is in one of the n + 1.  A zero member would break the
    shortcut, since zero interlaces every real rooted polynomial in both
    directions (the esd r = 2, n = 5 alternating row ends in 0 and passes
    the chain, yet fails at (0, 3) and (0, 4)).  In every other case, and
    whenever one of the n + 1 decisions fails, all n(n + 1)/2 pairs are
    decided, so the failures listed are always the complete list.
    """
    n = len(polys) - 1
    if (
        n >= 2
        and all(p.deg() >= 1 and p.coeffs[-1] > 0 for p in polys)
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

    Through interlacing_failures, a row of nonconstant members with positive
    leading coefficients is certified by the chain lemma
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
    """Certified facts about the split p = a + x*b inside degree window n.
    unimodal_pair and gamma_positive_pair are decided on first read, since
    only some verdicts need them."""

    a: Poly
    b: Poly
    n: int
    nonnegative: bool
    real_rooted_pair: bool
    interlacing: bool

    @cached_property
    def unimodal_pair(self) -> bool:
        return is_unimodal(self.a) is not None and is_unimodal(self.b) is not None

    @cached_property
    def gamma_positive_pair(self) -> bool:
        gamma_b = self.b.is_zero() or is_gamma_positive(self.b, self.n - 1)
        return is_gamma_positive(self.a, self.n) and gamma_b


def interlacing_symmetric_decomposition(p: Poly, n: int) -> DecompositionVerdict:
    """Certify structural positivity of the split p = a + x*b for window n.

    The interlacing field is the one decision b interlaces a.  When both
    parts are nonnegative it is equivalent to a interlacing p, to b
    interlacing p and to the reversal of p interlacing p, and it forces p
    to be real rooted; those routes are compared in the tests, not here.
    A passed interlacing decision certifies a and b real rooted, so the
    real_rooted_pair field is decided on its own only when it fails.
    """
    dec = symmetric_decomposition(p, n)
    a, b = dec.a, dec.b
    interlacing = interlaces(b, a)
    return DecompositionVerdict(
        a=a,
        b=b,
        n=n,
        nonnegative=all(c >= 0 for c in a.coeffs) and all(c >= 0 for c in b.coeffs),
        real_rooted_pair=interlacing or (is_real_rooted(a) and is_real_rooted(b)),
        interlacing=interlacing,
    )
