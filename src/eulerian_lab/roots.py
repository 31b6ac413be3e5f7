"""Exact decisions on real roots: real rootedness and interlacing.

Everything here is decided exactly, without floating point, on the
package's one exact polynomial kernel, ``_intpoly``: integer coefficient
tuples and signed subresultant remainder sequences, each entry a positive
multiple of the rational signed remainder, reached by exact divisions
with no gcd taken inside a sequence.  No decision isolates a root, counts
roots on an interval or divides by a gcd; each counts the sign variations
of one signed remainder sequence at -inf and +inf in one pass, as the
entries are formed, and keeps only its last entry.  A polynomial is real
rooted when its Sturm chain counts as many distinct real roots as it has
distinct roots.  Interlacing rests on three facts:

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
  is decided pair by pair;
* the gamma substitution t = x/(1+x)^2: a palindromic a in window n is
  (1+x)^n Gamma_a(t), Gamma_a its gamma polynomial of degree at most
  n/2.  When a and b (window n - 1) have nonnegative gamma vectors, b
  interlaces a exactly when Gamma_b interlaces Gamma_a (P. Braenden and
  L. Solus, "Symmetric decompositions and real-rootedness", IMRN 2021;
  T. K. Petersen, "Eulerian Numbers", 2015, ch. 4; the proof is in
  ``interlacing_symmetric_decomposition``), so a split is decided at half
  the degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from ._intpoly import (
    IntPoly,
    _index_and_last,
    _int_poly,
    _neg,
    _signed_remainders,
    _sturm_chain,
)
from .poly import Poly, _gammas, is_unimodal, symmetric_decomposition

__all__ = [
    "is_real_rooted",
    "interlaces",
    "interlacing_failures",
    "DecompositionVerdict",
    "interlacing_symmetric_decomposition",
]

def _real_rooted(f: IntPoly) -> bool:
    """Whether a nonconstant integer polynomial has only real roots: its
    Sturm chain counts deg f - deg gcd(f, f') distinct real roots."""
    index, g = _index_and_last(_sturm_chain(f))
    return index == len(f) - len(g)


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
    those at +inf, counted as the entries are formed, are the Cauchy index
    Ind(p/q) (Basu, Pollack and Roy, Thm 2.58).  p and q are real rooted
    and p interlaces q exactly when Ind(p/q) = deg(q/g) and g is real
    rooted.  Each real pole of
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
    index, g = _index_and_last(_signed_remainders(h, f))
    return index == len(h) - len(g) and (len(g) <= 2 or _real_rooted(g))


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


@dataclass(frozen=True)
class DecompositionVerdict:
    """Certified facts about the split p = a + x*b inside degree window n.
    gamma_positive_pair is read off the gamma vectors that the interlacing
    decision computes; unimodal_pair is decided on first read, since only
    some verdicts need it."""

    a: Poly
    b: Poly
    n: int
    nonnegative: bool
    real_rooted_pair: bool
    interlacing: bool
    gamma_positive_pair: bool

    @cached_property
    def unimodal_pair(self) -> bool:
        return is_unimodal(self.a) is not None and is_unimodal(self.b) is not None


def interlacing_symmetric_decomposition(p: Poly, n: int) -> DecompositionVerdict:
    """Certify structural positivity of the split p = a + x*b for window n.

    The interlacing field is the one decision b interlaces a.  When both
    parts are nonnegative it is equivalent to a interlacing p, to b
    interlacing p and to the reversal of p interlacing p, and it forces p
    to be real rooted; those routes are compared in the tests, not here.
    A passed interlacing decision certifies a and b real rooted, so the
    real_rooted_pair field is decided on its own only when it fails.

    The gamma vectors of a, in window n, and of b, in window n - 1, are
    computed once; gamma_positive_pair reads them.  b = 0 has the empty
    vector, also at n = 0, where the window of b is -1.  When both vectors
    are nonnegative, the decision runs on the gamma polynomials
    G_a(t) = sum gamma_i t^i and G_b, of degree at most floor(n/2), in
    place of b and a, of degree up to n: b interlaces a exactly when G_b
    interlaces G_a.  Otherwise it stays in window n.

    Proof.  With t(x) = x/(1+x)^2, a(x) = (1+x)^n G_a(t(x)) and
    b(x) = (1+x)^(n-1) G_b(t(x)).  On (-1, 0], t increases from -inf to
    0, with t'(x) = (1-x)/(1+x)^3 != 0.

    (i) A palindromic f in window m with a nonnegative gamma vector is real
    rooted exactly when G_f is.  Let z be the least index and e the degree
    of G_f.  G_f has nonnegative coefficients, so no positive root.  f has
    the root 0 with multiplicity z, as G_f has; each root tau < 0 of G_f
    of multiplicity mu gives the two roots x in (-1, 0) and 1/x < -1 of
    tau x^2 + (2 tau - 1) x + tau, each of multiplicity mu in f, as t' is
    nonzero there; and f has the root -1 with multiplicity m - 2e, since
    (1+x)^(2e) G_f(t(x)) = sum gamma_i x^i (1+x)^(2e-2i) is
    gamma_e (-1)^e != 0 at x = -1.  When G_f is real rooted, this is
    z + 2(e - z) + m - 2e = m - z = deg f real roots.  Conversely, f has
    nonnegative coefficients, so a real rooted f has its roots at most 0; a
    root tau != 0 of G_f is t(x) for each root x of the quadratic above,
    which is not -1 and so is a root of f, hence real, and tau = t(x) is
    real.  Zero entries inside the gamma vector play no part, and f = 0
    has G_f = 0.

    (ii) interlaces(0, q) and interlaces(q, 0) are the real rootedness of
    q, so a = 0 or b = 0 follows from (i).  For nonzero p and q, write
    N_f(s) and N+_f(s) for the numbers of roots of f, with multiplicity,
    at least s and above s.  Both for nonconstant members and for the
    conventions on nonzero constants, p interlaces q exactly when both
    are real rooted and 0 <= N_q(s) - N_p(s) <= 1 at every real s: as s
    falls below every root this is the degree condition, and at the roots
    it is the alternation.  By (i) both sides of the claim need a, b, G_a
    and G_b real rooted, so let them be, with every root at most 0.  For
    s in (-1, 0], t maps the roots of a in [s, 0] one to one, with
    multiplicity, onto those of G_a in [t(s), 0], so N_a(s) = N_G_a(t(s)),
    and likewise for b.  As t(s) runs over (-inf, 0], and both counts
    vanish above 0, the condition on (-1, 0] is exactly G_b interlacing
    G_a.  For s <= -1, a(x) = x^n a(1/x) maps the roots of a below s one to
    one onto its nonzero roots above 1/s, so with deg a = n - z_a,
    N_a(s) = n - N+_a(1/s), and N_b(s) = n - 1 - N+_b(1/s) in window n - 1.
    The difference N_a(s) - N_b(s) = 1 - (N+_a(u) - N+_b(u)) at
    u = 1/s in [-1, 0), and N+_f(u) is N_f(u') for u' just above u in
    (-1, 0), so the difference is in {0, 1} whenever the condition holds
    on (-1, 0].  The offset of one window between a and b is what the
    root -1, of multiplicities n - 2 deg G_a and n - 1 - 2 deg G_b, gives.
    n = 1 has a = gamma_0 (1+x) and a constant b, and n = 0 has b = 0;
    both are covered.

    The guard is needed: 1 + 12x^2 in window 2 splits into
    a = 1 - 11x + x^2, with G_a = 1 - 13t, and b = 11 + 11x, with
    G_b = 11.  G_b interlaces G_a, but b, with the root -1, does not
    interlace a, whose two roots are positive: t maps both to the root
    1/13 of G_a in (0, 1/4], so the counts on (-1, 0] see neither.
    """
    dec = symmetric_decomposition(p, n)
    a, b = dec.a, dec.b
    gamma_a = _gammas(a, n)
    gamma_b = _gammas(b, n - 1) if b.coeffs else []
    gamma_positive = all(g >= 0 for g in gamma_a) and all(g >= 0 for g in gamma_b)
    if gamma_positive:
        interlacing = interlaces(Poly(gamma_b), Poly(gamma_a))
    else:
        interlacing = interlaces(b, a)
    return DecompositionVerdict(
        a=a,
        b=b,
        n=n,
        nonnegative=all(c >= 0 for c in a.coeffs) and all(c >= 0 for c in b.coeffs),
        real_rooted_pair=interlacing or (is_real_rooted(a) and is_real_rooted(b)),
        interlacing=interlacing,
        gamma_positive_pair=gamma_positive,
    )
