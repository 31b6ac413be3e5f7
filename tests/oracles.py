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
``oracle_des_B_tally`` walks every signed word, and
``oracle_descent_set_counts`` walks S_n by descent mask; the library
counts S_n by descent set with multinomials and one Moebius pass, and
evaluates each sign mask with bit operations.
``oracle_flag_excedance_rows`` walks every colored word; the library
counts the colored words of every size in one dynamic program over the
sets of placed values.
``oracle_sweep_histogram`` walks every word of S_m and counts it by one
joint key of all the statistics that the S_n families read; the library
counts two marginals of that key, the map and word tallies of
``permutations.symmetric_tallies``, by a dynamic program over the sets of
placed values, and ``oracle_marginals`` splits the joint key into them.
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
polynomials.  ``alternating_restriction_sum`` writes each relative local h
out from its definition, one restriction h per mask; the library decodes
it off the Moebius table of ``identity_suite``.
``oracle_h_where`` and the oracles built on it read the h-polynomials and
f-triangle rows of a carried triangulation by counting its faces by
carrier mask and size (``oracle_carrier_counts``, a walk of its own over
the faces) and keeping the carrier masks a test asks for; the library
reads one row of its per-mask face table.
``oracle_h_from_row`` sums each face count times a ``Poly`` power of
1 - x, ``oracle_f_row`` sums each h entry times a power of 1 + x, and
``oracle_interior_rows`` reads every interior count through
``FTriangle.f`` with a sign ``(-1) ** (m - j)``; the library forms each
h-row and f-row by one (1 +- x) pass over a list of ints, and each interior
row by adding signed binomial multiples of whole rows into one list.
``oracle_facets`` probes every vertex outside each face for a larger face;
the library removes the faces one vertex below another face in one pass.
``oracle_gamma_expand``, ``oracle_basis_p_coeffs`` and
``oracle_symmetric_decomposition`` peel and divide on ``Poly`` values with
``Fraction`` scalars; the library peels the stored coefficients in place
and reads the split off one prefix-sum pass.
``oracle_eq_case``, ``oracle_sample_case`` and ``oracle_worpitzky_cases``
build each case's detail text with the case; the library builds it on
first read.  ``eager_case_result`` renders a detail as its case is made.
``oracle_signed_remainders`` forms each entry of a signed remainder
sequence as the primitive part of a pseudo remainder, with a gcd taken at
every elimination step; the library divides each pseudo remainder by a
factor known in advance and takes no gcd.
``oracle_cauchy_index`` reads the Cauchy index off a listed sequence, by
two lists of signs; the library counts it in one pass as the entries are
formed.  ``oracle_int_poly`` rescales every coefficient list by the lcm of
its denominators; the library divides an integer list by its content only.

``is_interlacing_sequence``, ``induced``, ``restriction``,
``antiprism_partial`` and ``euler_characteristic`` serve the tests only, so
they live here and not in the package.  So does the per-word layer:
``Permutation``, ``PermStats``, ``stats``, ``fix_k``, ``bad_k``, ``des_B``
and the group iterators ``symmetric_group``, ``signed_permutations`` and
``colored_permutations``, each metered by the group budget on its number
of words.
"""

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence, Union

from eulerian_lab._intpoly import _int_poly, _neg, _signed_remainders
from eulerian_lab.budget import check_group_budget
from eulerian_lab.errors import CertificationError
from eulerian_lab.poly import (
    ONE,
    X,
    ZERO,
    GammaVector,
    Poly,
    SymmetricDecomposition,
    basis_p_combination,
    is_symmetric,
    linear_combination,
    one_plus_x_power,
    reciprocal,
)
from eulerian_lab.roots import (
    interlaces,
    interlacing_failures,
    interlacing_symmetric_decomposition,
    is_real_rooted,
)
from eulerian_lab.simplicial import (
    AntiprismSphere,
    CarriedTriangulation,
    SimplicialComplex,
    _submasks_over,
    derangement_transform,
    eulerian_transform,
)
from eulerian_lab import suites
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


def _oracle_primitive(cs) -> tuple[int, ...]:
    """Strip trailing zeros and divide out the (positive) content."""
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    content = math.gcd(*cs[:n])
    if content <= 1:
        return tuple(cs[:n])
    return tuple(c // content for c in cs[:n])


def _oracle_prem(a, b) -> tuple[int, ...]:
    """Primitive part of a positive multiple of the remainder of a by b != 0.
    Each elimination step scales the running remainder by |lc b| over its
    gcd with the current leading coefficient, a positive factor."""
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
    return _oracle_primitive(r)


def oracle_signed_remainders(a, b) -> list[tuple[int, ...]]:
    """Signed remainder sequence a, b, -rem(a, b), ... of a nonzero integer
    polynomial a, each later entry the primitive part of a positive multiple
    of the rational one; it stops before the first zero."""
    chain = [a]
    while b:
        chain.append(b)
        b = _neg(_oracle_prem(chain[-2], b))
    return chain


def oracle_int_poly(cs) -> tuple[int, ...]:
    """Rational coefficients cs, without trailing zeros, times the lcm of
    their denominators and divided by the content of the result."""
    lcm = math.lcm(*(Fraction(c).denominator for c in cs))
    ints = [int(c * lcm) for c in cs]
    content = math.gcd(*ints)
    return tuple(c // content for c in ints)


def _variations(signs: Sequence[bool]) -> int:
    return sum(a != b for a, b in zip(signs, signs[1:]))


def oracle_cauchy_index(chain: Sequence[tuple[int, ...]]) -> int:
    """Sign variations at -inf minus those at +inf of a listed signed
    remainder sequence a, b, ...: the Cauchy index of b/a over the real
    line, read off two lists of signs.  No entry is zero, so each has the
    sign of its leading coefficient at +inf, and the opposite sign at -inf
    when its degree is odd."""
    at_pos_inf = [f[-1] > 0 for f in chain]
    at_neg_inf = [(f[-1] > 0) == (len(f) % 2 == 1) for f in chain]
    return _variations(at_neg_inf) - _variations(at_pos_inf)


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
    chain = list(_signed_remainders(h, f))
    return oracle_cauchy_index(chain) == len(h) - len(chain[-1])


# -- the per-word layer: permutations as words, their statistics and the
# group iterators.  The library counts every group by a dynamic program and
# generates no word; these walk the words one at a time.

PermLike = Union["Permutation", Sequence[int]]


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1, ..., n} in one-line notation."""

    word: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.word)
        if sorted(self.word) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.word!r}")

    @property
    def n(self) -> int:
        return len(self.word)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= len(self.word):
            raise IndexError(f"position {i} out of range 1..{len(self.word)}")
        return self.word[i - 1]


def _word(w: PermLike) -> tuple[int, ...]:
    if isinstance(w, Permutation):
        return w.word
    return tuple(w)


@dataclass(frozen=True)
class PermStats:
    """All statistics of one permutation, computed in a single pass.

    Positions are 1-based throughout.  rl_minima uses the weak convention
    (w(i) <= w(j) for all j >= i); for distinct values this coincides with
    the strict one.  decreasing_runs partitions the positions 1..n into the
    maximal blocks on which the word strictly decreases.
    """

    des: int
    asc: int
    exc: int
    fix_set: frozenset[int]
    lr_maxima: tuple[int, ...]
    rl_minima: tuple[int, ...]
    decreasing_runs: tuple[tuple[int, ...], ...]


def stats(w: PermLike) -> PermStats:
    word = _word(w)
    n = len(word)
    des = sum(1 for i in range(n - 1) if word[i] > word[i + 1])
    asc = (n - 1 if n else 0) - des
    # values never exceed n, so w(i) > i is impossible at i = n and this
    # matches the convention that counts excedances over i < n only
    exc = sum(1 for i in range(n) if word[i] > i + 1)
    fix_set = frozenset(i + 1 for i in range(n) if word[i] == i + 1)

    lr: list[int] = []
    best = 0
    for i in range(n):
        if word[i] > best:
            lr.append(i + 1)
            best = word[i]

    rl: list[int] = []
    cur = n + 1
    for i in range(n - 1, -1, -1):
        if word[i] <= cur:
            rl.append(i + 1)
            cur = word[i]
    rl.reverse()

    runs: list[tuple[int, ...]] = []
    start = 0
    for i in range(1, n + 1):
        if i == n or word[i - 1] < word[i]:
            runs.append(tuple(range(start + 1, i + 1)))
            start = i

    return PermStats(
        des=des,
        asc=asc,
        exc=exc,
        fix_set=fix_set,
        lr_maxima=tuple(lr),
        rl_minima=tuple(rl),
        decreasing_runs=tuple(runs),
    )


def fix_k(w: PermLike, k: int) -> int:
    """Number of fixed points i with i <= k."""
    word = _word(w)
    if not 0 <= k <= len(word) + 1:
        raise ValueError(f"k={k} out of range for size {len(word)}")
    return sum(1 for i in range(min(k, len(word))) if word[i] == i + 1)


def bad_k(w: PermLike, k: int) -> int:
    """Positions i where w(i) <= k is a weak right-to-left minimum and either
    i = 1 or w(i-1) < w(i).  The identity permutation scores exactly k."""
    word = _word(w)
    n = len(word)
    if not 0 <= k <= n + 1:
        raise ValueError(f"k={k} out of range for size {n}")
    count = 0
    cur = n + 1
    suffix_min = [0] * n
    for i in range(n - 1, -1, -1):
        suffix_min[i] = cur = min(cur, word[i])
    for i in range(n):
        if word[i] > k or word[i] > suffix_min[i]:
            continue
        if i == 0 or word[i - 1] < word[i]:
            count += 1
    return count


def symmetric_group(n: int) -> Iterator[tuple[int, ...]]:
    """All of S_n in lexicographic order, as raw value tuples."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    check_group_budget(math.factorial(n), f"S_{n}")
    return itertools.permutations(range(1, n + 1))


def signed_permutations(n: int) -> Iterator[tuple[int, ...]]:
    """All signed permutations of 1..n as tuples of nonzero signed values."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    check_group_budget((2**n) * math.factorial(n), f"signed permutations of size {n}")

    def gen() -> Iterator[tuple[int, ...]]:
        for base in itertools.permutations(range(1, n + 1)):
            for signs in itertools.product((1, -1), repeat=n):
                yield tuple(s * v for s, v in zip(signs, base))

    return gen()


def colored_permutations(
    n: int, r: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All pairs (word, colors) with colors in {0, ..., r-1}^n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if r < 1:
        raise ValueError("r must be positive")
    check_group_budget(
        (r**n) * math.factorial(n), f"{r}-colored permutations of size {n}"
    )

    def gen() -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        for base in itertools.permutations(range(1, n + 1)):
            for colors in itertools.product(range(r), repeat=n):
                yield base, colors

    return gen()


def des_B(w: Sequence[int]) -> int:
    """Descents of a signed word read with a fixed 0 prepended at position 0."""
    word = tuple(w)
    n = len(word)
    count = 1 if n and word[0] < 0 else 0
    count += sum(1 for i in range(n - 1) if word[i] > word[i + 1])
    return count


def oracle_flag_excedance_rows(n: int, r: int) -> tuple[Poly, ...]:
    """flag_excedance_poly(n, r, k) for k = 0..n, from one sweep of the
    colored words that tallies fexc / r over the balanced words by their
    largest zero-colour fixed point (0 if none); row k sums the tallies up
    to k."""
    by_top = [Counter() for _ in range(n + 1)]
    for word, colors in colored_permutations(n, r):
        flag = sum(colors)
        if flag % r:
            continue
        top = 0
        for i in range(n):
            if colors[i] == 0:
                if word[i] == i + 1:
                    top = i + 1
                elif word[i] > i + 1:
                    flag += r
        by_top[top][flag // r] += 1
    rows = []
    total: Counter = Counter()
    for tally in by_top:
        total.update(tally)
        rows.append(linear_combination((c, ONE, e) for e, c in total.items()))
    return tuple(rows)


def oracle_descent_set_counts(n: int) -> Counter:
    """How many permutations of S_n have each descent mask (bit i: w(i+1) >
    w(i+2)), by walking S_n."""
    return Counter(
        sum(1 << i for i in range(n - 1) if base[i] > base[i + 1])
        for base in itertools.permutations(range(1, n + 1))
    )


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


# Fields of an oracle_sweep_histogram key.
(
    SWEEP_DES, SWEEP_EXC, SWEEP_FIX, SWEEP_BAD, SWEEP_FIRST, SWEEP_INV1,
    SWEEP_LAST, SWEEP_FIRST_SINGLE, SWEEP_LATER_SINGLE,
) = range(9)


def oracle_sweep_histogram(m: int) -> Counter:
    """One pass over S_m: how many permutations share each key

    (des, exc, fix mask, bad mask, w(1), w^{-1}(1), w(m),
     first decreasing run is a singleton, a later one is a singleton).

    Bit i-1 of the fix mask marks the fixed point i, and bit v-1 of the bad
    mask marks the value v that bad_k counts.  The empty permutation has
    the key of zeros.
    """
    hist: Counter = Counter()
    for w in itertools.permutations(range(1, m + 1)):
        if not w:
            hist[0, 0, 0, 0, 0, 0, 0, False, False] += 1
            continue
        exc = fix = bad = inv1 = up = 0
        low = m + 1
        for i in range(m - 1, -1, -1):
            v = w[i]
            if v > i + 1:
                exc += 1
            elif v == i + 1:
                fix |= 1 << i
            if v == 1:
                inv1 = 1 + i
            if v < low:
                low = v
                if i == 0 or w[i - 1] < v:
                    bad |= 1 << (v - 1)
            if i < m - 1 and v < w[i + 1]:
                up |= 1 << i
        # a decreasing run ends at every ascent and at position m, and a run
        # is a singleton when it also starts there
        ends = up | 1 << (m - 1)
        key = (m - 1 - up.bit_count(), exc, fix, bad, w[0], inv1, w[-1],
               bool(ends & 1), bool(up & ends >> 1))
        hist[key] += 1
    return hist


def oracle_marginals(hist: Counter) -> tuple[Counter, Counter]:
    """The joint histogram summed down to the map tally (exc, w^{-1}(1),
    fix mask) and the word tally (des, w(1), bad mask, w(m), first run is a
    singleton, a later one is) of ``permutations.symmetric_tallies``."""
    maps, words = Counter(), Counter()
    for key, c in hist.items():
        maps[key[SWEEP_EXC], key[SWEEP_INV1], key[SWEEP_FIX]] += c
        words[
            key[SWEEP_DES], key[SWEEP_FIRST], key[SWEEP_BAD], key[SWEEP_LAST],
            key[SWEEP_FIRST_SINGLE], key[SWEEP_LATER_SINGLE],
        ] += c
    return maps, words


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


def oracle_h_from_row(row, window: int) -> Poly:
    """sum(row[i] x^i (1-x)^(window-i)) over Poly powers of 1 - x; a face
    past the window raises the library's ValueError."""
    if any(row[window + 1 :]):
        raise ValueError(f"faces of size above {window} in the window {window}")
    return linear_combination(
        (c, Poly((1, -1)) ** (window - i), i) for i, c in enumerate(row[: window + 1])
    )


def oracle_f_row(h, m: int) -> tuple[int, ...]:
    """The face counts sum_k h_k x^k (1+x)^(m-k) of an h-row in window m."""
    return linear_combination((c, one_plus_x_power(m - k), k) for k, c in enumerate(h)).coeffs


def oracle_interior_rows(triangle) -> tuple[tuple[int, ...], ...]:
    """[m][i] = sum_j (-1)^(m-j) C(m, j) f(i, j), one entry at a time."""
    return tuple(
        tuple(
            sum((-1) ** (m - j) * math.comb(m, j) * triangle.f(i, j) for j in range(i, m + 1))
            for i in range(m + 1)
        )
        for m in range(triangle.n + 1)
    )


def oracle_facets(c) -> tuple[frozenset, ...]:
    """The faces of the complex c that no vertex extends to a face, in the
    complex's face order."""
    out = [
        f
        for f in c.faces
        if not any(f | {v} in c.faces for v in c.vertex_order if v not in f)
    ]
    return tuple(sorted(out, key=c._face_key))


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


def alternating_restriction_sum(t, emask: int, fmask: int) -> Poly:
    """The relative local h-polynomial L(E, F) written out from its
    definition: the sum over E <= G <= F of (-1)^(|F| - |G|) h_G."""
    m = bin(fmask).count("1")
    total = Poly(())
    for gmask in range(fmask + 1):
        if gmask & emask == emask and gmask & ~fmask == 0:
            sign = -1 if (m - bin(gmask).count("1")) % 2 else 1
            total = total + t.restriction_h(gmask) * sign
    return total


def oracle_identity_suite(t) -> list[tuple[str, bool, str]]:
    """(name, ok, detail) of each case of suites.identity_suite, every
    identity summed on Poly terms: one term per base face, and each relative
    local h written out by alternating_restriction_sum.  The library decides
    the interval identities on their values at one certified power of two."""
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

    # every relative local h, each written out once
    local = {
        (emask, fmask): alternating_restriction_sum(t, emask, fmask)
        for fmask in range(1 << n)
        for emask in _submasks_over(0, fmask)
    }
    lhs = local[0, full]
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
        lhs = local[emask, full]
        rhs = linear_combination((1, relative[f, (emask | f).bit_count()], 0) for f in thetas)
        cases.append(("relative-local-h-from-theta", lhs == rhs, f"E mask {emask}"))

        comp = full & ~emask
        rhs = linear_combination(
            (1, local[0, fmask], 0) for fmask in _submasks_over(comp, full)
        )
        cases.append(("relative-local-h-from-restrictions", lhs == rhs, f"E mask {emask}"))

        if emask.bit_count() == n - 1:
            diff = t.restriction_h(full) - t.restriction_h(emask)
            cases.append(("facet-difference", lhs == diff, f"E mask {emask}"))

        for gmask in _submasks_over(emask, full):
            rhs = linear_combination(
                (1, local[emask, fmask], 0) for fmask in _submasks_over(emask, gmask)
            )
            ok = t.restriction_h(gmask) == rhs
            cases.append(("h-from-relative-local-h", ok, f"E mask {emask} G mask {gmask}"))

    return cases


def is_interlacing_sequence(polys) -> bool:
    """Whether every earlier entry interlaces every later one."""
    return not interlacing_failures(polys)


def induced(c: SimplicialComplex, keep) -> SimplicialComplex:
    """The subcomplex of c induced on the vertex set keep.  Every subface of
    a kept face is a face of c inside keep, and each kept vertex keeps its
    face {v}, so the result is closed and built unchecked."""
    keep_set = set(keep)
    faces = frozenset(f for f in c.faces if f <= keep_set)
    order = tuple(v for v in c.vertex_order if v in keep_set)
    return SimplicialComplex._trusted(faces, order)


def restriction(t: CarriedTriangulation, face) -> CarriedTriangulation:
    """The carried triangulation induced on a base face."""
    fmask = t.base_mask(face)
    keep = [u for u in t.complex.vertex_order if t.base_mask(t.carrier[u]) & ~fmask == 0]
    base = tuple(v for i, v in enumerate(t.base_vertices) if fmask >> i & 1)
    return CarriedTriangulation(induced(t.complex, keep), base, t.carrier)


def euler_characteristic(c: SimplicialComplex) -> int:
    """The alternating count of the nonempty faces of c."""
    return sum((-1) ** (len(f) - 1) for f in c.faces if f)


def antiprism_partial(sphere: AntiprismSphere, k: int) -> SimplicialComplex:
    """The induced subcomplex keeping only the first k apex vertices."""
    if not 0 <= k <= sphere.n:
        raise ValueError(f"k={k} out of range 0..{sphere.n}")
    dropped = set(sphere.u_vertices[k:])
    return induced(sphere.complex, [v for v in sphere.complex.vertex_order if v not in dropped])


def oracle_gamma_expand(p: Poly, n: int) -> GammaVector | None:
    """gamma_expand peeled on Poly values with Fraction scalars."""
    if not is_symmetric(p, n):
        return None
    gammas = []
    residual = p
    for k in range(n // 2 + 1):
        g = residual[k]
        gammas.append(g)
        if g != 0:
            residual = residual - one_plus_x_power(n - 2 * k).times_x_power(k) * g
    assert residual.is_zero()
    return GammaVector(n=n, gammas=tuple(gammas))


def oracle_basis_p_coeffs(p: Poly, n: int) -> tuple[Fraction, ...]:
    """basis_p_coeffs peeled on Poly values with Fraction scalars."""
    if p.deg() > n:
        raise ValueError(f"degree {p.deg()} exceeds window {n}")
    residual = p
    out = [Fraction(0)] * (n + 1)
    for k in range(n, -1, -1):
        c = residual[n - k]
        out[k] = c
        if c != 0:
            residual = residual - one_plus_x_power(k).times_x_power(n - k) * c
    assert residual.is_zero()
    return tuple(out)


def oracle_symmetric_decomposition(p: Poly, n: int) -> SymmetricDecomposition:
    """symmetric_decomposition by long division of p - x^n p(1/x) by x - 1."""
    if p.deg() > n:
        raise ValueError(f"degree {p.deg()} exceeds window {n}")
    b = (p - reciprocal(p, n)).exact_div(X - ONE)
    a = p - b.times_x_power(1)
    assert is_symmetric(a, n) and is_symmetric(b, n - 1) if n >= 1 else b.is_zero()
    return SymmetricDecomposition(a=a, b=b, n=n)


def eager_case_result(name: str, status: str, detail="") -> CaseResult:
    """A CaseResult whose detail is rendered now, as the case is made."""
    return CaseResult(name, status, detail if isinstance(detail, str) else detail())


def oracle_eq_case(name: str, got: Poly, want: Poly) -> CaseResult:
    """suites._eq_case with its detail built with the case."""
    ok = got == want
    want_text = want.to_text()
    got_text = want_text if ok else got.to_text()
    return CaseResult(name, "pass" if ok else "fail", f"got {got_text}, want {want_text}")


def oracle_sample_case(
    name: str, ok: bool, lp: Poly, limage: Poly, mult: int, verdict
) -> CaseResult:
    """suites._sample_case with its detail built with the case."""
    scale = Fraction(1, mult)
    return _sample_case(name, ok, lp * scale, limage * scale, verdict)


def oracle_worpitzky_cases(n: int) -> list[CaseResult]:
    """suites.worpitzky_cases with each detail built with its case; the
    targets are read through the suites module, as the library reads them."""
    m_top = n + 3
    one_minus = (ONE - X) ** (n + 1)
    rows = [
        (f"worpitzky-p-{n}-{k}", lambda m, k=k: m**k * (m + 1) ** (n - k), suites.pnk(n, k))
        for k in range(n + 1)
    ]
    rows.append((f"worpitzky-B-{n}", lambda m: (2 * m + 1) ** n, suites.typeB_eulerian(n)))
    cases = []
    for name, term, target in rows:
        prod = Poly([term(m) for m in range(m_top + 1)]) * one_minus
        ok = all(prod[i] == target[i] for i in range(m_top + 1))
        detail = f"truncated product {prod.to_text()} vs {target.to_text()}"
        cases.append(CaseResult(name, "pass" if ok else "fail", detail))
    return cases
