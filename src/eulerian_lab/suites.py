"""Named verification suites shared by the test battery and the CLI.

Each engine returns a flat list of CaseResult records so callers can render
them as a report or assert that every status is "pass".  A case's detail
text is built when it is first read, not when the case is decided: the text
report reads it only for failing cases, so a passing run renders no
polynomial.  The suites pit
independent routes against each other: closed forms against full-group
enumerations, geometric face counts against permutation statistics, and
certified decompositions against sampled inputs.  Every case of the
package is decided here; simplicial only builds complexes, counts faces
and derives polynomials.  Real rootedness is read off the interlacing
decisions that certify it (see roots).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import comb, lcm
from typing import Callable, Union

from .errors import CertificationError
from .poly import (
    ONE,
    X,
    Poly,
    basis_p_combination,
    is_gamma_positive,
    is_symmetric,
    is_unimodal,
    linear_combination,
    one_plus_x_power,
    reciprocal,
)
from .roots import (
    DecompositionVerdict,
    interlaces,
    interlacing_failures,
    interlacing_symmetric_decomposition,
    is_real_rooted,
)
from .transforms import (
    apply_transform,
    binomial_base,
    binomial_eulerian,
    derangement,
    dnk,
    eulerian,
    generic_hnk,
    generic_lnk,
    pnk,
    qnk,
    qnkj,
    qnkj_star,
    typeB_eulerian,
)
from .permutations import (
    brute_force_family,
    flag_excedance_rows,
    flag_excedance_table,
    project_rows,
    symmetric_tallies,
)
from .simplicial import (
    GEOMETRY_FAMILIES,
    CarriedTriangulation,
    FTriangle,
    _submasks_over,
    antiprism_partial_h,
    barycentric_f_triangle,
    build_geometry_family,
    derangement_transform,
    eulerian_transform,
    f_triangle,
    family_f_triangle,
    ft_h,
    ft_interior_transform,
    ft_lnk,
    ft_local_transform,
    ft_qnk,
    ft_theta,
    trivial_f_triangle,
)


Detail = Union[str, Callable[[], str]]


class CaseResult:
    """One decided case: its name, its status "pass" or "fail", and a
    detail text.

    The detail is given either as a string or as a zero-argument renderer.
    A renderer runs on the first read of ``detail`` and its text is kept,
    so a case whose detail nobody reads builds no text.  Equality and
    hashing compare the rendered detail."""

    __slots__ = ("name", "status", "_detail")

    def __init__(self, name: str, status: str, detail: Detail = "") -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "_detail", detail)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CaseResult is immutable")

    @property
    def detail(self) -> str:
        detail = self._detail
        if not isinstance(detail, str):
            detail = detail()
            object.__setattr__(self, "_detail", detail)
        return detail

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def _key(self) -> tuple[str, str, str]:
        return self.name, self.status, self.detail

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CaseResult):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        name, status, detail = self._key()
        return f"CaseResult(name={name!r}, status={status!r}, detail={detail!r})"


def _case(name: str, ok: bool, detail: Detail = "") -> CaseResult:
    return CaseResult(name, "pass" if ok else "fail", detail)


def _eq_case(name: str, got: Poly, want: Poly) -> CaseResult:
    """got == want; the detail shows both, and keeps only want when they
    are equal."""
    if got == want:
        return _case(name, True, partial(_got_want_text, want, want))
    return _case(name, False, partial(_got_want_text, got, want))


def _got_want_text(got: Poly, want: Poly) -> str:
    return f"got {got.to_text()}, want {want.to_text()}"


def _versus_text(lhs: object, rhs: object) -> str:
    return f"{lhs!r} vs {rhs!r}"


GOLDEN_QNK = {
    (0, 0): "1",
    (1, 0): "1",
    (1, 1): "1 + x",
    (2, 0): "1 + x",
    (2, 1): "1 + 2x",
    (2, 2): "1 + 3x + x^2",
    (3, 0): "1 + 4x + x^2",
    (3, 1): "1 + 5x + 2x^2",
    (3, 2): "1 + 6x + 4x^2",
    (3, 3): "1 + 7x + 7x^2 + x^3",
    (4, 0): "1 + 11x + 11x^2 + x^3",
    (4, 1): "1 + 12x + 15x^2 + 2x^3",
    (4, 2): "1 + 13x + 20x^2 + 4x^3",
    (4, 3): "1 + 14x + 26x^2 + 8x^3",
    (4, 4): "1 + 15x + 33x^2 + 15x^3 + x^4",
}

GOLDEN_DNK = {
    (0, 0): "1",
    (1, 0): "1",
    (1, 1): "0",
    (2, 0): "1 + x",
    (2, 1): "x",
    (2, 2): "x",
    (3, 0): "1 + 4x + x^2",
    (3, 1): "3x + x^2",
    (3, 2): "2x + x^2",
    (3, 3): "x + x^2",
    (4, 0): "1 + 11x + 11x^2 + x^3",
    (4, 1): "7x + 10x^2 + x^3",
    (4, 2): "4x + 9x^2 + x^3",
    (4, 3): "2x + 8x^2 + x^3",
    (4, 4): "x + 7x^2 + x^3",
}


def golden_table_cases() -> list[CaseResult]:
    """Both frozen reference tables against the closed-form families."""
    cases = []
    for (n, k), text in sorted(GOLDEN_QNK.items()):
        cases.append(_eq_case(f"golden-qnk-{n}-{k}", qnk(n, k), Poly.from_text(text)))
    for (n, k), text in sorted(GOLDEN_DNK.items()):
        cases.append(_eq_case(f"golden-dnk-{n}-{k}", dnk(n, k), Poly.from_text(text)))
    return cases


def equivalence_cases(n_max: int = 6) -> list[CaseResult]:
    """Closed forms against enumeration for every family, n <= n_max.

    Every enumeration counts words by their own statistics in a dynamic
    program, and no word is generated.  One symmetric_tallies call counts
    S_0..S_{n_max+1}: the tally of S_{n+1} read for size n is the tally of
    S_n for size n + 1.  One project_rows call per n reads every family's
    row, every k and j, off three walks of the tallies of each of the two
    groups.  One flag_excedance_table call gives the r = 1 colored rows of
    every size, and the type B row counts S_n by descent set."""
    cases = []
    tallies = symmetric_tallies(n_max + 1)
    colored_rows = flag_excedance_table(n_max, 1)
    for n in range(n_max + 1):
        row = project_rows(_EQUIVALENCE_FAMILIES, tallies, n)
        cases.append(_eq_case(f"A-des-enumeration-{n}", row["A"][0, 0], eulerian(n)))
        cases.append(
            _eq_case(f"A-exc-enumeration-{n}", row["A-exc"][0, 0], eulerian(n))
        )
        cases.append(
            _eq_case(
                f"Atilde-enumeration-{n}", row["q-fix"][n, 0], binomial_eulerian(n)
            )
        )
        for k in range(n + 1):
            for name, family in (
                ("p-des", "p"), ("p-asc", "p-asc"), ("p-exc", "p-exc")
            ):
                cases.append(
                    _eq_case(
                        f"{name}-enumeration-{n}-{k}", row[family][k, 0], pnk(n, k)
                    )
                )
            for family in ("q-fix", "q-bad"):
                cases.append(
                    _eq_case(
                        f"{family}-enumeration-{n}-{k}", row[family][k, 0], qnk(n, k)
                    )
                )
        for k in range(n + 1):
            cases.append(
                _eq_case(f"dnk-enumeration-{n}-{k}", row["dnk"][k, 0], dnk(n, k))
            )
            cases.append(
                _eq_case(f"xi-reconstruction-{n}-{k}", row["xi"][k, 0], dnk(n, k))
            )
        for k in range(n + 2):
            for j in range(n + 1):
                closed = qnkj(n, k, j)
                for name, family in (("fix", "qnkj"), ("bad", "qnkj-alt")):
                    cases.append(
                        _eq_case(
                            f"qnkj-{name}-enumeration-{n}-{k}-{j}",
                            row[family][k, j],
                            closed,
                        )
                    )
                if j == 0 and k >= 1:
                    cases.append(
                        _eq_case(
                            f"qstar-normalization-{n}-{k}-{j}",
                            row["qstar"][k, j],
                            qnkj_star(n, k, j),
                        )
                    )
        cases.append(
            _eq_case(
                f"B-enumeration-{n}", brute_force_family("B", n), typeB_eulerian(n)
            )
        )
        for k in range(n + 1):
            cases.append(
                _eq_case(
                    f"colored-r1-reduction-{n}-{k}", colored_rows[n][k], dnk(n, n - k)
                )
            )
    return cases


# The S_n families that equivalence_cases reads a row of.
_EQUIVALENCE_FAMILIES = (
    "A", "A-exc", "p", "p-asc", "p-exc", "q-fix", "q-bad",
    "qnkj", "qnkj-alt", "qstar", "dnk", "xi",
)


def identity_cases(n_max: int = 8) -> list[CaseResult]:
    """The recurrence and summation identities tying the families together,
    checked exactly for all indices up to n_max."""
    cases = []
    for n in range(n_max + 1):
        # the Eulerian and derangement transforms are the barycentric
        # interior and local transforms
        bary = barycentric_f_triangle(n)
        interior, local = ft_interior_transform(bary), ft_local_transform(bary)
        # additive recurrence and both closed forms of the q family
        for k in range(n + 1):
            if k < n:
                cases.append(
                    _eq_case(
                        f"qnk-recurrence-{n}-{k}",
                        qnk(n, k + 1),
                        qnk(n, k) + X * qnk(n - 1, k),
                    )
                )
            via_binomial = linear_combination(
                (comb(k, i), eulerian(n - i), i) for i in range(k + 1)
            )
            via_p = linear_combination(
                (comb(k, i), pnk(n - i, k - i), 0) for i in range(k + 1)
            )
            cases.append(_eq_case(f"qnk-binomial-form-{n}-{k}", qnk(n, k), via_binomial))
            cases.append(_eq_case(f"qnk-p-form-{n}-{k}", qnk(n, k), via_p))
            cases.append(
                _eq_case(
                    f"qnk-via-interior-eulerian-{n}-{k}",
                    reciprocal(qnk(n, k), n),
                    apply_transform(
                        interior, one_plus_x_power(k).times_x_power(n - k)
                    ),
                )
            )
        # the doubly refined family: boundary, diagonal, shift and top rows
        for k in range(1, n + 2):
            cases.append(
                _eq_case(
                    f"qstar-first-column-{n}-{k}", qnkj_star(n, k, 0), qnk(n, k - 1)
                )
            )
            if 1 <= k <= n:
                cases.append(
                    _eq_case(
                        f"qstar-last-column-{n}-{k}",
                        qnkj_star(n, k, n),
                        X * qnk(n, k - 1),
                    )
                )
                cases.append(
                    _eq_case(
                        f"qnkj-diagonal-{n}-{k}", qnkj(n, k, k), qnkj(n, k + 1, k)
                    )
                )
        for k in range(n):
            if n >= 1:
                total = linear_combination((1, qnkj(n - 1, k, j), 0) for j in range(n))
                cases.append(_eq_case(f"qnk-from-qnkj-{n}-{k}", qnk(n, k), total))
                total = linear_combination(
                    (1, qnkj_star(n - 1, k + 1, j), 0) for j in range(n)
                )
                cases.append(_eq_case(f"qnk-from-qstar-{n}-{k}", qnk(n, k), total))
        for j in range(n + 1):
            cases.append(
                _eq_case(f"qnkj-base-0-{n}-{j}", qnkj(n, 0, j), pnk(n, j))
            )
            cases.append(
                _eq_case(f"qstar-base-1-{n}-{j}", qnkj_star(n, 1, j), pnk(n, j))
            )
        for k in range(2, n + 1):
            for j in range(k, n + 1):
                cases.append(
                    _eq_case(
                        f"qnkj-shift-{n}-{k}-{j}",
                        qnkj(n, k, j),
                        qnkj(n, k - 1, j) + X * qnkj(n - 1, k - 1, j - 1),
                    )
                )
        # derangement family: alternating form and recurrence
        for k in range(n + 1):
            alt = linear_combination(
                ((-1) ** i * comb(k, i), eulerian(n - i), 0) for i in range(k + 1)
            )
            cases.append(_eq_case(f"dnk-alternating-form-{n}-{k}", dnk(n, k), alt))
            if k >= 1:
                cases.append(
                    _eq_case(
                        f"dnk-recurrence-{n}-{k}",
                        dnk(n, k),
                        dnk(n, k - 1) - dnk(n - 1, k - 1),
                    )
                )
            cases.append(
                _eq_case(
                    f"dnk-via-derangement-transform-{n}-{k}",
                    dnk(n, k),
                    apply_transform(
                        local, one_plus_x_power(n - k).times_x_power(k)
                    ),
                )
            )
        cases.append(
            _eq_case(
                f"derangement-binomial-{n}",
                apply_transform(local, one_plus_x_power(n)),
                eulerian(n),
            )
        )
        cases.append(
            _eq_case(
                f"Atilde-via-interior-eulerian-{n}",
                apply_transform(interior, one_plus_x_power(n)),
                binomial_eulerian(n),
            )
        )
        # the abstract two-index families over the f-triangle h-sequences
        triv = trivial_f_triangle(n)
        for m in range(n + 1):
            for k in range(m + 1):
                cases.append(
                    _eq_case(
                        f"ft-qnk-barycentric-{n}-{m}-{k}", ft_qnk(bary, m, k), qnk(m, k)
                    )
                )
                cases.append(
                    _eq_case(
                        f"ft-lnk-barycentric-{n}-{m}-{k}", ft_lnk(bary, m, k), dnk(m, k)
                    )
                )
                if k < m:
                    cases.append(
                        _eq_case(
                            f"ft-qnk-recurrence-trivial-{n}-{m}-{k}",
                            ft_qnk(triv, m, k + 1),
                            ft_qnk(triv, m, k) + X * ft_qnk(triv, m - 1, k),
                        )
                    )
                    cases.append(
                        _eq_case(
                            f"ft-lnk-recurrence-trivial-{n}-{m}-{k}",
                            ft_lnk(triv, m, k + 1),
                            ft_lnk(triv, m, k) - ft_lnk(triv, m - 1, k),
                        )
                    )
        cases.extend(worpitzky_cases(n))
    return cases


def worpitzky_cases(n: int) -> list[CaseResult]:
    """Series congruences: the rational generating functions of m^k (1+m)^(n-k)
    and (2m+1)^n truncate to the p and B families.  The first n+1
    coefficients repeat the series route of pnk and typeB_eulerian; the
    three after them must vanish, which that route does not check."""
    cases = []
    m_top = n + 3
    one_minus = (ONE - X) ** (n + 1)
    for k in range(n + 1):
        series = Poly([m**k * (m + 1) ** (n - k) for m in range(m_top + 1)])
        prod = series * one_minus
        target = pnk(n, k)
        ok = all(prod[i] == target[i] for i in range(m_top + 1))
        cases.append(
            _case(f"worpitzky-p-{n}-{k}", ok, partial(_truncated_text, prod, target))
        )
    series = Poly([(2 * m + 1) ** n for m in range(m_top + 1)])
    prod = series * one_minus
    target = typeB_eulerian(n)
    ok = all(prod[i] == target[i] for i in range(m_top + 1))
    cases.append(_case(f"worpitzky-B-{n}", ok, partial(_truncated_text, prod, target)))
    return cases


def _truncated_text(prod: Poly, target: Poly) -> str:
    return f"truncated product {prod.to_text()} vs {target.to_text()}"


def _row_verdicts(row: list[Poly]) -> tuple[list[bool], list[tuple[int, int]]]:
    """The real rootedness of each member of a row and its failed pairs.

    interlacing_failures lists every failed pair whenever it lists one, so
    a pair it leaves out passed, and its members are certified real rooted.
    A member is decided on its own only when all of its len(row) - 1 pairs
    failed, which is every member of a row of one."""
    fails = interlacing_failures(row)
    failed = Counter(i for pair in fails for i in pair)
    last = len(row) - 1
    return [failed[i] < last or is_real_rooted(q) for i, q in enumerate(row)], fails


def _row_interlacing_cases(name: str, family, n_max: int) -> list[CaseResult]:
    cases = []
    for n in range(n_max + 1):
        rr, fails = _row_verdicts([family(n, k) for k in range(n + 1)])
        cases.append(_case(f"{name}-row-real-rooted-{n}", all(rr)))
        cases.append(
            _case(f"{name}-row-interlacing-{n}", not fails, f"failed pairs {fails}")
        )
    return cases


def q_interlacing_cases(n_max: int = 9) -> list[CaseResult]:
    return _row_interlacing_cases("qnk", qnk, n_max)


def d_interlacing_cases(n_max: int = 9) -> list[CaseResult]:
    return _row_interlacing_cases("dnk", dnk, n_max)


def _sample_multiple(rng: random.Random, n: int) -> tuple[Poly, int]:
    """L*p and L for a random p in the nonnegative span of x^(n-k) (1+x)^k.

    p = sum of (a_k / b_k) x^(n-k) (1+x)^k with a_k = rng.randrange(100)
    and b_k = rng.randrange(1, 10), drawn in that order for k = 0..n, and
    L = lcm(b_0, ..., b_n).  L*p has integer coefficients, so everything
    decided on it runs on ints and builds no Fraction."""
    draws = [(rng.randrange(100), rng.randrange(1, 10)) for _ in range(n + 1)]
    mult = lcm(*(b for _, b in draws))
    return basis_p_combination([a * (mult // b) for a, b in draws], n), mult


def _sample_case(
    name: str, ok: bool, lp: Poly, limage: Poly, mult: int, verdict: DecompositionVerdict
) -> CaseResult:
    """The case of one sample; its detail shows p = lp / mult and the image
    limage / mult."""
    return _case(name, ok, partial(_sample_text, lp, limage, mult, verdict))


def _sample_text(lp: Poly, limage: Poly, mult: int, verdict: DecompositionVerdict) -> str:
    scale = Fraction(1, mult)
    return (
        f"p = {(lp * scale).to_text()}; image {(limage * scale).to_text()}; "
        f"nonneg={verdict.nonnegative} rr={verdict.real_rooted_pair} "
        f"interlacing={verdict.interlacing}"
    )


def theorem1_sample_cases(n: int, samples: int, seed: int) -> list[CaseResult]:
    """Sampled certification that the interior Eulerian transform produces
    real-rooted images squeezed between the binomial Eulerian polynomial and
    x A_n, with an interlacing nonnegative split.  The image is real rooted
    when the binomial Eulerian polynomial interlaces it, since a passed
    decision certifies both members.

    Each sample p is decided on its integer multiple L*p (see
    ``_sample_multiple``), and its image on L times the image, since the
    transform is linear.  That is exact: for L > 0, L*f has the roots of f,
    so real rootedness and interlacing in either order are unchanged; the
    split of L*f is (L*a, L*b), whose signs and coefficient order are those
    of (a, b), and whose gamma vectors are L times those of a and b, since
    the gamma expansion is linear.  p and its image are divided by L only
    when the detail text is read."""
    rng = random.Random(seed)
    transform = eulerian_transform(n)
    upper = X * eulerian(n)
    lower = binomial_eulerian(n)
    cases = []
    for s in range(samples):
        lp, mult = _sample_multiple(rng, n)
        lf = apply_transform(transform, lp)
        verdict = interlacing_symmetric_decomposition(lf, n)
        ok = (
            interlaces(lower, lf)
            and interlaces(lf, upper)
            and verdict.nonnegative
            and verdict.real_rooted_pair
            and verdict.interlacing
            and verdict.unimodal_pair
            and verdict.gamma_positive_pair
        )
        cases.append(_sample_case(f"theorem1-sample-{n}-{s}", ok, lp, lf, mult, verdict))
    return cases


def derangement_sample_cases(n: int, samples: int, seed: int) -> list[CaseResult]:
    """Sampled certification for the derangement transform: images are real
    rooted and their reversals split into interlacing nonnegative pairs.

    As in ``theorem1_sample_cases``, each sample is decided on its integer
    multiple L*p and the image L*g; signs, real rootedness and interlacing
    do not change under a factor L > 0, and the text shows p and g.

    Real rootedness of g is read off the verdict on its reversal
    r = x^n g(1/x).  A nonnegative split r = a + x b with b interlacing a
    forces r to be real rooted (see ``interlacing_symmetric_decomposition``).
    Write g = x^m h with h(0) != 0: the nonzero roots of r are the
    reciprocals 1/t of the roots t of h, so h, and with it g, is real
    rooted; the other roots of r are the n - deg g zero roots, which are
    real.  g = 0 gives r = 0, which counts as real rooted, as g does."""
    rng = random.Random(seed)
    transform = derangement_transform(n)
    cases = []
    for s in range(samples):
        lp, mult = _sample_multiple(rng, n)
        lg = apply_transform(transform, lp)
        verdict = interlacing_symmetric_decomposition(reciprocal(lg, n), n)
        ok = verdict.nonnegative and verdict.real_rooted_pair and verdict.interlacing
        cases.append(_sample_case(f"derangement-sample-{n}-{s}", ok, lp, lg, mult, verdict))
    return cases


def _l1(p: Poly) -> int:
    return sum(map(abs, p.coeffs))


def _at_power_of_two(p: Poly, b: int) -> int:
    """p(2^b) for an integer polynomial p, by Horner's rule on shifts."""
    value = 0
    for c in reversed(p.coeffs):
        value = (value << b) + c
    return value


def _certified_bits(s: int) -> int:
    """The least b with 2^b > 4s: two integer polynomials whose
    coefficients are at most s in absolute value are equal exactly when
    their values at 2^b are (see identity_suite)."""
    return (4 * s).bit_length()


def _from_power_of_two(value: int, b: int) -> Poly:
    """The p with p(2^b) = value whose coefficients lie in [-2^(b-1),
    2^(b-1)): the balanced base-2^b digits of value, lowest first, so the
    inverse of _at_power_of_two on such p.  A nonzero value needs b >= 2,
    as _certified_bits gives for s >= 1: at b = 1 a positive value has no
    such digits.  b = 0 comes from s = 0, a void triangulation's bound, at
    which every value is 0."""
    half, mask = (1 << b) >> 1, (1 << b) - 1
    coeffs = []
    while value:
        digit = ((value + half) & mask) - half
        coeffs.append(digit)
        value = (value - digit) >> b
    return Poly._of(coeffs)


def identity_suite(t: CarriedTriangulation, prefix: str = "") -> list[CaseResult]:
    """Certify the face-count identities tying h, theta and local h together
    on one carried triangulation; each case name starts with prefix.

    Runs, over every base face / pair of base faces where applicable:
    interior reciprocity, theta symmetry, the Eulerian and derangement
    expansions of h and local h over theta, the relative expansion, the
    reconstruction of restriction h from relative local h, and the
    subdivision-sum form of relative local h.  A failed identity is a case
    with ok False; nothing is raised.

    The per-face cases and the two expansions whose detail prints both
    sides compare Poly values.  The interval identities compare integers:
    every restriction h, theta_F and d(a, c) is evaluated once at B = 2^b,
    and since evaluation is a ring homomorphism, each side of an identity
    evaluates to the same sums and products of those values.  The relative
    local h-polynomials come from one Moebius pass, L(F, F) = h_F and
    L(E, F) = L(E + i, F) - L(E, F - i) for any i in F - E.

    Why comparing values decides the identities: each side is a signed sum
    of at most 4^n restriction h-polynomials or of at most 2^n products
    theta_F d(a, c), so every coefficient of either side is at most
    S = max(4^n max_G |h_G|_1, 2^n max_F |theta_F|_1 max |d(a, c)|_1) in
    absolute value, |.|_1 the sum of absolute coefficients.  b is chosen with
    2^b > 4S.  If P != Q, the coefficients of P - Q are below 2S < B in
    absolute value; with d_k the lowest nonzero one, (P - Q)(B) = B^k (d_k +
    B m) for an integer m, which is not zero since B does not divide d_k.
    So P(B) = Q(B) if and only if P = Q.

    Why the table gives each L(E, F) itself: L(E, F) is a signed sum of at
    most 2^n restriction h-polynomials, so its coefficients are at most
    S < 2^(b-2) in absolute value, and the balanced base-2^b digits of
    L(E, F)(B) are its coefficients (_from_power_of_two).  This table is the
    package's one route to a local h.
    """
    return _identity_table(t, prefix)[0]


def _identity_table(
    t: CarriedTriangulation, prefix: str
) -> tuple[list[CaseResult], Callable[[int, int], Poly]]:
    """The cases of identity_suite and a reader (emask, fmask) -> L(E, F)."""
    n = t.n
    size = 1 << n
    full = size - 1
    cases: list[CaseResult] = []

    def record(name: str, detail: Detail, ok: bool) -> None:
        cases.append(_case(prefix + name, ok, detail))

    thetas: list[Poly] = []
    for fmask in range(size):
        m = int.bit_count(fmask)
        try:
            t.interior_h(fmask)
            ok = True
        except CertificationError:
            ok = False
        record("interior-reciprocity", f"face mask {fmask}", ok)
        theta = t.theta(fmask)
        thetas.append(theta)
        record("theta-symmetric", f"face mask {fmask}", is_symmetric(theta, m))

    # Each right-hand side is summed term by term: one (1, summand, 0) term
    # per face mask, so the identity checked is the sum written out.
    h = [t.restriction_h(g) for g in range(size)]
    lhs = h[full]
    rhs = linear_combination(
        (1, theta * eulerian(n - int.bit_count(fmask)), 0)
        for fmask, theta in enumerate(thetas)
    )
    record("h-from-theta", partial(_versus_text, lhs, rhs), lhs == rhs)

    d = {(a, c): dnk(a, c) for a in range(n + 1) for c in range(a + 1)}
    bound = max(
        size * size * max(map(_l1, h)),
        size * max(map(_l1, thetas)) * max(map(_l1, d.values())),
    )
    b = _certified_bits(bound)
    h_at = [_at_power_of_two(p, b) for p in h]
    d_at = {key: _at_power_of_two(p, b) for key, p in d.items()}
    # theta_F d(n - |F|, n - |E u F|) depends on E only through u = |E u F|,
    # so relative[F][u] holds it for u >= |F|
    relative = []
    for fmask, theta in enumerate(thetas):
        m = int.bit_count(fmask)
        value = _at_power_of_two(theta, b)
        relative.append([0] * m + [value * d_at[n - m, n - u] for u in range(m, n + 1)])
    # local[E << n | F] = L(E, F)(B), for F in increasing order and E running
    # down the submasks of F, so that both terms of the step are known
    local = [0] * (size * size)
    for fmask in range(size):
        emask = fmask
        while True:
            free = fmask & ~emask
            if free:
                i = free & -free
                local[emask << n | fmask] = (
                    local[(emask | i) << n | fmask] - local[emask << n | fmask ^ i]
                )
            else:
                local[emask << n | fmask] = h_at[fmask]
            if not emask:
                break
            emask = (emask - 1) & fmask

    def read_local(emask: int, fmask: int) -> Poly:
        return _from_power_of_two(local[emask << n | fmask], b)

    lhs = read_local(0, full)
    rhs = linear_combination(
        (1, theta * derangement(n - int.bit_count(fmask)), 0)
        for fmask, theta in enumerate(thetas)
    )
    record("local-h-from-theta", partial(_versus_text, lhs, rhs), lhs == rhs)

    for emask in range(size):
        row = emask << n
        lhs = local[row | full]
        rhs = sum(relative[f][int.bit_count(emask | f)] for f in range(size))
        record("relative-local-h-from-theta", f"E mask {emask}", lhs == rhs)

        comp = full & ~emask
        rhs = sum(local[fmask] for fmask in _submasks_over(comp, full))
        record("relative-local-h-from-restrictions", f"E mask {emask}", lhs == rhs)

        if int.bit_count(emask) == n - 1:
            diff = h_at[full] - h_at[emask]
            record("facet-difference", f"E mask {emask}", lhs == diff)

        for gmask in _submasks_over(emask, full):
            rhs = sum(local[row | fmask] for fmask in _submasks_over(emask, gmask))
            ok = h_at[gmask] == rhs
            record("h-from-relative-local-h", f"E mask {emask} G mask {gmask}", ok)

    return cases, read_local


def geometry_cases(family: str, n: int, r: int = 2) -> list[CaseResult]:
    """Everything the face-count calculus promises for one triangulation:
    the identity suite, uniformity of the f-triangle, theta symmetry, the
    cross-checks against the permutation families, and the antiprism
    subcomplex formula and Euler characteristic, read off the face table of
    the triangulation without building the sphere.  The local h-polynomials
    L(E, full) of the permutation cross-checks are decoded, exactly, off the
    identity suite's table (see identity_suite)."""
    t = build_geometry_family(family, n, r)
    label = f"{family}-{n}" + (f"-r{r}" if GEOMETRY_FAMILIES[family].takes_r else "")
    cases, read_local = _identity_table(t, f"{label}-")

    try:
        triangle = f_triangle(t)
        cases.append(_case(f"{label}-uniform", True))
    except ValueError as exc:
        cases.append(_case(f"{label}-uniform", False, str(exc)))
        return cases

    for m in range(n + 1):
        theta = ft_theta(triangle, m)
        cases.append(
            _case(f"{label}-ft-theta-symmetric-{m}", is_symmetric(theta, m), theta.to_text)
        )

    if family in ("trivial", "barycentric"):
        closed = family_f_triangle(family, n, r)
        cases.append(_case(f"{label}-ft-matches-closed-form", triangle == closed))
    # L(E, full) against its closed form, which depends on |E| only
    if family in ("barycentric", "colored"):
        if family == "barycentric":
            name, rows = "derangement", [dnk(n, n - e) for e in range(n + 1)]
        else:
            name, rows = "flag-excedance", flag_excedance_rows(n, r)
        full = (1 << n) - 1
        for emask in range(1 << n):
            got, want = read_local(emask, full), rows[emask.bit_count()]
            cases.append(_eq_case(f"{label}-local-h-{name}-{emask}", got, want))

    # the sphere is the k = n partial complex, with the empty face: the top
    # h coefficient of a window-n row of face counts f is sum (-1)^(n-i) f_i
    rows = antiprism_partial_h(t)
    euler = 1 - (-1) ** n * int(rows[n][n])
    cases.append(
        _case(
            f"{label}-antiprism-euler",
            euler == 1 + (-1) ** (n - 1) if n >= 1 else euler == 0,
            f"chi = {euler}",
        )
    )
    for k, h in enumerate(rows):
        cases.append(
            _eq_case(f"{label}-antiprism-partial-h-{k}", h, ft_qnk(triangle, n, k))
        )
    return cases


def _conclusion_cases(
    part: str, n: int, additive, alternating, cases: list, summary: dict
) -> None:
    """Append the real-rootedness and pairwise interlacing checks of the
    additive (part a) and alternating (part b) rows k = 0..n."""
    for key, family in (("a", additive), ("b", alternating)):
        if part not in (key, "both"):
            continue
        rr, fails = _row_verdicts([family(k) for k in range(n + 1)])
        cases.append(_case(f"part-{key}-real-rooted", all(rr), f"{rr}"))
        cases.append(
            _case(f"part-{key}-interlacing", not fails, f"failed pairs {fails}")
        )
        summary[f"part_{key}"] = {
            "real_rooted": rr,
            "interlacing_pairs_failed": [list(p) for p in fails],
        }


@dataclass(frozen=True)
class ThetaFlags:
    theta_unimodal: bool
    theta_gamma_positive: bool
    strong_interlacing: bool


def theta_flags(triangle: FTriangle) -> ThetaFlags:
    """Structural positivity of the theta polynomials, plus the interlacing
    hypothesis: for 2 <= m < n the restriction h-polynomial is real rooted
    and theta is zero or real rooted of degree m-1 with nonnegative
    coefficients, interlaced by the next smaller h-polynomial.  A passed
    interlacing decision certifies theta real rooted, so theta is not
    checked on its own."""
    thetas = [ft_theta(triangle, m) for m in range(triangle.n + 1)]
    unimodal = all(is_unimodal(theta) is not None for theta in thetas)
    gamma = all(is_gamma_positive(theta, m) for m, theta in enumerate(thetas))
    strong = True
    for m in range(2, triangle.n):
        if not is_real_rooted(ft_h(triangle, m)):
            strong = False
            break
        theta = thetas[m]
        if theta.is_zero():
            continue
        if (
            theta.deg() != m - 1
            or any(c < 0 for c in theta.coeffs)
            or not interlaces(ft_h(triangle, m - 1), theta)
        ):
            strong = False
            break
    return ThetaFlags(
        theta_unimodal=unimodal,
        theta_gamma_positive=gamma,
        strong_interlacing=strong,
    )


def conjecture_cases(
    triangle: FTriangle, part: str = "both"
) -> tuple[list[CaseResult], dict]:
    """The interlacing conjecture on one uniform triangulation: hypothesis
    (strong interlacing of the h / theta data) reported first, then the
    real-rootedness and pairwise interlacing of the additive and alternating
    sequences at the top size."""
    if part not in ("a", "b", "both"):
        raise ValueError(f"part must be a, b or both, not {part!r}")
    n = triangle.n
    flags = theta_flags(triangle)
    cases = [
        _case(
            "hypothesis-strong-interlacing",
            flags.strong_interlacing,
            f"theta unimodal={flags.theta_unimodal} "
            f"gamma-positive={flags.theta_gamma_positive}",
        )
    ]
    summary: dict = {"hypothesis": flags.strong_interlacing}
    additive, alternating = partial(ft_qnk, triangle, n), partial(ft_lnk, triangle, n)
    _conclusion_cases(part, n, additive, alternating, cases, summary)
    return cases, summary


def _consecutive_interlacing(hs: tuple[Poly, ...], n: int) -> bool:
    """Whether h_0..h_n are real rooted and h_(m-1) interlaces h_m for each
    m.  For n >= 1 the n consecutive decisions decide both, since every h_m
    is in one of them."""
    if n == 0:
        return is_real_rooted(hs[0])
    return all(interlaces(hs[m - 1], hs[m]) for m in range(1, n + 1))


def generic_conjecture_cases(
    hs: tuple[Poly, ...], n: int, part: str = "both"
) -> tuple[list[CaseResult], dict]:
    """The same conclusion checks over an arbitrary base h-sequence, with the
    hypothesis replaced by the necessary condition that consecutive base
    polynomials are real rooted and interlace."""
    if part not in ("a", "b", "both"):
        raise ValueError(f"part must be a, b or both, not {part!r}")
    if n >= len(hs):
        raise ValueError(f"base sequence too short for n={n}")
    hyp = _consecutive_interlacing(hs, n)
    cases = [_case("hypothesis-consecutive-interlacing", hyp)]
    summary: dict = {"hypothesis": hyp}
    additive, alternating = partial(generic_hnk, hs, n), partial(generic_lnk, hs, n)
    _conclusion_cases(part, n, additive, alternating, cases, summary)
    return cases, summary


def counterexample_cases() -> list[CaseResult]:
    """The binomial base (1+x)^m at size 2: closed forms pinned and both
    derived sequences failing to interlace at the outer pair."""
    hs = binomial_base(2)
    one_plus_2x = Poly((1, 2))
    cases = []
    for k in range(3):
        cases.append(
            _eq_case(
                f"counterexample-h-value-{k}",
                generic_hnk(hs, 2, k),
                one_plus_x_power(2 - k) * one_plus_2x**k,
            )
        )
        cases.append(
            _eq_case(
                f"counterexample-l-value-{k}",
                generic_lnk(hs, 2, k),
                one_plus_x_power(2 - k).times_x_power(k),
            )
        )
    h_fails = interlacing_failures([generic_hnk(hs, 2, k) for k in range(3)])
    l_fails = interlacing_failures([generic_lnk(hs, 2, k) for k in range(3)])
    cases.append(
        _case("counterexample-h-fails", h_fails == [(0, 2)], f"failed pairs {h_fails}")
    )
    cases.append(
        _case("counterexample-l-fails", l_fails == [(0, 2)], f"failed pairs {l_fails}")
    )
    return cases
