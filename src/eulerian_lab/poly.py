"""Dense univariate polynomials over the rationals.

Coefficients are stored low degree first with trailing zeros stripped, so
the zero polynomial has an empty coefficient tuple and degree -1.  Each
stored coefficient is canonical: an ``int`` when it is integral, otherwise a
``fractions.Fraction`` whose denominator is not 1.  The paper's polynomials
have integer coefficients, so their sums, differences and products run on
``int`` and build no ``Fraction``.  Floats are rejected everywhere: every
computation in this package is exact.

The accessors ``leading()``, ``p[i]`` (``Fraction(0)`` past the degree) and
``evaluate`` return ``Fraction`` whatever the stored type, so ``1 /
p.leading()`` stays exact for every caller.  ``coeffs`` exposes the stored
values; code inside the package reads it directly.  Equality, hashing and
``to_text`` do not see the representation, since ``Fraction(3) == 3``,
``hash(Fraction(3)) == hash(3)`` and ``str(Fraction(3)) == "3"``.

The public constructor ``Poly(...)`` validates and canonicalises each
coefficient.  Arithmetic builds its results through the private
``Poly._of``, which strips trailing zeros and turns an integral
``Fraction`` into its numerator: it trusts that every entry of its list is
an ``int`` or ``Fraction`` that this module computed from canonical
coefficients and scalars.  Its callers are the ring operations,
``times_x_power``, ``derivative``, ``reciprocal``, ``linear_combination``,
``series_numerator`` and ``symmetric_decomposition``.  Nothing outside this
module may call ``Poly._of``.

``linear_combination`` is the one way library code sums polynomials: it
takes (c, p, shift) terms and accumulates every c * p * x^shift into one
coefficient list, so a sum of k terms builds one ``Poly`` and not 3k.  Two
running sums in ``permutations`` keep their own lists, since each row they
give extends the one before: ``_accumulate`` under the telescoped rows of
``_telescope`` and the loop of ``_fixed_below``.

``series_numerator`` reads the numerator N of a series N / (1-x)^d off the
series' first values: the one route to A_n, p_{n,k} and B_n (Worpitzky) and
to the h-rows of ``simplicial.family_f_triangle`` (Veronese).

Beyond ring arithmetic the module provides the structural toolkit used by
the rest of the package: reciprocals and palindromicity with respect to a
chosen degree, unimodality with peak location, gamma expansions, the
symmetric decomposition p = a + x*b, and expansions in the triangular basis
x^(n-k) * (1+x)^k.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence, Union

Scalar = Union[int, Fraction]


def _as_coeff(value: object) -> Scalar:
    """value as a canonical coefficient: an int when it is integral (a bool
    included), else a Fraction with denominator above 1."""
    if type(value) is int:
        return value
    if type(value) is Fraction:
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, float):
        raise TypeError("float coefficients are not allowed, use Fraction or int")
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return _as_coeff(Fraction(value))
    raise TypeError(f"cannot use {type(value).__name__} as a coefficient")


def _quotient(a: Scalar, b: Scalar) -> Scalar:
    """The canonical coefficient a / b of two canonical coefficients, b != 0;
    never the float that / gives on two ints."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    c = a / b
    return c.numerator if c.denominator == 1 else c


def _as_fraction(c: Scalar) -> Fraction:
    return c if type(c) is Fraction else Fraction(c)


_TERM_RE = re.compile(
    r"""^(?P<sign>[+-]?)\s*
        (?P<coeff>\d+(?:/\d+)?)?\s*
        (?:\*?\s*x(?:\^(?P<exp>\d+))?)?$""",
    re.VERBOSE,
)

# The coefficient of every index beyond the degree; Fractions are immutable,
# so one instance serves every caller.
_FRACTION_ZERO = Fraction(0)


class Poly:
    """Immutable dense polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    coeffs: tuple[Scalar, ...]

    def __init__(self, coeffs: Iterable[object] = ()) -> None:
        cs = [_as_coeff(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Poly is immutable")

    @classmethod
    def _of(cls, cs: list[Scalar]) -> "Poly":
        """The polynomial with coefficients cs, which this call may modify.

        No coefficient is checked: every entry must be an int or a Fraction
        computed by this module (see the module docstring).  An integral
        Fraction is replaced by its numerator.
        """
        while cs and not cs[-1]:
            cs.pop()
        for i, c in enumerate(cs):
            if type(c) is not int and c.denominator == 1:
                cs[i] = c.numerator
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", tuple(cs))
        return p

    # -- construction helpers -------------------------------------------------

    @classmethod
    def constant(cls, value: Scalar) -> "Poly":
        return cls((value,))

    @classmethod
    def from_text(cls, text: str) -> "Poly":
        """Parse human readable polynomial text such as ``1 + 11x + 11x^2 + x^3``.

        Accepts optional ``*`` between coefficient and variable, rational
        coefficients written ``a/b``, and bare terms like ``x``, ``7x`` or
        ``x^4``.
        """
        s = text.strip().replace(" ", "")
        if not s:
            raise ValueError("empty polynomial text")
        terms = re.findall(r"[+-]?[^+-]+", s)
        if "".join(terms) != s:
            raise ValueError(f"cannot parse polynomial text: {text!r}")
        by_exp: dict[int, Fraction] = {}
        for term in terms:
            m = _TERM_RE.match(term)
            if not m or (m.group("coeff") is None and "x" not in term):
                raise ValueError(f"cannot parse term {term!r} in {text!r}")
            coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
            if m.group("sign") == "-":
                coeff = -coeff
            if "x" in term:
                exp = int(m.group("exp")) if m.group("exp") else 1
            else:
                exp = 0
            by_exp[exp] = by_exp.get(exp, Fraction(0)) + coeff
        size = max(by_exp) + 1
        cs = [Fraction(0)] * size
        for exp, coeff in by_exp.items():
            cs[exp] = coeff
        return cls(cs)

    # -- basic queries ---------------------------------------------------------

    def deg(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __iter__(self) -> Iterator[Scalar]:
        return iter(self.coeffs)

    def __getitem__(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return _as_fraction(self.coeffs[i])
        return _FRACTION_ZERO

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return _as_fraction(self.coeffs[-1])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly.from_text({self.to_text()!r})"

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other: object) -> "Poly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly._of([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._of([-c for c in self.coeffs])

    def __sub__(self, other: object) -> "Poly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _difference(self.coeffs, other.coeffs)

    def __rsub__(self, other: object) -> "Poly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _difference(other.coeffs, self.coeffs)

    def __mul__(self, other: object) -> "Poly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return ZERO
            s = _as_coeff(other)
            return Poly._of([c * s for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return ZERO
        out: list[Scalar] = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly._of(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        result = ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other: object) -> tuple["Poly", "Poly"]:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn = other.deg()
        lead = other.coeffs[-1]
        quot: list[Scalar] = [0] * max(len(rem) - dn, 0)
        for i in range(len(rem) - dn - 1, -1, -1):
            if not rem[i + dn]:
                continue
            c = quot[i] = _quotient(rem[i + dn], lead)
            for j, b in enumerate(other.coeffs):
                rem[i + j] -= c * b
        return Poly._of(quot), Poly._of(rem)

    def __floordiv__(self, other: object) -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: object) -> "Poly":
        return divmod(self, other)[1]

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError(f"{self!r} is not divisible by {other!r}")
        return q

    def evaluate(self, x: Scalar) -> Fraction:
        """Evaluate at a rational point by Horner's rule."""
        x = _as_coeff(x)
        acc: Scalar = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return _as_fraction(acc)

    def derivative(self) -> "Poly":
        return Poly._of([i * c for i, c in enumerate(self.coeffs) if i > 0])

    def times_x_power(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative shift")
        if self.is_zero():
            return ZERO
        return Poly._of([0] * k + list(self.coeffs))

    # -- formatting ----------------------------------------------------------------

    def to_text(self) -> str:
        """Render in ascending degree order, e.g. ``1 + 11x + 11x^2 + x^3``."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for e, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "x" if e == 1 else f"x^{e}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def _difference(a: tuple[Scalar, ...], b: tuple[Scalar, ...]) -> Poly:
    """The polynomial with coefficients a minus the one with coefficients b."""
    common = min(len(a), len(b))
    out = [x - y for x, y in zip(a, b)]
    out += a[common:] if len(a) > common else [-y for y in b[common:]]
    return Poly._of(out)


def linear_combination(terms: Iterable[tuple[object, Poly, int]]) -> Poly:
    """The sum of c * p * x^shift over the (c, p, shift) terms.

    Each c is canonicalised first, so a float raises TypeError, and a
    negative shift raises ValueError; terms with c = 0 are then skipped,
    and no terms at all give ZERO.
    """
    out: list[Scalar] = []
    for c, p, shift in terms:
        c = _as_coeff(c)
        if shift < 0:
            raise ValueError("negative shift")
        if not c:
            continue
        cs = p.coeffs
        grow = shift + len(cs) - len(out)
        if grow > 0:
            out += [0] * grow
        for i, a in enumerate(cs, shift):
            out[i] += c * a
    return Poly._of(out)


def series_numerator(values: Sequence[object], d: int) -> Poly:
    """The first len(values) coefficients of (1-x)^d sum(values[t] x^t): the
    numerator N of the series N / (1-x)^d when deg N < len(values).  Each
    factor 1-x is one backward difference pass over the values."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    out = [_as_coeff(v) for v in values]
    for _ in range(d):
        out[1:] = [b - a for a, b in zip(out, out[1:])]
    return Poly._of(out)


def _coerce(value: object) -> Poly | None:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.constant(value)
    return None


ZERO = Poly()
ONE = Poly((1,))
X = Poly((0, 1))


@lru_cache(maxsize=256)
def one_plus_x_power(k: int) -> Poly:
    """(1 + x)^k with binomial coefficients, cached."""
    return Poly(math.comb(k, i) for i in range(k + 1))


def reciprocal(p: Poly, n: int) -> Poly:
    """x^n * p(1/x), the coefficient reversal inside degree window n.

    Requires deg(p) <= n so the result is a polynomial.
    """
    if n < 0:
        raise ValueError("window degree must be nonnegative")
    if p.deg() > n:
        raise ValueError(f"degree {p.deg()} exceeds window {n}")
    return Poly._of([0] * (n + 1 - len(p.coeffs)) + list(reversed(p.coeffs)))


def is_symmetric(p: Poly, n: int) -> bool:
    """Whether the coefficient vector inside degree window n is palindromic."""
    if p.deg() > n:
        return False
    return reciprocal(p, n) == p


def is_unimodal(p: Poly) -> int | None:
    """Least valid peak index if the coefficients rise then fall, else None.

    Only polynomials with nonnegative coefficients qualify.  Index j is a
    valid peak when c_0 <= ... <= c_j >= ... >= c_d; the smallest such j is
    returned.  The zero polynomial counts as unimodal with peak 0.
    """
    cs = p.coeffs
    if not cs:
        return 0
    if any(c < 0 for c in cs):
        return None
    d = len(cs) - 1
    suffix_start = d
    while suffix_start > 0 and cs[suffix_start - 1] >= cs[suffix_start]:
        suffix_start -= 1
    prefix_end = 0
    while prefix_end < d and cs[prefix_end] <= cs[prefix_end + 1]:
        prefix_end += 1
    if suffix_start <= prefix_end:
        return suffix_start
    return None


@dataclass(frozen=True)
class GammaVector:
    """Coordinates of a palindromic polynomial in the basis x^k (1+x)^(n-2k)."""

    n: int
    gammas: tuple[Fraction, ...]

    def is_nonnegative(self) -> bool:
        return all(g >= 0 for g in self.gammas)


def _window(p: Poly, n: int) -> list[Scalar]:
    """The stored coefficients of p padded with zeros to n + 1 entries;
    requires deg(p) <= n."""
    cs = list(p.coeffs)
    cs += [0] * (n + 1 - len(cs))
    return cs


def _peel(cs: list[Scalar], widths: Iterable[int]) -> list[Scalar]:
    """Expand cs in the basis x^j (1+x)^(m_j), m_j the j-th of widths, when
    that basis spans it; cs is used up.

    The basis is triangular in the lowest degree term: for j = 0, 1, ...
    the coefficient c_j is what is left at x^j, and c_j x^j (1+x)^(m_j) is
    subtracted in place.  Every entry stays an int when cs holds ints.  The
    expansion exists exactly when nothing is left over, which is asserted."""
    out = []
    for j, m in enumerate(widths):
        c = cs[j]
        out.append(c)
        if c:
            for i, b in enumerate(one_plus_x_power(m).coeffs, j):
                cs[i] -= c * b
    assert not any(cs)
    return out


def _gammas(p: Poly, n: int) -> list[Scalar] | None:
    """The gamma vector of p in window n as stored coefficients, or None
    when p is not palindromic inside the window.
    ``roots.interlacing_symmetric_decomposition`` decides a split on it."""
    if p.deg() > n:
        return None
    if n < 0:
        raise ValueError("window degree must be nonnegative")
    cs = _window(p, n)
    if cs != cs[::-1]:
        return None
    # a palindromic residual stays palindromic after each step, so the
    # floor(n/2) + 1 widths n, n - 2, ... use it up
    return _peel(cs, range(n, -1, -2))


def gamma_expand(p: Poly, n: int) -> GammaVector | None:
    """Expand p in the basis x^k (1+x)^(n-2k) by iterated peeling, or None.

    The expansion exists exactly when p is palindromic inside the degree
    window n; the vector has floor(n/2) + 1 entries.  The peel runs on the
    stored coefficients, so an integer p is expanded on ints.
    """
    gammas = _gammas(p, n)
    if gammas is None:
        return None
    return GammaVector(n=n, gammas=tuple(map(_as_fraction, gammas)))


def is_gamma_positive(p: Poly, n: int) -> bool:
    gammas = _gammas(p, n)
    return gammas is not None and all(g >= 0 for g in gammas)


@dataclass(frozen=True)
class SymmetricDecomposition:
    """The unique split p = a + x*b with a palindromic inside window n and
    b palindromic inside window n - 1."""

    a: Poly
    b: Poly
    n: int


def symmetric_decomposition(p: Poly, n: int) -> SymmetricDecomposition:
    """Split p = a + x*b into its palindromic parts for degree window n.

    Works for any p with deg(p) <= n.  b = (p - x^n p(1/x)) / (x - 1): the
    numerator d vanishes at 1, so the division is exact, and its quotient
    has the coefficients b_i = -(d_0 + ... + d_i), read off one prefix-sum
    pass.  Then a = p - x*b.
    """
    if p.deg() > n:
        raise ValueError(f"degree {p.deg()} exceeds window {n}")
    if n < 0:
        raise ValueError("window degree must be nonnegative")
    cs = _window(p, n)
    b: list[Scalar] = []
    acc: Scalar = 0
    for i in range(n):
        acc += cs[n - i] - cs[i]
        b.append(acc)
    a = cs[:1] + [c - d for c, d in zip(cs[1:], b)]
    assert a == a[::-1] and b == b[::-1]
    return SymmetricDecomposition(a=Poly._of(a), b=Poly._of(b), n=n)


def basis_p_coeffs(p: Poly, n: int) -> tuple[Fraction, ...]:
    """Coefficients c_0..c_n with p = sum of c_k x^(n-k) (1+x)^k.

    The basis is triangular in the lowest degree term, so the expansion
    always exists and is unique for deg(p) <= n; c_n is peeled first.
    """
    if p.deg() > n:
        raise ValueError(f"degree {p.deg()} exceeds window {n}")
    out = _peel(_window(p, n), range(n, -1, -1))
    return tuple(map(_as_fraction, reversed(out)))


def basis_p_combination(coeffs: Sequence[Scalar], n: int) -> Poly:
    """Inverse of basis_p_coeffs: sum of c_k x^(n-k) (1+x)^k."""
    if len(coeffs) != n + 1:
        raise ValueError(f"expected {n + 1} coefficients, got {len(coeffs)}")
    return linear_combination(
        (c, one_plus_x_power(k), n - k) for k, c in enumerate(coeffs)
    )
