"""Closed forms and recurrences for the polynomial families.

Each family is computed here one way; where the literature offers a choice,
the route kept is the one that does not recurse on n.  Every two-index
family is a binomial transform of one base sequence, and generic_hnk and
generic_lnk are the one place that sums it: q and d over the Eulerian
polynomials, the type B derangement image over B_n, the generic families
over (1+x)^m and the f-triangle families (simplicial.py) over the
h-polynomials of a uniform triangulation.  The other routes and
the enumeration oracles of permutations.py are checked against these forms
in one place, suites.py (identity_cases, equivalence_cases,
worpitzky_cases), and in the tests, so nothing here depends on group
sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from math import comb
from typing import Callable

from .poly import ONE, X, ZERO, Poly, linear_combination, one_plus_x_power


@lru_cache(maxsize=None)
def _pnk_row(n: int) -> tuple[Poly, ...]:
    if n == 0:
        return (ONE,)
    prev = _pnk_row(n - 1)
    prefix: list[Poly] = [ZERO]
    for q in prev:
        prefix.append(prefix[-1] + q)
    total = prefix[-1]
    return tuple(X * prefix[k] + (total - prefix[k]) for k in range(n + 1))


def pnk(n: int, k: int) -> Poly:
    """Descent polynomial over permutations of size n+1 with first value k+1.

    Row recurrence: p_{n,k} = x * sum(p_{n-1,i} for i < k)
    + sum(p_{n-1,i} for i >= k); equivalently sum(C(k,i) (x-1)^i A_{n-i}).
    The endpoints give p_{n,0} = A_n and p_{n,n} = x A_n.
    """
    if not 0 <= k <= n:
        raise ValueError(f"k={k} out of range 0..{n}")
    return _pnk_row(n)[k]


def eulerian(n: int) -> Poly:
    """The descent (equivalently excedance) polynomial of S_n, with A_0 = 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _pnk_row(n)[0]


@lru_cache(maxsize=None)
def _eulerian_base(n: int) -> tuple[Poly, ...]:
    """A_0, ..., A_n: the base sequence of the q and d families."""
    return tuple(eulerian(m) for m in range(n + 1))


def qnk(n: int, k: int) -> Poly:
    """Eulerian polynomial with the first k fixed-point positions inflated
    by 1+x: generic_hnk over the Eulerian base,
    q_{n,k} = sum(C(k,i) x^i A_{n-i})."""
    return generic_hnk(_eulerian_base(n), n, k)


def binomial_eulerian(n: int) -> Poly:
    """Binomial Eulerian polynomial, the k = n endpoint of the q family."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return qnk(n, n)


@lru_cache(maxsize=None)
def qnkj_star(n: int, k: int, j: int) -> Poly:
    """Refinement of the q family by the preimage of 1, normalized so the
    j = 0 member sheds its forced 1+x factor.

    Defined for 0 <= k <= n+1 and 0 <= j <= n by the branching recurrence
    in j relative to k, with the k <= 1 members collapsing to p_{n,j}.
    """
    if not 0 <= j <= n:
        raise ValueError(f"j={j} out of range 0..{n}")
    if not 0 <= k <= n + 1:
        raise ValueError(f"k={k} out of range 0..{n + 1}")
    if k <= 1:
        return pnk(n, j)
    if j == 0:
        return qnk(n, k - 1)
    level = k - 1 if j <= k - 1 else k
    # x times the members below j plus the members from j on
    return linear_combination(
        (1, qnkj_star(n - 1, level, i), 1 if i < j else 0) for i in range(n)
    )


def qnkj(n: int, k: int, j: int) -> Poly:
    """Un-normalized refinement; equals (1+x) * qnkj_star exactly when j = 0
    and k >= 1, and qnkj_star otherwise."""
    base = qnkj_star(n, k, j)
    if j == 0 and k >= 1:
        return base * one_plus_x_power(1)
    return base


def dnk(n: int, k: int) -> Poly:
    """Excedance polynomial over permutations whose fixed points avoid the
    last k positions: generic_lnk over the Eulerian base,
    d_{n,k} = sum((-1)^i C(k,i) A_{n-i})."""
    return generic_lnk(_eulerian_base(n), n, k)


def derangement(n: int) -> Poly:
    """Excedance polynomial of the derangements of S_n; d_0 = 1, d_1 = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return dnk(n, n)


@lru_cache(maxsize=None)
def typeB_eulerian(n: int) -> Poly:
    """Descent polynomial of the signed permutation group, by the closed
    coefficient form b_j = sum((-1)^i C(n+1,i) (2(j-i)+1)^n)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return Poly(
        [
            sum(
                (-1) ** i * comb(n + 1, i) * (2 * (j - i) + 1) ** n
                for i in range(j + 1)
            )
            for j in range(n + 1)
        ]
    )


def typeB_derangement_image(n: int) -> Poly:
    """Alternating binomial sum of type B Eulerian polynomials, generic_lnk
    over the base B_0, ..., B_n at k = n; the image of x^n under the type B
    analogue of the derangement transform."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return generic_lnk(tuple(typeB_eulerian(m) for m in range(n + 1)), n, n)


@lru_cache(maxsize=None)
def generic_hnk(hs: tuple[Poly, ...], n: int, k: int) -> Poly:
    """The additive two-index family built from an arbitrary base sequence:
    h_{n,k} = sum(C(k,i) x^i h_{n-i})."""
    if not 0 <= k <= n:
        raise ValueError(f"k={k} out of range 0..{n}")
    if n >= len(hs):
        raise ValueError(f"base sequence too short for n={n}")
    return linear_combination((comb(k, i), hs[n - i], i) for i in range(k + 1))


@lru_cache(maxsize=None)
def generic_lnk(hs: tuple[Poly, ...], n: int, k: int) -> Poly:
    """The alternating two-index family from an arbitrary base sequence:
    l_{n,k} = sum((-1)^i C(k,i) h_{n-i})."""
    if not 0 <= k <= n:
        raise ValueError(f"k={k} out of range 0..{n}")
    if n >= len(hs):
        raise ValueError(f"base sequence too short for n={n}")
    return linear_combination(
        ((-1) ** i * comb(k, i), hs[n - i], 0) for i in range(k + 1)
    )


def binomial_base(n: int) -> tuple[Poly, ...]:
    """The base sequence (1+x)^m, m = 0..n, of the generic families."""
    return tuple(one_plus_x_power(m) for m in range(n + 1))


def _one_index_rows(family: Callable[[int], Poly]):
    return lambda n: [(m, None, None, family(m)) for m in range(n + 1)]


def _two_index_rows(family: Callable[[int, int], Poly]):
    return lambda n: [
        (m, k, None, family(m, k)) for m in range(n + 1) for k in range(m + 1)
    ]


def _generic_rows(family: Callable[[tuple[Poly, ...], int, int], Poly]):
    return lambda n: _two_index_rows(partial(family, binomial_base(n)))(n)


# The table families: name -> the rows (n, k, j, polynomial) of the table at
# size n, with k and j None where a family has fewer indices, in the order
# of the `table --family` choices.
TABLE_FAMILIES = {
    "A": _one_index_rows(eulerian),
    "Atilde": _one_index_rows(binomial_eulerian),
    "B": _one_index_rows(typeB_eulerian),
    "DB": _one_index_rows(typeB_derangement_image),
    "d": _one_index_rows(derangement),
    "dnk": _two_index_rows(dnk),
    "p": _two_index_rows(pnk),
    "q": _two_index_rows(qnk),
    "qnk": _two_index_rows(qnk),  # alias, symmetric with the dnk name
    "qstar": lambda n: [
        (n, k, j, qnkj_star(n, k, j)) for k in range(n + 2) for j in range(n + 1)
    ],
    "generic-h": _generic_rows(generic_hnk),
    "generic-l": _generic_rows(generic_lnk),
}


@dataclass(frozen=True)
class LinearTransform:
    """A linear operator on polynomials of degree at most n, given by its
    images of the monomials."""

    name: str
    n: int
    image: Callable[[int], Poly]


def apply_transform(transform: LinearTransform, p: Poly) -> Poly:
    if p.deg() > transform.n:
        raise ValueError(
            f"degree {p.deg()} exceeds the bound {transform.n} of "
            f"transform {transform.name}"
        )
    # only the monomials of p are imaged: an image may raise
    return linear_combination(
        (c, transform.image(m), 0) for m, c in enumerate(p.coeffs) if c
    )
