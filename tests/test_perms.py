"""Permutation statistics against hand-checked and brute-forced values."""

from collections import Counter

import pytest

from eulerian_lab import permutations as perms
from eulerian_lab.budget import group_limit
from eulerian_lab.errors import BudgetExceeded
from eulerian_lab.permutations import (
    Permutation,
    bad_k,
    brute_force_family,
    colored_permutations,
    des_B,
    fix_k,
    flag_excedance_poly,
    project_family,
    project_row,
    signed_permutations,
    stats,
    sweep_histogram,
    symmetric_group,
    xi_counts,
)
from eulerian_lab.poly import Poly, one_plus_x_power, reciprocal


def P(*coeffs) -> Poly:
    return Poly(coeffs)


class TestStats:
    def test_explicit_word(self):
        s = stats((3, 1, 4, 2, 5))
        assert s.des == 2          # positions 1 and 3
        assert s.asc == 2
        assert s.exc == 2          # w(1)=3, w(3)=4
        assert s.fix_set == frozenset({5})

    def test_identity(self):
        s = stats(tuple(range(1, 6)))
        assert s.des == 0 and s.exc == 0
        assert s.fix_set == frozenset({1, 2, 3, 4, 5})

    def test_validation(self):
        # stats trusts its input (hot path); Permutation validates
        with pytest.raises(ValueError):
            Permutation((1, 1, 2))
        with pytest.raises(ValueError):
            Permutation((0, 1))
        assert stats(Permutation((2, 1))).des == 1

    def test_fix_k(self):
        assert fix_k((1, 2, 3), 2) == 2
        assert fix_k((1, 3, 2), 3) == 1
        assert fix_k((2, 1, 3), 0) == 0

    def test_bad_k_identity_scores_k(self):
        for n in range(1, 7):
            ident = tuple(range(1, n + 1))
            for k in range(n + 1):
                assert bad_k(ident, k) == k

    def test_bad_k_requires_weak_rl_minimum_after_ascent(self):
        # in 3 1 2 only the value 2 qualifies: 1 sits after a descent
        assert bad_k((3, 1, 2), 2) == 1
        assert bad_k((1, 3, 2), 2) == 1  # 1 leads; 2 sits after a descent
        assert bad_k((2, 1, 3), 3) == 1  # only 3; 2 is not a suffix minimum
        assert bad_k((2, 3, 1), 2) == 0

    def test_permutation_class(self):
        w = Permutation((2, 3, 1))
        assert w(1) == 2 and w(3) == 1
        with pytest.raises(ValueError):
            Permutation((1, 3))


class TestGroupIterators:
    def test_counts(self):
        assert sum(1 for _ in symmetric_group(4)) == 24
        assert sum(1 for _ in signed_permutations(2)) == 8
        assert sum(1 for _ in colored_permutations(2, 3)) == 18

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setenv("EULERIAN_LAB_BUDGET", "10")
        group_limit.cache_clear() if hasattr(group_limit, "cache_clear") else None
        with pytest.raises(BudgetExceeded):
            list(symmetric_group(4))

    def test_signed_words(self):
        words = set(signed_permutations(1))
        assert words == {(1,), (-1,)}


class TestDesB:
    def test_small_cases(self):
        assert des_B((1, 2)) == 0
        assert des_B((-1, 2)) == 1    # descent at position 0 from w(0) = 0
        assert des_B((2, 1)) == 1
        assert des_B((-2, -1)) == 1

    def test_type_b_eulerian_by_enumeration(self):
        for n, expected in ((1, P(1, 1)), (2, P(1, 6, 1))):
            acc = {}
            for w in signed_permutations(n):
                d = des_B(w)
                acc[d] = acc.get(d, 0) + 1
            assert Poly(tuple(acc.get(i, 0) for i in range(n + 1))) == expected


class TestXiCounts:
    def test_frozen_values(self):
        # brute-forced over S_4: run-condition classes
        plus, minus = xi_counts(4, 4)
        assert plus == (0, 1, 5)
        assert minus == (0, 0)
        plus, minus = xi_counts(4, 2)
        assert plus == (0, 1, 4)
        assert minus == (0, 3)

    def test_empty_group_convention(self):
        plus, minus = xi_counts(0, 0)
        assert plus == (1,)

    def test_reconstruction_identity(self):
        # sum xi+ x^i (1+x)^(n-2i) + sum xi- x^i (1+x)^(n-1-2i) = d_{n,k}
        from eulerian_lab.poly import one_plus_x_power
        from eulerian_lab.transforms import dnk

        for n in range(7):
            for k in range(n + 1):
                plus, minus = xi_counts(n, k)
                total = Poly(())
                for i, c in enumerate(plus):
                    total = total + c * one_plus_x_power(n - 2 * i).times_x_power(i)
                for i, c in enumerate(minus):
                    total = total + c * one_plus_x_power(n - 1 - 2 * i).times_x_power(i)
                assert total == dnk(n, k), (n, k)


class TestFlagExcedance:
    def test_frozen_values(self):
        assert flag_excedance_poly(1, 2, 0) == P()
        assert flag_excedance_poly(1, 2, 1) == P(1)
        assert flag_excedance_poly(2, 2, 0) == P(0, 3)
        assert flag_excedance_poly(2, 2, 1) == P(0, 3)
        assert flag_excedance_poly(2, 2, 2) == P(1, 3)
        assert flag_excedance_poly(3, 2, 1) == P(0, 10, 7)

    def test_r_one_reduces_to_derangement_family(self):
        from eulerian_lab.transforms import dnk

        for n in range(6):
            for k in range(n + 1):
                assert flag_excedance_poly(n, 1, k) == dnk(n, n - k), (n, k)


class TestBruteForceFamilies:
    def test_q_by_fixed_points(self):
        # sum over S_2 of (1+x)^fix_2 x^exc
        assert brute_force_family("q-fix", 2, k=2) == P(1, 3, 1)

    def test_q_by_bad_values(self):
        # sum over S_3 of (1+x)^bad_2 x^des
        assert brute_force_family("q-bad", 3, k=2) == P(1, 6, 4)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            brute_force_family("nope", 3)


def _mixed(terms) -> Poly:
    """Sum of (1+x)^t x^e over the (t, e) pairs; None entries are skipped."""
    counts = Counter(te for te in terms if te is not None)
    return sum(
        (one_plus_x_power(t).times_x_power(e) * c for (t, e), c in counts.items()),
        Poly(()),
    )


def per_word_family(family, n, k=None, j=None):
    """The per-family sweep that the histogram projections replaced: one
    pass over the group for each family and each k and j, computing each
    word's statistic from stats, fix_k, bad_k and des_B."""
    if family == "B":
        return _mixed((0, des_B(w)) for w in signed_permutations(n))

    def term(w):
        s = stats(w)
        if family == "A":
            return 0, s.des
        if family == "A-exc":
            return 0, s.exc
        if family == "p":
            return (0, s.des) if w[0] == k + 1 else None
        if family == "p-asc":
            return (0, s.asc) if w[n] == k + 1 else None
        if family == "p-exc":
            return (0, s.exc) if w[k] == 1 else None
        if family == "q-fix":
            return fix_k(w, k), s.exc
        if family == "q-bad":
            return bad_k(w, k), s.des
        if family in ("qnkj", "qstar"):
            return (fix_k(w, k), s.exc) if w[j] == 1 else None
        if family == "qnkj-alt":
            return (bad_k(w, k), s.des) if w[0] == j + 1 else None
        if family == "d":
            return None if s.fix_set else (0, s.exc)
        if family == "dnk":
            return (0, s.exc) if all(i <= n - k for i in s.fix_set) else None
        assert family == "xi"
        runs = [len(run) for run in s.decreasing_runs]
        if not w or w[0] > n - k:
            if all(size >= 2 for size in runs):
                return n - 2 * len(runs), len(runs)
        elif all(size >= 2 for size in runs[1:]):
            return n - 1 - 2 * (len(runs) - 1), len(runs) - 1
        return None

    wide = family in ("p", "p-asc", "p-exc", "qnkj", "qnkj-alt", "qstar")
    q = _mixed(term(w) for w in symmetric_group(n + 1 if wide else n))
    if family == "qstar" and j == 0 and k >= 1:
        return q.exact_div(one_plus_x_power(1))
    return q


def per_word_flag_excedance(n, r, k):
    terms = []
    for w, colors in colored_permutations(n, r):
        if sum(colors) % r:
            continue
        if any(c == 0 and w[i] == i + 1 > k for i, c in enumerate(colors)):
            continue
        flag = sum(colors) + r * sum(
            1 for i, c in enumerate(colors) if c == 0 and w[i] > i + 1
        )
        terms.append((0, flag // r))
    return _mixed(terms)


ORACLE_FAMILIES = (
    "A", "A-exc", "p", "p-asc", "p-exc", "q-fix", "q-bad", "qnkj",
    "qnkj-alt", "qstar", "d", "dnk", "xi", "B",
)


class TestHistogramAgainstPerWordSweep:
    @pytest.mark.parametrize("family", ORACLE_FAMILIES)
    def test_every_parameter(self, family):
        for n in range(6):
            if family in ("A", "A-exc", "d", "B"):
                params = [{}]
            elif family in ("qnkj", "qnkj-alt", "qstar"):
                params = [dict(k=k, j=j) for k in range(n + 2) for j in range(n + 1)]
            else:
                params = [dict(k=k) for k in range(n + 1)]
            for p in params:
                got = brute_force_family(family, n, **p)
                assert got == per_word_family(family, n, **p), (n, p)

    def test_flag_excedance(self):
        for r in (1, 2):
            for n in range(5 if r == 1 else 4):
                for k in range(n + 1):
                    want = per_word_flag_excedance(n, r, k)
                    assert flag_excedance_poly(n, r, k) == want, (n, r, k)
                    got = brute_force_family("colored-local", n, k=k, r=r)
                    assert got == want, (n, r, k)

    def test_parameter_checks(self):
        with pytest.raises(ValueError):
            brute_force_family("p", 3)  # k missing
        with pytest.raises(ValueError):
            brute_force_family("qnkj", 3, k=5, j=0)
        with pytest.raises(ValueError):
            brute_force_family("qnkj", 3, k=4)  # j missing
        with pytest.raises(ValueError):
            brute_force_family("dnk", 3, k=4)


# -- the projection route that read one (family, k, j) per walk over the
# whole histogram, before project_family grouped it; kept as the oracle of
# TestGroupedProjectionAgainstPerProjectionWalk.

def oracle_poly(hist, stat, keep=None, mask=None, k=0):
    """Sum over the kept keys of count * (1+x)^t * x^key[stat], where t is
    the number of set bits of key[mask] among the first k (0 with no mask)."""
    low = (1 << k) - 1
    terms = Counter()
    for key, c in hist.items():
        if keep is None or keep(key):
            t = 0 if mask is None else (key[mask] & low).bit_count()
            terms[t, key[stat]] += c
    return oracle_expand(terms)


def oracle_expand(terms):
    return sum(
        (one_plus_x_power(t).times_x_power(e) * c for (t, e), c in terms.items()),
        Poly(()),
    )


def oracle_project_family(family, hist, n, k=None, j=None):
    DES, EXC, FIX, BAD = perms._DES, perms._EXC, perms._FIX, perms._BAD
    FIRST, INV1, LAST = perms._FIRST, perms._INV1, perms._LAST
    if family == "A":
        return oracle_poly(hist, DES)
    if family == "A-exc":
        return oracle_poly(hist, EXC)
    if family == "p":
        return oracle_poly(hist, DES, lambda key: key[FIRST] == k + 1)
    if family == "p-asc":
        return reciprocal(oracle_poly(hist, DES, lambda key: key[LAST] == k + 1), n)
    if family == "p-exc":
        return oracle_poly(hist, EXC, lambda key: key[INV1] == k + 1)
    if family == "q-fix":
        return oracle_poly(hist, EXC, mask=FIX, k=k)
    if family == "q-bad":
        return oracle_poly(hist, DES, mask=BAD, k=k)
    if family == "qnkj-alt":
        return oracle_poly(hist, DES, lambda key: key[FIRST] == j + 1, BAD, k)
    if family in ("qnkj", "qstar"):
        q = oracle_poly(hist, EXC, lambda key: key[INV1] == j + 1, FIX, k)
        if family == "qstar" and j == 0 and k >= 1:
            return q.exact_div(one_plus_x_power(1))
        return q
    if family == "d":
        return oracle_poly(hist, EXC, lambda key: not key[FIX])
    if family == "dnk":
        return oracle_poly(hist, EXC, lambda key: key[FIX] >> (n - k) == 0)
    assert family == "xi"
    plus = [0] * (n // 2 + 1)
    minus = [0] * ((n - 1) // 2 + 1 if n >= 1 else 0)
    if n == 0:
        plus[0] = 1
    for key, c in hist.items() if n else ():
        runs = n - key[DES]
        if key[FIRST] > n - k:
            if not (key[perms._FIRST_SINGLE] or key[perms._LATER_SINGLE]):
                plus[runs] += c
        elif not key[perms._LATER_SINGLE]:
            minus[runs - 1] += c
    terms = {(n - 2 * i, i): c for i, c in enumerate(plus)}
    terms.update({(n - 1 - 2 * i, i): c for i, c in enumerate(minus)})
    return oracle_expand(terms)


SWEPT_FAMILIES = (
    "A", "A-exc", "p", "p-asc", "p-exc", "q-fix", "q-bad", "qnkj",
    "qnkj-alt", "qstar", "d", "dnk", "xi",
)
WIDE_FAMILIES = ("p", "p-asc", "p-exc", "qnkj", "qnkj-alt", "qstar")


class TestGroupedProjectionAgainstPerProjectionWalk:
    @pytest.mark.parametrize("family", SWEPT_FAMILIES)
    def test_every_parameter(self, family):
        hists = {m: sweep_histogram(m) for m in range(8)}
        for n in range(7):
            hist = hists[n + 1 if family in WIDE_FAMILIES else n]
            if family in ("A", "A-exc", "d"):
                params = [(None, None)]
            elif family in ("qnkj", "qnkj-alt", "qstar"):
                params = [(k, j) for k in range(n + 2) for j in range(n + 1)]
            else:
                params = [(k, None) for k in range(n + 1)]
            row = project_row(family, hists, n)
            assert len(row) == len(params), (n, sorted(row))
            for k, j in params:
                want = oracle_project_family(family, hist, n, k, j)
                assert project_family(family, hist, n, k, j) == want, (n, k, j)
                assert row[k or 0, j or 0] == want, (n, k, j)
