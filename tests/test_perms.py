"""Permutation statistics against hand-checked and brute-forced values."""

import functools
import math
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eulerian_lab import permutations as perms
from eulerian_lab import suites
from eulerian_lab.budget import group_limit
from eulerian_lab.errors import BudgetExceeded
from eulerian_lab.permutations import (
    brute_force_family,
    flag_excedance_poly,
    flag_excedance_rows,
    flag_excedance_table,
    project_row,
    project_rows,
    symmetric_tallies,
    xi_counts,
)
from eulerian_lab.poly import Poly, one_plus_x_power, reciprocal
from oracles import (
    Permutation,
    SWEEP_BAD,
    SWEEP_DES,
    SWEEP_EXC,
    SWEEP_FIRST,
    SWEEP_FIRST_SINGLE,
    SWEEP_FIX,
    SWEEP_INV1,
    SWEEP_LAST,
    SWEEP_LATER_SINGLE,
    bad_k,
    colored_permutations,
    des_B,
    fix_k,
    oracle_descent_set_counts,
    oracle_des_B_tally,
    oracle_flag_excedance_rows,
    oracle_marginals,
    oracle_sweep_histogram,
    signed_permutations,
    stats,
    symmetric_group,
)


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


class TestTalliesAgainstJointSweep:
    """The map and word tallies against the marginals of the joint sweep,
    key by key."""

    def test_every_size_through_eight(self):
        tallies = symmetric_tallies(8)
        assert len(tallies) == 9
        for m, (maps, words) in enumerate(tallies):
            assert (maps, words) == oracle_marginals(oracle_sweep_histogram(m)), m
            assert sum(maps.values()) == sum(words.values()) == math.factorial(m)
            # the keys are packed into widths that depend on the top size
            assert symmetric_tallies(m)[m] == (maps, words), m

    def test_negative_size(self):
        with pytest.raises(ValueError):
            symmetric_tallies(-1)

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setenv("EULERIAN_LAB_BUDGET", "23")
        with pytest.raises(BudgetExceeded, match="S_4"):
            symmetric_tallies(4)
        monkeypatch.setenv("EULERIAN_LAB_BUDGET", "24")
        assert len(symmetric_tallies(4)) == 5


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

    def test_tally_matches_the_signed_word_walk(self):
        # the descent-set tally against the walk over every signed word,
        # and the walk against des_B on each word where that stays quick
        for n in range(8):
            assert perms._des_B_tally(n) == oracle_des_B_tally(n), n
        for n in range(5):
            tally = Counter(des_B(w) for w in signed_permutations(n))
            assert oracle_des_B_tally(n) == [tally[d] for d in range(n + 1)], n

    def test_descent_sets_match_the_sweep_of_s_n(self):
        # the counts by descent set that _des_B_tally reads, against the
        # sweep of S_n that they replaced; the bit evaluation of the sign
        # masks on top of them is the one checked word by word above
        for n in range(9):
            want = oracle_descent_set_counts(n)
            got = perms._descent_set_counts(n)
            assert len(got) == 1 << max(n - 1, 0), n
            assert {s: c for s, c in enumerate(got) if c} == want, n

    def test_budget_guard(self, monkeypatch):
        # metered by the 2^n n! signed words, although no word is made
        monkeypatch.setenv("EULERIAN_LAB_BUDGET", "46079")
        with pytest.raises(BudgetExceeded, match="signed permutations of size 6"):
            brute_force_family("B", 6)
        monkeypatch.setenv("EULERIAN_LAB_BUDGET", "46080")
        assert brute_force_family("B", 6) == Poly(oracle_des_B_tally(6))


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

    @pytest.mark.parametrize("r, top", [(1, 8), (2, 6), (3, 6)])
    def test_dynamic_program_matches_the_sweep(self, r, top):
        # every size off one run, and each size off a run of its own,
        # against the sweep over every colored word
        table = flag_excedance_table(top, r)
        assert len(table) == top + 1
        for n, rows in enumerate(table):
            want = oracle_flag_excedance_rows(n, r)
            assert rows == want, (n, r)
            assert flag_excedance_rows(n, r) == want, (n, r)

    def test_r_one_reads_the_map_tally(self):
        # a third route at r = 1: the map tally of S_n by exc and the bit
        # length of the fix mask, which is the largest fixed point
        for n, (maps, _) in enumerate(symmetric_tallies(8)):
            rows = [Counter() for _ in range(n + 1)]
            for (exc, _, fix), c in maps.items():
                for k in range(fix.bit_length(), n + 1):
                    rows[k][exc] += c
            want = tuple(Poly([row[e] for e in range(n + 1)]) for row in rows)
            assert flag_excedance_rows(n, 1) == want, n

    def test_argument_checks(self):
        with pytest.raises(ValueError):
            flag_excedance_table(-1, 2)
        with pytest.raises(ValueError):
            flag_excedance_rows(3, 0)
        with pytest.raises(ValueError):
            flag_excedance_poly(3, 2, 4)

    def test_budget_guard(self, monkeypatch):
        # metered by the r^n n! colored words, although no word is made
        monkeypatch.setenv("EULERIAN_LAB_BUDGET", "383")
        with pytest.raises(BudgetExceeded, match="2-colored permutations of size 4"):
            flag_excedance_rows(4, 2)
        monkeypatch.setenv("EULERIAN_LAB_BUDGET", "384")
        assert flag_excedance_rows(4, 2) == oracle_flag_excedance_rows(4, 2)


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


# -- the projection routes that the shared, telescoped one replaced, kept as
# its oracles, on the joint histogram of oracle_sweep_histogram.
# oracle_project_family reads one (family, k, j) per walk over the whole
# histogram.  oracle_grouped_row groups the histogram once per family
# (oracle_group) and reads each k off one group (oracle_read).

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
    DES, EXC, FIX, BAD = SWEEP_DES, SWEEP_EXC, SWEEP_FIX, SWEEP_BAD
    FIRST, INV1, LAST = SWEEP_FIRST, SWEEP_INV1, SWEEP_LAST
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
            if not (key[SWEEP_FIRST_SINGLE] or key[SWEEP_LATER_SINGLE]):
                plus[runs] += c
        elif not key[SWEEP_LATER_SINGLE]:
            minus[runs - 1] += c
    terms = {(n - 2 * i, i): c for i, c in enumerate(plus)}
    terms.update({(n - 1 - 2 * i, i): c for i, c in enumerate(minus)})
    return oracle_expand(terms)


# the grouping that each family walked on its own before the families
# shared them: (statistic, selecting field, mask)
ORACLE_GROUPINGS = {
    "A": (SWEEP_DES, None, None),
    "A-exc": (SWEEP_EXC, None, None),
    "p": (SWEEP_DES, SWEEP_FIRST, None),
    "p-asc": (SWEEP_DES, SWEEP_LAST, None),
    "p-exc": (SWEEP_EXC, SWEEP_INV1, None),
    "q-fix": (SWEEP_EXC, None, SWEEP_FIX),
    "q-bad": (SWEEP_DES, None, SWEEP_BAD),
    "qnkj": (SWEEP_EXC, SWEEP_INV1, SWEEP_FIX),
    "qnkj-alt": (SWEEP_DES, SWEEP_FIRST, SWEEP_BAD),
    "qstar": (SWEEP_EXC, SWEEP_INV1, SWEEP_FIX),
    "d": (SWEEP_EXC, SWEEP_FIX, None),
    "dnk": (SWEEP_EXC, None, SWEEP_FIX),
}


def oracle_group(hist, stat, field, mask):
    """For each value of key[field], how many permutations share each
    (key[mask], key[stat]); a field or mask of None reads as 0."""
    groups = {}
    for key, c in hist.items():
        group = groups.setdefault(0 if field is None else key[field], Counter())
        group[0 if mask is None else key[mask], key[stat]] += c
    return groups


def oracle_read(group, k=0, keep=None):
    """Sum of c * (1+x)^t * x^s over the entries (mask, s) -> c of a group
    (those whose mask keep accepts, when keep is given), where t is the
    number of set bits of mask among the first k."""
    low = (1 << k) - 1
    terms = Counter()
    for (m, s), c in (group or {}).items():
        if keep is None or keep(m):
            terms[(m & low).bit_count(), s] += c
    return oracle_expand(terms)


def oracle_grouped_row(family, hists, n):
    hist = hists[n + 1 if family in WIDE_FAMILIES else n]
    groups = oracle_group(hist, *ORACLE_GROUPINGS[family])
    row = {}
    for k, j in oracle_params(family, n):
        k, j = k or 0, j or 0
        if family == "dnk":
            q = oracle_read(groups.get(0), keep=lambda m: m >> (n - k) == 0)
        elif family == "p-asc":
            q = reciprocal(oracle_read(groups.get(k + 1)), n)
        elif family in ("p", "p-exc"):
            q = oracle_read(groups.get(k + 1))
        elif family in ("qnkj", "qnkj-alt", "qstar"):
            q = oracle_read(groups.get(j + 1), k)
            if family == "qstar" and j == 0 and k >= 1:
                q = q.exact_div(one_plus_x_power(1))
        else:
            q = oracle_read(groups.get(0), k)
        row[k, j] = q
    return row


SWEPT_FAMILIES = (
    "A", "A-exc", "p", "p-asc", "p-exc", "q-fix", "q-bad", "qnkj",
    "qnkj-alt", "qstar", "d", "dnk", "xi",
)
WIDE_FAMILIES = ("p", "p-asc", "p-exc", "qnkj", "qnkj-alt", "qstar")
# the largest n at which the projections are checked against the oracles
PROJECTION_N = 7


def oracle_params(family, n):
    if family in ("A", "A-exc", "d"):
        return [(None, None)]
    if family in ("qnkj", "qnkj-alt", "qstar"):
        return [(k, j) for k in range(n + 2) for j in range(n + 1)]
    return [(k, None) for k in range(n + 1)]


@functools.lru_cache(maxsize=None)
def histogram(m):
    return oracle_sweep_histogram(m)


@functools.lru_cache(maxsize=None)
def tallies():
    """The tallies of S_0..S_{PROJECTION_N + 1}."""
    return symmetric_tallies(PROJECTION_N + 1)


@functools.lru_cache(maxsize=None)
def oracle_row(family, n):
    hist = histogram(n + 1 if family in WIDE_FAMILIES else n)
    return {
        (k or 0, j or 0): oracle_project_family(family, hist, n, k, j)
        for k, j in oracle_params(family, n)
    }


class TestGroupedProjectionAgainstPerProjectionWalk:
    """The shared groupings against the per-projection walk, read three
    ways, so that a family never reads what another family's reading left
    in a shared grouping."""

    @pytest.mark.parametrize("family", SWEPT_FAMILIES)
    def test_every_parameter(self, family):
        # each family alone
        hists = {m: histogram(m) for m in range(PROJECTION_N + 2)}
        for n in range(PROJECTION_N + 1):
            m = n + 1 if family in WIDE_FAMILIES else n
            want = oracle_row(family, n)
            row = project_row(family, tallies(), n)
            assert row == want, n
            if family in ORACLE_GROUPINGS:
                assert oracle_grouped_row(family, hists, n) == want, n
            # read off the one tally of S_m that the family needs
            assert project_row(family, {m: tallies()[m]}, n) == want, n

    @pytest.mark.parametrize("order", (1, -1))
    def test_all_families_together(self, order):
        # in both orders, so that each family of a shared grouping is read
        # both before and after the others
        families = SWEPT_FAMILIES[::order]
        for n in range(PROJECTION_N + 1):
            rows = project_rows(families, tallies(), n)
            assert list(rows) == list(families)
            for family in families:
                assert rows[family] == oracle_row(family, n), (family, n)

    @pytest.mark.parametrize("family", SWEPT_FAMILIES)
    def test_through_brute_force_family(self, family, monkeypatch):
        # the tallies are shared through the cache; the projections are not
        monkeypatch.setattr(perms, "symmetric_tallies", lambda top: tallies()[: top + 1])
        for n in range(PROJECTION_N + 1):
            want = oracle_row(family, n)
            for k, j in oracle_params(family, n):
                got = brute_force_family(family, n, k=k, j=j)
                assert got == want[k or 0, j or 0], (n, k, j)


group_masks = st.integers(min_value=0, max_value=(1 << 10) - 1)
groups = st.one_of(
    st.none(),
    st.dictionaries(
        st.tuples(group_masks, st.integers(min_value=0, max_value=8)),
        st.integers(min_value=1, max_value=50),
        max_size=12,
    ).map(Counter),
)
READS = settings(max_examples=500, deadline=None, derandomize=True, database=None)


class TestTelescopedRead:
    """Every k of a group in one pass against one read per k, on random
    (mask, s) -> c groups whose masks may have bits at or above the top k."""

    @READS
    @given(groups, st.integers(min_value=0, max_value=8))
    @example(None, 3)
    @example(Counter({(0b1111, 2): 3, (0, 1): 1}), 0)
    @example(Counter({(0b1100000, 1): 2, (0b101, 0): 1}), 2)
    def test_every_k_matches_the_per_k_read(self, group, top):
        want = [oracle_read(group, k) for k in range(top + 1)]
        assert perms._telescope(group, top) == want

    @READS
    @given(groups, st.integers(min_value=0, max_value=10))
    @example(None, 3)
    @example(Counter({(0, 2): 3, (0b1, 1): 1}), 0)
    def test_fixed_below_matches_the_filtered_read(self, group, top):
        # a fix mask of S_top has no bit at or above top
        if group is not None:
            group = Counter({(m % (1 << top), s): c for (m, s), c in group.items()})
        want = [oracle_read(group, keep=lambda m: m >> i == 0) for i in range(top + 1)]
        assert perms._fixed_below(group, top) == want


class TestEquivalenceWalks:
    def test_each_size_walked_once_per_grouping(self, monkeypatch):
        # equivalence_cases tallies S_0..S_{n_max+1} in one call, and at each
        # n walks the tallies of S_{n+1} for qnkj, qnkj-alt and p-asc and
        # those of S_n for q-fix, q-bad and xi
        calls, sizes, walks, at = [], {}, Counter(), []
        real_tallies, real_rows = suites.symmetric_tallies, suites.project_rows
        real_group, real_classes = perms._group, perms._run_classes

        def count(top):
            calls.append(top)
            out = real_tallies(top)
            sizes.update((id(tally), m) for m, tally in enumerate(out))
            return out

        def rows(families, hists, n):
            at.append(n)
            return real_rows(families, hists, n)

        def group(tally, *grouping):
            walks[at[-1], sizes[id(tally)], grouping] += 1
            return real_group(tally, *grouping)

        def classes(tally):
            walks[at[-1], sizes[id(tally)], "xi"] += 1
            return real_classes(tally)

        monkeypatch.setattr(suites, "symmetric_tallies", count)
        monkeypatch.setattr(suites, "project_rows", rows)
        monkeypatch.setattr(perms, "_group", group)
        monkeypatch.setattr(perms, "_run_classes", classes)
        n_max = 4
        assert all(c.ok for c in suites.equivalence_cases(n_max))
        assert calls == [n_max + 1]
        assert at == list(range(n_max + 1))
        assert set(walks.values()) == {1}
        for n in range(n_max + 1):
            by_size = Counter(m for at_n, m, _ in walks if at_n == n)
            assert by_size == {n + 1: 3, n: 3}, (n, by_size)
