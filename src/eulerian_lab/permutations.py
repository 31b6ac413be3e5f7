"""Permutation statistics and brute-force enumeration oracles.

Permutations live as tuples of values (one-line notation, 1-based values and
positions); the wrapper class exists for validation and a few conveniences,
while iterators and statistics work on raw tuples so that full-group sweeps
stay cheap.  Every generating polynomial here is an enumeration: no closed
forms, no recurrences.  A family is read off one pass over its group:
sweep_histogram counts the words of S_m by a tuple of raw statistics and
project_row reads each S_n family from that count, and the signed and
colored families are tallied the same way.  One table gives each S_n
family's group size, parameters and grouping: a projection walks the count
once to group it by the family's (statistic, selecting field, mask field)
and reads each k and j off the small groups, so a whole row of k and j
costs one walk; flag_excedance_rows likewise reads every k off one tally
by the largest zero-colour fixed point.  The closed-form counterparts live
in transforms.py; suites.equivalence_cases and the tests compare the two
routes.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from .budget import check_group_budget
from .poly import Poly, linear_combination, one_plus_x_power, reciprocal

Word = Sequence[int]
PermLike = Union["Permutation", Word]


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


def _check_signed_budget(n: int) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")
    check_group_budget((2**n) * math.factorial(n), f"signed permutations of size {n}")


def signed_permutations(n: int) -> Iterator[tuple[int, ...]]:
    """All signed permutations of 1..n as tuples of nonzero signed values."""
    _check_signed_budget(n)

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


def des_B(w: Word) -> int:
    """Descents of a signed word read with a fixed 0 prepended at position 0."""
    word = tuple(w)
    n = len(word)
    count = 1 if n and word[0] < 0 else 0
    count += sum(1 for i in range(n - 1) if word[i] > word[i + 1])
    return count


def _des_B_tally(n: int) -> list[int]:
    """How many signed permutations of size n have each value of des_B.

    A signed word is a base permutation with the positions in a sign mask
    negated, and des_B counts the positions whose value is below the one
    before, starting from a fixed 0.  Between positions i and i + 1 the
    comparison reads the base only through whether it descends there: two
    positive values descend when the base does, two negative ones when it
    ascends, + then - always descends and - then + never does.  So S_n is
    tallied once by descent mask (bit i: base[i] > base[i + 1]), and each
    sign mask is evaluated against each descent mask with bit operations.
    """
    _check_signed_budget(n)
    by_descents = Counter(
        sum(1 << i for i in range(n - 1) if base[i] > base[i + 1])
        for base in itertools.permutations(range(1, n + 1))
    )
    inner = (1 << max(n - 1, 0)) - 1
    tally = [0] * (n + 1)
    for smask in range(1 << n):
        # bit i of neg_here / neg_next: position i / i + 1 is negated
        neg_here, neg_next = smask & inner, smask >> 1 & inner
        mixed = neg_here ^ neg_next
        first = smask & 1
        for dmask, count in by_descents.items():
            descents = (dmask ^ neg_here) & ~mixed | neg_next & mixed
            tally[first + (descents & inner).bit_count()] += count
    return tally


# Fields of a sweep_histogram key.
_DES, _EXC, _FIX, _BAD, _FIRST, _INV1, _LAST, _FIRST_SINGLE, _LATER_SINGLE = range(9)


def sweep_histogram(m: int) -> Counter:
    """One pass over S_m: how many permutations share each key

    (des, exc, fix mask, bad mask, w(1), w^{-1}(1), w(m),
     first decreasing run is a singleton, a later one is a singleton).

    Bit i-1 of the fix mask marks the fixed point i, and bit v-1 of the bad
    mask marks the value v that bad_k counts, so fix_k and bad_k are the
    bits among the first k.  The empty permutation has the key of zeros.
    Every S_n family of brute_force_family is a projection of this count.
    """
    hist: Counter = Counter()
    for w in symmetric_group(m):
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


def _expand(terms: dict[tuple[int, int], int]) -> Poly:
    """Sum of c * (1+x)^t * x^e over the entries (t, e) -> c."""
    return linear_combination(
        (c, one_plus_x_power(t), e) for (t, e), c in terms.items()
    )


def _group(
    hist: Counter, stat: int, field: int | None, mask: int | None
) -> dict[int, Counter]:
    """One walk over hist: for each value of key[field], how many
    permutations share each (key[mask], key[stat]).  A field or mask of None
    reads as 0."""
    groups: dict[int, Counter] = {}
    for key, c in hist.items():
        f = 0 if field is None else key[field]
        group = groups.get(f)
        if group is None:
            group = groups[f] = Counter()
        group[0 if mask is None else key[mask], key[stat]] += c
    return groups


def _read(group: Counter | None, k: int = 0, keep=None) -> Poly:
    """Sum of c * (1+x)^t * x^s over the entries (mask, s) -> c of a group
    (those whose mask keep accepts, when keep is given), where t is the
    number of set bits of mask among the first k."""
    low = (1 << k) - 1
    terms: Counter = Counter()
    for (m, s), c in (group or {}).items():
        if keep is None or keep(m):
            terms[(m & low).bit_count(), s] += c
    return _expand(terms)


def _run_classes(hist: Counter) -> Counter:
    """hist summed down to (w(1), first decreasing run is a singleton, a
    later one is a singleton, des)."""
    classes: Counter = Counter()
    for key, c in hist.items():
        classes[key[_FIRST], key[_FIRST_SINGLE], key[_LATER_SINGLE], key[_DES]] += c
    return classes


def _xi_classes(
    classes: Counter, n: int, k: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    plus = [0] * (n // 2 + 1)
    minus = [0] * ((n - 1) // 2 + 1 if n >= 1 else 0)
    if n == 0:
        plus[0] = 1
        return tuple(plus), tuple(minus)
    for (first, first_single, later_single, des), c in classes.items():
        runs = n - des
        if first > n - k:
            if not (first_single or later_single):
                plus[runs] += c
        elif not later_single:
            minus[runs - 1] += c
    return tuple(plus), tuple(minus)


def xi_counts(n: int, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Run-class counts behind the two-layer expansion of d_{n,k}.

    plus[i] counts permutations with w(1) > n-k, every decreasing run of
    length >= 2 and exactly i runs; minus[i] counts those with w(1) <= n-k,
    every run except possibly the first of length >= 2 and exactly i+1 runs.
    The empty permutation sits in the plus class.
    """
    if not 0 <= k <= n:
        raise ValueError(f"k={k} out of range 0..{n}")
    return _xi_classes(_run_classes(sweep_histogram(n)), n, k)


def flag_excedance_rows(n: int, r: int) -> tuple[Poly, ...]:
    """flag_excedance_poly(n, r, k) for k = 0..n, from one sweep that tallies
    fexc / r over the balanced words by their largest zero-colour fixed
    point (0 if none); row k sums the tallies up to k."""
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
        rows.append(_expand({(0, e): c for e, c in total.items()}))
    return tuple(rows)


def flag_excedance_poly(n: int, r: int, k: int) -> Poly:
    """Sum of x^(fexc/r) over color-balanced r-colored permutations whose
    zero-color fixed points all lie in {1, ..., k}.

    fexc(w) = r * #{i : w(i) > i with color 0} + (total color weight); the
    balance condition makes it divisible by r.  At r = 1 this is the
    enumeration behind d_{n, n-k}.
    """
    if not 0 <= k <= n:
        raise ValueError(f"k={k} out of range 0..{n}")
    return flag_excedance_rows(n, r)[k]


# The S_n families: how far past n the swept group reaches, which of the
# parameters k and j they take, and the grouping of the histogram that each
# family other than xi reads: the statistic in the exponent, the field whose
# value selects a group (k + 1 for the p families, j + 1 for the qnkj ones,
# 0 otherwise: d reads the words without a fixed point) and the mask whose
# first k bits weigh by 1 + x.
_FAMILIES = {
    "A": (0, "", (_DES, None, None)),
    "A-exc": (0, "", (_EXC, None, None)),
    "p": (1, "k", (_DES, _FIRST, None)),
    "p-asc": (1, "k", (_DES, _LAST, None)),
    "p-exc": (1, "k", (_EXC, _INV1, None)),
    "q-fix": (0, "k", (_EXC, None, _FIX)),
    "q-bad": (0, "k", (_DES, None, _BAD)),
    "qnkj": (1, "kj", (_EXC, _INV1, _FIX)),
    "qnkj-alt": (1, "kj", (_DES, _FIRST, _BAD)),
    "qstar": (1, "kj", (_EXC, _INV1, _FIX)),
    "d": (0, "", (_EXC, _FIX, None)),
    "dnk": (0, "k", (_EXC, None, _FIX)),
    "xi": (0, "k", None),
}


def _checked_key(
    family: str, n: int, k: int | None, j: int | None
) -> tuple[int, tuple[int, int]]:
    """Check the parameters of an S_n family; return the size m of the
    group S_m whose sweep_histogram it reads and its key in project_row."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    offset, params, _ = _FAMILIES[family]
    if "k" in params:
        top = n + 1 if "j" in params else n
        if k is None:
            raise ValueError("family requires parameter k")
        if not 0 <= k <= top:
            raise ValueError(f"k={k} out of range 0..{top}")
    if "j" in params:
        if j is None:
            raise ValueError("family requires parameter j")
        if not 0 <= j <= n:
            raise ValueError(f"j={j} out of range 0..{n}")
    return n + offset, (k if "k" in params else 0, j if "j" in params else 0)


def project_row(
    family: str, hists: dict[int, Counter], n: int
) -> dict[tuple[int, int], Poly]:
    """Every polynomial of an S_n family at size n, keyed by (k, j) with 0
    for a parameter the family does not take, read off one grouping of the
    histogram that project_family reads; hists maps each size m to
    sweep_histogram(m)."""
    offset, takes, grouping = _FAMILIES[family]
    hist = hists[n + offset]
    ks = range(n + 2 if "j" in takes else n + 1) if "k" in takes else (0,)
    js = range(n + 1) if "j" in takes else (0,)
    row = {}
    if family == "xi":
        classes = _run_classes(hist)
        for k in ks:
            plus, minus = _xi_classes(classes, n, k)
            terms = {(n - 2 * i, i): c for i, c in enumerate(plus)}
            terms.update({(n - 1 - 2 * i, i): c for i, c in enumerate(minus)})
            row[k, 0] = _expand(terms)
        return row
    groups = _group(hist, *grouping)
    for k in ks:
        for j in js:
            if family == "dnk":
                q = _read(groups.get(0), keep=lambda m: m >> (n - k) == 0)
            elif family == "p-asc":
                # asc = n - des on S_{n+1}
                q = reciprocal(_read(groups.get(k + 1)), n)
            elif family in ("p", "p-exc"):
                q = _read(groups.get(k + 1))
            elif family in ("qnkj", "qnkj-alt", "qstar"):
                q = _read(groups.get(j + 1), k)
                if family == "qstar" and j == 0 and k >= 1:
                    q = q.exact_div(one_plus_x_power(1))
            else:
                q = _read(groups.get(0), k)
            row[k, j] = q
    return row


def project_family(
    family: str, hist: Counter, n: int, k: int | None = None, j: int | None = None
) -> Poly:
    """One S_n family of brute_force_family read off sweep_histogram(m),
    with m = n + 1 for the p and qnkj families and m = n for the others."""
    m, key = _checked_key(family, n, k, j)
    return project_row(family, {m: hist}, n)[key]


def brute_force_family(
    family: str,
    n: int,
    k: int | None = None,
    j: int | None = None,
    r: int | None = None,
) -> Poly:
    """Enumeration oracle for one named polynomial family.

    Each call makes one pass over its group.  Families and their statistics:

    - "A": x^des over S_n; "A-exc": x^exc over S_n
    - "p": x^des over w in S_{n+1} with w(1) = k+1
    - "p-asc": x^asc over w in S_{n+1} with w(n+1) = k+1
    - "p-exc": x^exc over w in S_{n+1} with w^{-1}(1) = k+1
    - "q-fix": (1+x)^fix_k x^exc over S_n
    - "q-bad": (1+x)^bad_k x^des over S_n
    - "qnkj": (1+x)^fix_k x^exc over w in S_{n+1} with w^{-1}(1) = j+1
    - "qnkj-alt": (1+x)^bad_k x^des over w in S_{n+1} with w(1) = j+1
    - "qstar": "qnkj" divided by 1+x when j = 0 and k >= 1
    - "d": x^exc over derangements of S_n
    - "dnk": x^exc over w in S_n with all fixed points in {1, ..., n-k}
    - "xi": the run-class reconstruction of d_{n,k}
    - "B": x^des_B over signed permutations of size n
    - "colored-local": flag_excedance_poly(n, r, k)

    The S_n families are read by project_row off one sweep_histogram.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if family == "B":
        return Poly(_des_B_tally(n))
    if family == "colored-local":
        if k is None or r is None:
            raise ValueError("family requires parameters k and r")
        return flag_excedance_poly(n, r, k)
    m, key = _checked_key(family, n, k, j)
    return project_row(family, {m: sweep_histogram(m)}, n)[key]
