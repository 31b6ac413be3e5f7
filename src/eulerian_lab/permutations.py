"""Permutation statistics and enumeration oracles.

Permutations live as tuples of values (one-line notation, 1-based values and
positions); the wrapper class exists for validation and a few conveniences,
while iterators and statistics work on raw tuples so that full-group sweeps
stay cheap.  Every generating polynomial here is a count of words by their
own statistics, and no closed form enters.  The S_n families are read off
symmetric_tallies: a dynamic program over the set of values placed so far
counts each word of S_0..S_top exactly once, into a map tally (exc,
w^{-1}(1), fix mask) and a word tally (des, w(1), bad mask, w(m), singleton
runs), the two marginals that the families read.  project_rows reads the
S_n families from those tallies, and the signed and colored families are
tallied by a pass over their groups.  One table gives each S_n family's
group size, parameters, grouping and reading.  A grouping sorts one tally
by (statistic, selecting field, mask field), and one walk of the tally per
distinct grouping is shared by the families that read it: p and p-exc are
the k = 0 reads of the qnkj-alt and qnkj groupings, A and A-exc those of
q-bad and q-fix, and dnk and d read the q-fix grouping too.  A masked group
gives its row for every k in one telescoped pass.  flag_excedance_rows
likewise reads every k off one tally by the largest zero-colour fixed
point.  The closed-form counterparts live in transforms.py;
suites.equivalence_cases and the tests compare the two routes.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, Mapping, Sequence, Union

from .budget import check_group_budget
from .poly import ONE, Poly, linear_combination, one_plus_x_power, reciprocal

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


# Fields of a map tally key and of a word tally key, and the two tallies of
# one symmetric_tallies entry.
_EXC, _INV1, _FIX = range(3)
_DES, _FIRST, _BAD, _LAST, _FIRST_SINGLE, _LATER_SINGLE = range(6)
_MAPS, _WORDS = range(2)

# The map tally and the word tally of one S_m.
Tally = tuple[Counter, Counter]


def symmetric_tallies(top: int) -> list[Tally]:
    """Entry m, for m = 0..top, counts the words of S_m twice over: the map
    tally by (exc, w^{-1}(1), fix mask) and the word tally by (des, w(1),
    bad mask, w(m), first decreasing run is a singleton, a later one is a
    singleton).

    Bit i-1 of the fix mask marks the fixed point i, and bit v-1 of the bad
    mask marks the value v that bad_k counts, so fix_k and bad_k are the
    bits among the first k.  The empty permutation has the keys of zeros.
    Every S_n family of brute_force_family is a projection of one of the
    two tallies: no grouping reads fields of both.

    Each tally is a dynamic program over the set U of values placed so far,
    one value at a time from left to right; see _map_tallies and
    _word_tallies.  A word of S_m is a path through the sets with U =
    {1..m} at step m, so one run up to top counts S_0..S_top, each word
    exactly once and from its own statistics.
    """
    if top < 0:
        raise ValueError("n must be nonnegative")
    check_group_budget(math.factorial(top), f"S_{top}")
    return list(zip(_map_tallies(top), _word_tallies(top)))


def _merge(
    target: dict[int, int], outs: dict[int, int], set_bits: int, add: int
) -> None:
    """Add each packed key o -> c of outs to target as (o | set_bits) + add."""
    get = target.get
    for o, c in outs.items():
        o = (o | set_bits) + add
        target[o] = get(o, 0) + c


def _map_tallies(top: int) -> list[Counter]:
    """The map tallies of S_0..S_top.

    A state is the set U of placed values with the packed (fix mask,
    w^{-1}(1), exc) of the prefixes that place it.  Placing v at position
    p = |U| + 1 adds an excedance if v > p, sets fix bit p if v = p and
    records w^{-1}(1) = p if v = 1.
    """
    width = top.bit_length()
    inv1_at, exc_at = top, top + width
    low, field = (1 << top) - 1, (1 << width) - 1
    layer = {0: {0: 1}}
    tallies = []
    for p in range(1, top + 2):
        placed = layer[(1 << (p - 1)) - 1]
        tallies.append(Counter(
            {(o >> exc_at, o >> inv1_at & field, o & low): c for o, c in placed.items()}
        ))
        if p > top:
            break
        nxt: dict[int, dict[int, int]] = {}
        for used, outs in layer.items():
            for v in range(1, top + 1):
                bit = 1 << (v - 1)
                if used & bit:
                    continue
                set_bits = bit if v == p else 0
                if v == 1:
                    set_bits |= p << inv1_at
                target = nxt.get(used | bit)
                if target is None:
                    target = nxt[used | bit] = {}
                _merge(target, outs, set_bits, 1 << exc_at if v > p else 0)
        layer = nxt
    return tallies


def _word_tallies(top: int) -> list[Counter]:
    """The word tallies of S_0..S_top.

    A state is the set U of placed values, the last value placed and
    whether a decreasing run starts at its position (the first position, or
    one entered by an ascent), with the packed (bad mask, w(1), des,
    singleton flags) of the prefixes that reach it.  Placing v at position
    p = |U| + 1:

    - adds a descent if v is below the last value;
    - makes v a right-to-left minimum exactly when every smaller value is
      already placed, U >= {1..v-1}, and sets its bad bit when that holds
      and p = 1 or v is above the last value;
    - ends the run that starts at the last position after one value when v
      is above the last value: the first run if p = 2, a later one if not.

    A run that starts at position m ends there too, so reading S_m marks
    the last position's run a singleton when one starts there.
    """
    width = top.bit_length()
    first_at, des_at = top, top + width
    first_single, later_single = 1 << des_at + width, 1 << des_at + width + 1
    low, field = (1 << top) - 1, (1 << width) - 1
    # U -> (last value, a run starts at it) -> packed key -> count
    layer = {0: {(0, True): {0: 1}}}
    tallies = []
    for p in range(1, top + 2):
        m = p - 1
        tally: Counter = Counter()
        for (last, opens), outs in layer[(1 << m) - 1].items():
            ends = 0
            if m and opens:
                ends = first_single if m == 1 else later_single
            for o, c in outs.items():
                o |= ends
                key = (o >> des_at & field, o >> first_at & field, o & low, last,
                       bool(o & first_single), bool(o & later_single))
                tally[key] += c
        tallies.append(tally)
        if p > top:
            break
        nxt: dict[int, dict[tuple[int, bool], dict[int, int]]] = {}
        for used, states in layer.items():
            for v in range(1, top + 1):
                bit = 1 << (v - 1)
                if used & bit:
                    continue
                below = bit - 1
                rl_min = used & below == below
                into = nxt.get(used | bit)
                if into is None:
                    into = nxt[used | bit] = {}
                for (last, opens), outs in states.items():
                    if p == 1:
                        up, set_bits, add = True, v << first_at, 0
                    else:
                        up = last < v
                        add = 0 if up else 1 << des_at
                        set_bits = 0
                        if up and opens:
                            set_bits = first_single if p == 2 else later_single
                    if rl_min and up:
                        set_bits |= bit
                    target = into.get((v, up))
                    if target is None:
                        target = into[v, up] = {}
                    _merge(target, outs, set_bits, add)
        layer = nxt
    return tallies


def _accumulate(acc: list[int], terms: dict[tuple[int, int], int]) -> list[int]:
    """Add c * (1+x)^t * x^e to the coefficient list acc for each entry
    (t, e) -> c, and return acc."""
    for (t, e), c in terms.items():
        row = one_plus_x_power(t).coeffs
        grow = e + len(row) - len(acc)
        if grow > 0:
            acc += [0] * grow
        for i, b in enumerate(row, e):
            acc[i] += c * b
    return acc


def _group(
    tally: Tally, side: int, stat: int, field: int | None, mask: int | None
) -> dict[int, Counter]:
    """One walk over tally[side]: for each value of key[field], how many
    permutations share each (key[mask], key[stat]).  A field or mask of None
    reads as 0."""
    # a field or mask of None picks stat in its place and is zeroed below
    pick = itemgetter(
        stat if field is None else field, stat if mask is None else mask, stat
    )
    sums: dict[tuple[int, int, int], int] = {}
    get = sums.get
    for key, c in tally[side].items():
        key = pick(key)
        sums[key] = get(key, 0) + c
    groups: dict[int, Counter] = {}
    for (f, m, s), c in sums.items():
        if field is None:
            f = 0
        if mask is None:
            m = 0
        group = groups.get(f)
        if group is None:
            group = groups[f] = Counter()
        group[m, s] += c
    return groups


def _telescope(group: Counter | None, top: int) -> list[Poly]:
    """Row k, for k = 0..top, is the sum of c * (1+x)^t * x^s over the
    entries (mask, s) -> c of a group, where t is the number of set bits of
    mask among the first k.  Since (1+x)^(t+1) - (1+x)^t = x(1+x)^t, row
    k + 1 is row k plus x * c * x^s * (1+x)^t over the entries whose mask has
    bit k, with t the bits below k: each entry is visited once per set bit
    below top, not once per k, and every step adds into one running list of
    coefficients."""
    base: dict[tuple[int, int], int] = {}
    steps: list[dict[tuple[int, int], int]] = [{} for _ in range(top)]
    low = (1 << top) - 1
    for (m, s), c in (group or {}).items():
        key = 0, s
        base[key] = base.get(key, 0) + c
        m &= low
        t = 0
        s += 1
        while m:
            bit = m & -m
            step = steps[bit.bit_length() - 1]
            key = t, s
            step[key] = step.get(key, 0) + c
            m ^= bit
            t += 1
    acc = _accumulate([], base)
    rows = [Poly(acc)]
    for step in steps:
        rows.append(Poly(_accumulate(acc, step)))
    return rows


def _fixed_below(group: Counter | None, top: int) -> list[Poly]:
    """Row i, for i = 0..top, is the sum of c * x^s over the entries
    (mask, s) -> c of a group whose mask has no bit at or above i: one walk
    adds each entry to the running coefficients of the rows from its mask's
    bit length on."""
    by_length = [[] for _ in range(top + 1)]
    for (m, s), c in (group or {}).items():
        by_length[m.bit_length()].append((s, c))
    acc: list[int] = []
    rows = []
    for entries in by_length:
        for s, c in entries:
            if s >= len(acc):
                acc += [0] * (s + 1 - len(acc))
            acc[s] += c
        rows.append(Poly(acc))
    return rows


def _run_classes(tally: Tally) -> Counter:
    """The word tally summed down to (w(1), first decreasing run is a
    singleton, a later one is a singleton, des)."""
    pick = itemgetter(_FIRST, _FIRST_SINGLE, _LATER_SINGLE, _DES)
    classes: Counter = Counter()
    for key, c in tally[_WORDS].items():
        classes[pick(key)] += c
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


def _xi_row(tally: Tally, n: int) -> dict[tuple[int, int], Poly]:
    """The xi row at size n, every k off one walk of the tally of S_n."""
    classes = _run_classes(tally)
    row = {}
    for k in range(n + 1):
        plus, minus = _xi_classes(classes, n, k)
        row[k, 0] = linear_combination(
            [(c, one_plus_x_power(n - 2 * i), i) for i, c in enumerate(plus)]
            + [(c, one_plus_x_power(n - 1 - 2 * i), i) for i, c in enumerate(minus)]
        )
    return row


def xi_counts(n: int, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Run-class counts behind the two-layer expansion of d_{n,k}.

    plus[i] counts permutations with w(1) > n-k, every decreasing run of
    length >= 2 and exactly i runs; minus[i] counts those with w(1) <= n-k,
    every run except possibly the first of length >= 2 and exactly i+1 runs.
    The empty permutation sits in the plus class.
    """
    if not 0 <= k <= n:
        raise ValueError(f"k={k} out of range 0..{n}")
    return _xi_classes(_run_classes(symmetric_tallies(n)[n]), n, k)


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
        rows.append(linear_combination((c, ONE, e) for e, c in total.items()))
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


# The groupings of the tallies that the S_n families read: the tally, the
# statistic in the exponent, the field whose value selects a group and the
# mask whose bits weigh by 1 + x.
_QNKJ = (_MAPS, _EXC, _INV1, _FIX)
_QNKJ_ALT = (_WORDS, _DES, _FIRST, _BAD)
_P_ASC = (_WORDS, _DES, _LAST, None)
_Q_FIX = (_MAPS, _EXC, None, _FIX)
_Q_BAD = (_WORDS, _DES, None, _BAD)


# Where a family finds its (k, j) entry at size n: the group of its grouping
# and the row of that group's reading.
def _group_j(n: int, k: int, j: int) -> tuple[int, int]:
    return j + 1, k


def _group_k(n: int, k: int, j: int) -> tuple[int, int]:
    return k + 1, 0


def _row_k(n: int, k: int, j: int) -> tuple[int, int]:
    return 0, k


def _fixed_in_first(n: int, k: int, j: int) -> tuple[int, int]:
    return 0, n - k


# The S_n families: how far past n the tallied group reaches, which of the
# parameters k and j they take, the grouping of the tallies they read,
# how a group is read (_telescope: row k weighs the first k mask bits by
# 1 + x; _fixed_below: row i keeps the words whose mask bits all lie below
# i, so row 0 of the fix mask holds the derangements) and where each entry
# lies.  Families that share a grouping share its walk and its readings.
_FAMILIES = {
    "A": (0, "", _Q_BAD, _telescope, _row_k),
    "A-exc": (0, "", _Q_FIX, _telescope, _row_k),
    "p": (1, "k", _QNKJ_ALT, _telescope, _group_k),
    "p-asc": (1, "k", _P_ASC, _telescope, _group_k),
    "p-exc": (1, "k", _QNKJ, _telescope, _group_k),
    "q-fix": (0, "k", _Q_FIX, _telescope, _row_k),
    "q-bad": (0, "k", _Q_BAD, _telescope, _row_k),
    "qnkj": (1, "kj", _QNKJ, _telescope, _group_j),
    "qnkj-alt": (1, "kj", _QNKJ_ALT, _telescope, _group_j),
    "qstar": (1, "kj", _QNKJ, _telescope, _group_j),
    "d": (0, "", _Q_FIX, _fixed_below, _row_k),
    "dnk": (0, "k", _Q_FIX, _fixed_below, _fixed_in_first),
    "xi": (0, "k", None, None, None),
}


def _params(takes: str, n: int) -> list[tuple[int, int]]:
    """The (k, j) keys of a family's row at size n, 0 for a parameter the
    family does not take."""
    ks = range(n + 2 if "j" in takes else n + 1) if "k" in takes else (0,)
    js = range(n + 1) if "j" in takes else (0,)
    return [(k, j) for k in ks for j in js]


def _checked_key(
    family: str, n: int, k: int | None, j: int | None
) -> tuple[int, tuple[int, int]]:
    """Check the parameters of an S_n family; return the size m of the
    group S_m whose tally it reads and its key in project_rows."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    offset, params = _FAMILIES[family][:2]
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


def project_rows(
    families: Sequence[str], hists: Mapping[int, Tally] | Sequence[Tally], n: int
) -> dict[str, dict[tuple[int, int], Poly]]:
    """Every polynomial of each named S_n family at size n, keyed by family
    and then by (k, j) with 0 for a parameter the family does not take;
    hists[m] is the tally of S_m, entry m of symmetric_tallies.

    One walk of a tally per distinct grouping is shared by the families
    that read it, and each group is read once: a masked group gives its row
    for every k in one telescoped pass."""
    grouped: dict = {}
    read: dict = {}
    out = {}
    for family in families:
        offset, takes, grouping, reader, locate = _FAMILIES[family]
        if grouping is None:
            out[family] = _xi_row(hists[n], n)
            continue
        m = n + offset
        if (m, grouping) not in grouped:
            grouped[m, grouping] = _group(hists[m], *grouping)
        row = {}
        for k, j in _params(takes, n):
            g, r = locate(n, k, j)
            key = m, grouping, reader, g
            if key not in read:
                top = 0 if grouping[3] is None else m
                read[key] = reader(grouped[m, grouping].get(g), top)
            row[k, j] = read[key][r]
        if family == "p-asc":
            # asc = n - des on S_{n+1}
            row = {key: reciprocal(q, n) for key, q in row.items()}
        elif family == "qstar":
            for k in range(1, n + 2):
                row[k, 0] = row[k, 0].exact_div(one_plus_x_power(1))
        out[family] = row
    return out


def project_row(
    family: str, hists: Mapping[int, Tally] | Sequence[Tally], n: int
) -> dict[tuple[int, int], Poly]:
    """The row of one family from project_rows."""
    return project_rows((family,), hists, n)[family]


def brute_force_family(
    family: str,
    n: int,
    k: int | None = None,
    j: int | None = None,
    r: int | None = None,
) -> Poly:
    """Enumeration oracle for one named polynomial family.

    Each call tallies its group once.  Families and their statistics:

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

    The S_n families are read by project_rows off the tallies of one
    symmetric_tallies call, each from the grouping it shares with the other
    families that read it.
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
    return project_row(family, {m: symmetric_tallies(m)[m]}, n)[key]
