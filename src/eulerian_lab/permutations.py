"""Permutation statistics and enumeration oracles.

Every generating polynomial here is a count of words by their own
statistics, and no closed form enters.  No word is generated either: each
group is counted by a dynamic program or a product formula.  The S_n
families are read off symmetric_tallies: a dynamic program over the set of
values placed so far counts each word of S_0..S_top exactly once, into a
map tally (exc, w^{-1}(1), fix mask) and a word tally (des, w(1), bad mask,
w(m), singleton runs), the two marginals that the families read.
project_rows reads the S_n families from those tallies.  One table gives
each S_n family's group size, parameters, grouping and reading.  A
grouping sorts one tally by (statistic, selecting field, mask field), and
one walk of the tally per distinct grouping is shared by the families that
read it: p and p-exc are the k = 0 reads of the qnkj-alt and qnkj
groupings, A and A-exc those of q-bad and q-fix, and dnk and d read the
q-fix grouping too.  A masked group gives its row for every k in one
telescoped pass.  flag_excedance_table counts the colored words of every
size up to top by the same kind of dynamic program, and reads every k off
one tally by the largest zero-colour fixed point.  _des_B_tally counts S_n
by descent set, with multinomials and one Moebius pass, and evaluates the
sign masks of the signed words on the descent masks.  The closed-form
counterparts live in transforms.py; suites.equivalence_cases and the tests
compare the two routes.  The per-word statistics and group iterators that
these counts replaced are the tests' oracles.
"""

from __future__ import annotations

import math
from collections import Counter
from operator import itemgetter
from typing import Mapping, Sequence

from .budget import check_group_budget
from .poly import Poly, linear_combination, one_plus_x_power, reciprocal


def _check_signed_budget(n: int) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")
    check_group_budget((2**n) * math.factorial(n), f"signed permutations of size {n}")


def _des_B_tally(n: int) -> list[int]:
    """How many signed permutations of size n have each value of des_B.

    A signed word is a base permutation with the positions in a sign mask
    negated, and des_B counts the positions whose value is below the one
    before, starting from a fixed 0.  Between positions i and i + 1 the
    comparison reads the base only through whether it descends there: two
    positive values descend when the base does, two negative ones when it
    ascends, + then - always descends and - then + never does.  So S_n is
    counted once by descent set (_descent_set_counts), and each sign mask
    is evaluated against each descent mask with bit operations.
    """
    _check_signed_budget(n)
    by_descents = _descent_set_counts(n)
    inner = (1 << max(n - 1, 0)) - 1
    tally = [0] * (n + 1)
    for smask in range(1 << n):
        # bit i of neg_here / neg_next: position i / i + 1 is negated
        neg_here, neg_next = smask & inner, smask >> 1 & inner
        mixed = neg_here ^ neg_next
        first = smask & 1
        for dmask, count in enumerate(by_descents):
            descents = (dmask ^ neg_here) & ~mixed | neg_next & mixed
            tally[first + (descents & inner).bit_count()] += count
    return tally


def _descent_set_counts(n: int) -> list[int]:
    """Entry S, for every S below 2^(n-1), is the number of permutations of
    S_n whose descent mask is S (bit i: w(i+1) > w(i+2)), counted without
    making a word.

    The permutations whose descents all lie in S increase on each block of
    positions that S cuts 1..n into, so they number the multinomial
    n! / (b_1! ... b_t!) over the block lengths b_i: an arrangement is a
    choice of which values fill each block.  The counts with descent mask
    exactly S follow by one Moebius pass over the subsets of S (Stanley,
    Enumerative Combinatorics I, section 1.4).
    """
    inner = max(n - 1, 0)
    factorial = [math.factorial(i) for i in range(n + 1)]
    counts = []
    for mask in range(1 << inner):
        count, start = factorial[n], 0
        while mask:
            bit = mask & -mask
            end = bit.bit_length()
            count //= factorial[end - start]
            start = end
            mask ^= bit
        counts.append(count // factorial[n - start])
    for i in range(inner):
        bit = 1 << i
        for mask in range(1 << inner):
            if mask & bit:
                counts[mask] -= counts[mask ^ bit]
    return counts


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


def flag_excedance_table(top: int, r: int) -> list[tuple[Poly, ...]]:
    """Entry n, for n = 0..top, is flag_excedance_rows(n, r): every size
    off one run.

    A dynamic program over the set U of values placed so far, one value
    and its colour at a time from left to right, as in _map_tallies.  A
    state is U with the packed (fexc, largest zero-colour fixed point) of
    the colored prefixes that place it, where fexc = r * (zero-colour
    excedances) + colour sum.  Placing v at position p = |U| + 1 with
    colour 0 adds r if v > p and makes p the largest zero-colour fixed
    point if v = p; with colour c >= 1 it adds c.  At U = {1..n} the run
    has counted each colored word of size n exactly once.  The balanced
    words, those with r | fexc, are tallied by fexc / r and their largest
    zero-colour fixed point (0 if none), and row k sums the tallies up to
    k.
    """
    if top < 0:
        raise ValueError("n must be nonnegative")
    if r < 1:
        raise ValueError("r must be positive")
    check_group_budget(
        (r**top) * math.factorial(top), f"{r}-colored permutations of size {top}"
    )
    # the largest zero-colour fixed point p is bit p - 1 of the low field
    low = (1 << top) - 1
    layer = {0: {0: 1}}
    table = []
    for p in range(1, top + 2):
        group: Counter = Counter()
        for o, c in layer[(1 << (p - 1)) - 1].items():
            fexc = o >> top
            if fexc % r == 0:
                group[o & low, fexc // r] += c
        table.append(tuple(_fixed_below(group, p - 1)))
        if p > top:
            break
        fixed_bit = 1 << (p - 1)
        nxt: dict[int, dict[int, int]] = {}
        for used, outs in layer.items():
            # a colour c >= 1 adds c whatever the value placed
            colored: dict[int, int] = {}
            for colour in range(1, r):
                _merge(colored, outs, 0, colour << top)
            for v in range(1, top + 1):
                bit = 1 << (v - 1)
                if used & bit:
                    continue
                target = nxt.get(used | bit)
                if target is None:
                    target = nxt[used | bit] = {}
                if v == p:
                    get = target.get
                    for o, c in outs.items():
                        o = o & ~low | fixed_bit
                        target[o] = get(o, 0) + c
                else:
                    _merge(target, outs, 0, r << top if v > p else 0)
                if colored:
                    _merge(target, colored, 0, 0)
        layer = nxt
    return table


def flag_excedance_rows(n: int, r: int) -> tuple[Poly, ...]:
    """flag_excedance_poly(n, r, k) for k = 0..n: entry n of
    flag_excedance_table(n, r)."""
    return flag_excedance_table(n, r)[n]


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
