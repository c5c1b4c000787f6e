"""Extremal revelation orders on the path: enumeration and counting.

A worst-case order drives the dominating set up to ceil(n/2) vertices, a
best-case order down to ceil(n/3).  Both are counted by exhaustive
simulation and by one recurrence on the first revealed vertex, the
worst-case orders also by a generating function in the series module and
the best-case orders by one closed form per residue class at every n >= 2;
every route cross-checks the others.

The exhaustive census covers all n! orders through the state-merging
engine of the domination module and returns the number of orders per set
size, the tuple the word census returns too; the final sets themselves
come from domination.final_set_counts.  extremal_permutations lists
extremal orders lexicographically, up to an optional limit, through the
same engine, under its guard; extremal_size maps a bound to its set size.
The word census gets the same tuple from the up/down words of the path
instead, in one pass over their letters: the rank recursion counts the
orders behind the word prefixes, and the evaluator's scan, run one letter at
a time, their set sizes.  Where words are listed, they are rows of letters:
row i holds letter i of every word, as bools or packed 8 words a byte, the
form PackedWords.every_word writes straight into the evaluator's table.

Inversion maps the worst-case orders of odd n onto the weakly alternating
permutations.  The inversion bijection is stated on up/down words, where
the pattern is every_even_vertex_has; its other form, the rank recursion
over up/down steps (Niven 1968; de Bruijn 1970), counts the weakly
alternating permutations in O(n^2) additions.  Complementation i -> n+1-i
maps those one to one onto the permutations with no even local maximum, so
that count serves both patterns: the mirrored recursion would only reverse
every rank table.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Iterable

# domination and graphs are imported by the functions that run them, so the
# count recurrence and the formulas load neither.
from .errors import EXACT_COUNT_CAP, WORD_CENSUS_CAP, ConsistencyError, check_cap

if TYPE_CHECKING:
    import numpy as np

    from .graphs import Graph

SUBSET_SEARCH_CAP = 18
# The weak-alternation listing scans all n! orders (about 2 s at n = 10).
PERMUTATION_SCAN_CAP = 10
PERMUTATION_ROWS = 1 << 16  # orders tested at a time by that scan


def extremal_size(n: int, bound_kind: str) -> int:
    """Set size at the "worst" or "best" bound on the n-path: ceil(n/2) or
    ceil(n/3), the values of max_dominating_size and min_dominating_size,
    worked out here so that the count routes load no domination."""
    if bound_kind not in ("worst", "best"):
        raise ValueError("bound_kind must be 'worst' or 'best'")
    if n < 1:
        raise ValueError("n must be positive")
    return (n + 1) // 2 if bound_kind == "worst" else (n + 2) // 3


def odd_vertex_set(n: int) -> frozenset[int]:
    return frozenset(range(1, n + 1, 2))


def maximal_independent_dominating_sets(n: int) -> list[frozenset[int]]:
    """All size-maximal independent dominating sets of the n-path.

    Odd n admits a single such set, the odd vertices.  Even n admits n/2 + 1,
    one per gap j = 0 .. n/2: {1, 3, ..., 2j-1, 2j+2, 2j+4, ..., n}, the even
    vertices at j = 0 and the odd vertices at j = n/2.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n % 2:
        return [odd_vertex_set(n)]
    return [
        frozenset((*range(1, 2 * j, 2), *range(2 * j + 2, n + 1, 2))) for j in range(n // 2 + 1)
    ]


def independent_dominating_sets_bruteforce(
    n: int, size: int | None = None, *, force: bool = False
) -> list[frozenset[int]]:
    """Exhaustive 2^n subset search for independent dominating sets of the n-path.

    With bit v-1 for vertex v, a subset is independent when no bit has its
    neighbour above it, bits & bits >> 1 == 0, and dominating when it and its
    two shifts cover every vertex.  The sets come in ascending order of bits.
    """
    if n < 1:
        raise ValueError("n must be positive")
    check_cap(n, SUBSET_SEARCH_CAP, force, "exhaustive subset search")
    full = (1 << n) - 1
    return [
        frozenset(v for v in range(1, n + 1) if bits >> (v - 1) & 1)
        for bits in range(1, 1 << n)
        if (size is None or bits.bit_count() == size)
        and not bits & bits >> 1
        and (bits | bits << 1 | bits >> 1) & full == full
    ]


def set_first_order(vertex_set: Iterable[int], n: int) -> tuple[int, ...]:
    """Revelation order listing the set first (ascending), then the rest.

    Listing an independent dominating set first realizes exactly that set.
    """
    members = sorted(vertex_set)
    rest = sorted(set(range(1, n + 1)) - set(members))
    return tuple(members + rest)


# ---------------------------------------------------------------------------
# Exhaustive census
# ---------------------------------------------------------------------------


def _engine_path(n: int, force: bool) -> Graph:
    """The n-path for the exhaustive engine, refused by its guard before it is built."""
    from .domination import check_engine_cap
    from .graphs import path

    check_engine_cap(n, force)
    return path(n)


def path_census(n: int, *, force: bool = False) -> tuple[int, ...]:
    """Number of orders of the n-path per set size 0..ceil(n/2), by
    simulating every one of the n! revelation orders."""
    from .domination import final_set_counts

    worst = extremal_size(n, "worst")  # refuses n < 1
    final_sets = final_set_counts(_engine_path(n, force), force=force)
    counts = [0] * (worst + 1)  # made once the guard has passed n
    for vertex_set, count in final_sets.items():
        counts[len(vertex_set)] += count
    return tuple(counts)


# ---------------------------------------------------------------------------
# Up/down-word census
# ---------------------------------------------------------------------------
#
# On the path the final set depends only on the up/down word of an order,
# so the words stand in for the n! orders.  word_census carries the sizes and
# order counts of the word prefixes letter by letter, in Python ints, merged
# by scan state; the word predicate serves the inverse-bijection check.


def every_even_vertex_has(letters: np.ndarray) -> np.ndarray:
    """A row over the words, in the form of their letter rows (row i is
    letter i of every word, as bools or packed 8 words a byte), true where
    every even vertex has a neighbour revealed earlier: on the word of an
    order, the order's inverse is weakly alternating.

    Letter i is up when vertex i + 2 is revealed after i + 1, so vertex
    i + 2, for even i, has that neighbour when letter i is up or, unless it
    is the last vertex, letter i + 1 down.  With no letter every word holds.
    """
    import numpy as np

    letters = np.asarray(letters)
    holds = ~np.zeros(letters.shape[1:], letters.dtype)
    for i in range(0, len(letters), 2):
        holds &= letters[i] if i + 1 == len(letters) else letters[i] | ~letters[i + 1]
    return holds


def word_census(n: int, *, force: bool = False) -> tuple[int, ...]:
    """Number of orders of the n-path per set size 0..ceil(n/2), as
    path_census returns it, by one pass over the letters of the up/down word.

    With R(v) and c(v) as in domination.gamma_batch_path, the state after
    vertex v is the guess g of R(v), c = c(v) and the size so far, each
    mapped to its orders of vertices 1..v by r, the rank of v's reveal time
    among them.  Letter v with next guess g' is allowed when g = letter OR
    NOT g', and sets c' = g' AND NOT c; the rank recursion (Niven 1968;
    de Bruijn 1970) maps an up letter to the sums over the ranks below the
    new one, a down letter to the sums over the rest.  R(n) = 1 keeps the
    states with g = 1 at the end.
    """
    worst = extremal_size(n, "worst")  # refuses n < 1
    check_cap(n, WORD_CENSUS_CAP, force, "up/down word census")
    states = {(g, g, g): [1] for g in (0, 1)}  # c(1) = R(1)
    for _ in range(n - 1):
        following: dict[tuple[int, int, int], list[int]] = {}
        for (g, c, size), ranks in states.items():
            below = [0, *itertools.accumulate(ranks)]
            above = [below[-1] - b for b in below]
            for letter, image in ((1, below), (0, above)):
                for guess in (0, 1):
                    if g == (letter or not guess):
                        chosen = guess * (1 - c)
                        key = (guess, chosen, size + chosen)
                        old = following.get(key)
                        following[key] = image if old is None else [*map(int.__add__, old, image)]
        states = following
    counts = [0] * (worst + 1)
    for (g, _, size), ranks in states.items():
        if g:
            counts[size] += sum(ranks)
    return tuple(counts)


def extremal_permutations(
    n: int, bound_kind: str, limit: int | None = None, *, force: bool = False
) -> list[tuple[int, ...]]:
    """Worst- or best-case orders in lexicographic order, at most `limit` of them.

    Without a limit every one is materialized, so memory scales with the count.
    """
    from .domination import orders_with_size

    size = extremal_size(n, bound_kind)
    return orders_with_size(_engine_path(n, force), size, limit, force=force)


# ---------------------------------------------------------------------------
# Recurrence and closed-formula counts
# ---------------------------------------------------------------------------


def extremal_counts(n: int, bound_kind: str = "worst", *, force: bool = False) -> tuple[int, ...]:
    """Number of worst- or best-case orders of P_m for m = 0..n, by the
    first revealed vertex v.

    v joins the set and its neighbours never do, so the a = max(v - 2, 0)
    vertices left of them and the b = max(m - v - 1, 0) right of them run as
    independent shorter paths: E_m = sum_v (m - 1)!/(a! b!) E_a E_b over the
    v with s(a) + s(b) + 1 = s(m), s the bound's set size and s(0) = 0.  The
    weight is m - 1 at v = 1 and v = m and (m - 1)(m - 2) C(m - 3, a) between;
    v and m + 1 - v give equal terms, so the lower half is summed, doubled,
    and the middle split of odd m counted once.  Built bottom-up: no deep
    recursion at any n.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    extremal_size(1, bound_kind)  # refuses an unknown bound
    check_cap(n, EXACT_COUNT_CAP, force, f"{bound_kind}-case count recurrence")
    sizes = [0, *(extremal_size(m, bound_kind) for m in range(1, n + 1))]
    counts = [1, 1]
    row = [1]  # row m - 3 of Pascal's triangle
    for m in range(2, n + 1):
        if m > 3:
            row = [1, *map(int.__add__, row, row[1:]), 1]
        goal = sizes[m] - 1  # s(a) + s(b) at a split that reaches the bound
        terms = [  # a = v - 2 for 2 <= v <= (m + 1) / 2
            row[a] * counts[a] * counts[m - 3 - a] if sizes[a] + sizes[m - 3 - a] == goal else 0
            for a in range((m - 1) // 2)
        ]
        inner = 2 * sum(terms) - (terms[-1] if m % 2 else 0)
        ends = 2 * counts[m - 2] if sizes[m - 2] == goal else 0
        counts.append((m - 1) * (ends + (m - 2) * inner))
    return tuple(counts[: n + 1])


def worst_case_count_recurrence(n: int, bound_kind: str = "worst", *, force: bool = False) -> int:
    """Number of worst- or best-case orders of P_n: the last entry of
    extremal_counts(n, bound_kind)."""
    return extremal_counts(n, bound_kind, force=force)[n]


def best_case_formula_applicable(n: int) -> bool:
    return n >= 2


def best_case_count_formula(n: int, *, force: bool = False) -> int:
    """Number of best-case orders of P_n, n >= 2, by one closed form per
    residue class: n!/3^k at n = 3k, n!(n + 3)/(5 * 3^k) at n = 3k + 2 and
    n!(n + 3)(7n + 22)/(350 * 3^k) at n = 3k + 4.  They sum the paper's cases,
    as multiples of n!/3^k:
    n = 3k + 2: the block of five gives 3k/5, and the ends give 1.
    n = 3k + 4: 3k/7 (adjacent pair) + 9 C(k, 2)/25 (split pairs) + 1/4 (both
    ends) + 3/4 + 3k/5 (one end) = (63k^2 + 297k + 350)/350.  At n = 1 the
    last form gives 348/350.  n! is guarded like the other big-integer routes.
    """
    if not best_case_formula_applicable(n):
        raise ValueError(
            "closed formula requires n >= 2; "
            f"use brute-force counting or the recurrence for n = {n}"
        )
    check_cap(n, EXACT_COUNT_CAP, force, "best-case count formula")
    factor, divisor, k = {0: (1, 1, n // 3), 2: (n + 3, 5, (n - 2) // 3),
                          1: ((n + 3) * (7 * n + 22), 350, (n - 4) // 3)}[n % 3]
    count, rest = divmod(math.factorial(n) * factor, divisor * 3**k)
    if rest:
        raise ConsistencyError(f"best-case count formula leaves a remainder at n={n}")
    return count


# ---------------------------------------------------------------------------
# Even-position pattern counts
# ---------------------------------------------------------------------------


# Kept while perfbench/tracer.py wraps it by name, as one of its ENUMERATORS.
def weakly_alternating_permutations(
    n: int, *, force: bool = False
) -> list[tuple[int, ...]]:
    """Every order with a smaller neighbour at each even position, in
    lexicographic order, by testing the up/down word of each of the n! orders."""
    if n < 1:
        raise ValueError("n must be positive")
    check_cap(n, PERMUTATION_SCAN_CAP, force, "weak-alternation enumeration")
    import numpy as np

    entries = itertools.chain.from_iterable(itertools.permutations(range(1, n + 1)))
    found: list[tuple[int, ...]] = []
    for _ in range(0, math.factorial(n), PERMUTATION_ROWS):
        block = np.fromiter(itertools.islice(entries, PERMUTATION_ROWS * n), np.uint8)
        block = block.reshape(-1, n)
        holds = every_even_vertex_has((block[:, 1:] > block[:, :-1]).T)
        found += map(tuple, block[holds].tolist())
    return found


def weakly_alternating_counts(n: int, *, force: bool = False) -> tuple[int, ...]:
    """count_weakly_alternating(m) for m = 0..n, by one pass of the rank
    recursion.

    done[r] counts prefixes with a smaller neighbor at every even position
    whose last entry has rank r among them; owed[r] those whose last, even,
    position still needs its right neighbor to be smaller.  Rank r' after
    rank r is an up step exactly when r < r', so up images are prefix sums
    and down images suffix sums.
    """
    if n < 1:
        raise ValueError("n must be positive")
    check_cap(n, EXACT_COUNT_CAP, force, "even-position pattern count")
    done, owed = [1], [0]
    counts = [1, 1]
    for length in range(2, n + 1):
        below = [0, *itertools.accumulate(owed if length % 2 else done)]
        above = [below[-1] - b for b in below]
        if length % 2 == 0:  # an up step clears the even position, a down step owes it
            done, owed = below, above
        else:  # any entry extends done; only a down step clears owed
            done = [counts[-1] + x for x in above]
        counts.append(sum(done))
    return tuple(counts)


def count_weakly_alternating(n: int, *, force: bool = False) -> int:
    """Count orders with a weak peak in every even position.

    Complementation i -> n + 1 - i turns a smaller neighbor into a larger
    one, so it maps these orders one to one onto the orders with no strict
    local maximum in any even position: this counts those too, under the
    name count_no_even_local_maxima.
    """
    return weakly_alternating_counts(n, force=force)[n]


count_no_even_local_maxima = count_weakly_alternating
