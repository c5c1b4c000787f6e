"""Extremal revelation orders on the path: enumeration and counting.

A worst-case order drives the dominating set up to ceil(n/2) vertices, a
best-case order down to ceil(n/3).  Worst-case orders are counted three
independent ways (exhaustive simulation, a parity-split recurrence, and a
generating function in the series module), best-case orders two ways
(exhaustive simulation and residue-class closed formulas); every route
cross-checks the others.

The exhaustive census covers all n! orders through the state-merging
engine of the domination module and tallies everything the rest of the
package needs from brute force: the full size distribution and the
realized worst-case sets with multiplicities.  extremal_permutations lists
extremal orders lexicographically, up to an optional limit, through the
same engine, under its guard; extremal_size maps a bound to its set size.
The word census gets the size distribution from the 2^(n-1) up/down words
of the path instead, each weighted by its number of orders; a whole word
list is held as integer codes, word i as code i with letter j as bit j.

Inversion maps the worst-case orders of odd n onto the weakly alternating
permutations, and complementation maps those onto the ones with no even
local maximum.  The inversion bijection is stated on up/down words, where
the pattern is every_even_vertex_has; its other form, the rank recursion
over up/down steps (Niven 1968; de Bruijn 1970), counts the permutations of
both patterns in O(n^2) additions.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Iterable, NamedTuple

# domination and graphs are imported by the functions that run them, so the
# count recurrence and the formulas load neither.
from .errors import EXACT_COUNT_CAP, WORD_CENSUS_CAP, WORD_LIST_CAP, check_cap

if TYPE_CHECKING:
    from fractions import Fraction

    import numpy as np

    from .graphs import Graph

SUBSET_SEARCH_CAP = 18
WORD_ROWS = 1 << 12  # words gathered at a time by orders_per_word
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

    Odd n admits a single such set, the odd vertices.  Even n admits
    n/2 + 1: the odd vertices, the even vertices, and the one-gap hybrids
    {1, 3, ..., 2j-1, 2j+2, 2j+4, ..., n} for j = 1 .. n/2 - 1.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n % 2:
        return [odd_vertex_set(n)]
    sets = [odd_vertex_set(n), frozenset(range(2, n + 1, 2))]
    for j in range(1, n // 2):
        sets.append(
            frozenset(itertools.chain(range(1, 2 * j, 2), range(2 * j + 2, n + 1, 2)))
        )
    return sets


def independent_dominating_sets_bruteforce(
    n: int, size: int | None = None, *, force: bool = False
) -> list[frozenset[int]]:
    """Exhaustive 2^n subset search for independent dominating sets of the n-path.

    With bit v-1 for vertex v, a subset is independent when each member's
    closed-neighbourhood mask meets it in that member alone, and dominating
    when the members' masks cover every vertex.
    """
    if n < 1:
        raise ValueError("n must be positive")
    check_cap(n, SUBSET_SEARCH_CAP, force, "exhaustive subset search")
    from .graphs import path

    graph = path(n)
    closed = [sum(1 << (u - 1) for u in (v, *graph.adj[v])) for v in graph.vertices]
    found = []
    for bits in range(1, 1 << n):
        if size is not None and bits.bit_count() != size:
            continue
        covered, rest = 0, bits
        while rest:
            bit = rest & -rest
            rest ^= bit
            mask = closed[bit.bit_length() - 1]
            if mask & bits != bit:
                break  # a neighbour is a member too
            covered |= mask
        else:
            if covered == (1 << n) - 1:
                found.append(frozenset(v for v in graph.vertices if bits >> (v - 1) & 1))
    return found


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


class PathCensus(NamedTuple):
    """Tally of the online procedure over every revelation order of the n-path."""

    n: int
    size_counts: tuple[int, ...]  # index = dominating-set size
    final_set_counts: dict[frozenset[int], int]  # every realized final set

    @property
    def worst_set_counts(self) -> dict[frozenset[int], int]:
        """The realized worst-case sets."""
        worst = self.worst_size
        return {s: c for s, c in self.final_set_counts.items() if len(s) == worst}

    @property
    def total(self) -> int:
        return sum(self.size_counts)

    @property
    def worst_size(self) -> int:
        return extremal_size(self.n, "worst")

    @property
    def best_size(self) -> int:
        return extremal_size(self.n, "best")

    @property
    def worst_count(self) -> int:
        return self.size_counts[self.worst_size]

    @property
    def best_count(self) -> int:
        return self.size_counts[self.best_size]

    @property
    def odd_configuration_count(self) -> int:
        """Orders whose final set is exactly the odd vertices."""
        return self.worst_set_counts.get(odd_vertex_set(self.n), 0)

    @property
    def expectation(self) -> Fraction:
        from fractions import Fraction  # imported here so that `sample` never loads it

        weighted = sum(size * count for size, count in enumerate(self.size_counts))
        return Fraction(weighted, math.factorial(self.n))

    def distribution(self) -> dict[int, int]:
        return {size: c for size, c in enumerate(self.size_counts) if c}


def _engine_path(n: int, force: bool) -> Graph:
    """The n-path for the exhaustive engine, refused by its guard before it is built."""
    from .domination import check_engine_cap
    from .graphs import path

    check_engine_cap(n, force)
    return path(n)


def path_census(n: int, *, force: bool = False) -> PathCensus:
    """Simulate every one of the n! revelation orders of the n-path."""
    from .domination import final_set_counts

    worst = extremal_size(n, "worst")  # refuses n < 1
    final_sets = final_set_counts(_engine_path(n, force), force=force)
    size_counts = [0] * (worst + 1)
    for vertex_set, count in final_sets.items():
        size_counts[len(vertex_set)] += count
    return PathCensus(n=n, size_counts=tuple(size_counts), final_set_counts=final_sets)


# ---------------------------------------------------------------------------
# Up/down-word census
# ---------------------------------------------------------------------------
#
# On the path the final set depends only on the up/down word of an order,
# so the 2^(n-1) words stand in for the n! orders: gamma_batch_path gives
# each word's size and the rank recursion its number of orders.


def up_down_words(n: int, *, force: bool = False) -> np.ndarray:
    """Every up/down word of the n-path as its integer code, 2^(n-1) uint32
    codes: word i is code i, and letter j of a word, bit j of its code, is
    true when vertex j + 2 is revealed after vertex j + 1.
    PackedWords.from_codes lays the codes out for gamma_batch_path."""
    if n < 1:
        raise ValueError("n must be positive")
    check_cap(n, WORD_LIST_CAP, force, "up/down word listing")
    import numpy as np

    return np.arange(1 << (n - 1), dtype=np.uint32)


def every_even_vertex_has(codes: np.ndarray, letters: int) -> np.ndarray:
    """True for the up/down words, given as codes of `letters` letters, in
    which every even vertex j has a neighbour revealed earlier than j: on the
    word of an order, the order's inverse is weakly alternating.

    Letter j - 2 is up when j is revealed after j - 1, and letter j - 1 when
    j + 1 is revealed after j, so the word fails at vertex j = i + 2, for
    even i, when bit i is down and bit i + 1 up.  A last vertex that is even
    has no letter after it, and fails when its bit i is down.  Two masks test
    every even vertex at once: the even bits, and the last bit when it is even.
    """
    import numpy as np

    codes = np.asarray(codes)
    even = sum(1 << i for i in range(0, letters, 2))
    last = 1 << (letters - 1) if letters % 2 else 0  # read as if an up letter followed
    needs = codes >> 1  # bit i: letter i + 1 is up, so vertex i + 2 needs letter i up
    needs |= last
    needs &= even
    return (needs & codes) == needs


def orders_per_word(codes: np.ndarray, letters: int) -> np.ndarray:
    """Number of orders with each up/down word, given as codes of `letters`
    letters, by the rank recursion met in the middle.

    Entry r of the forward table counts the orders of the prefix so far whose
    last reveal time has rank r among the prefix; an up letter maps it to sums
    over the ranks below r, a down letter to sums over the rest.  The count is
    linear in that table, so the L letters split at h = L // 2: the table F
    after the first h letters is dotted with a table B run back from ones of
    length L + 1 by the transposed step (up: sums above r; down: sums up to r).
    A word's halves are its code's low h bits and the rest, and each table is
    built once per distinct half, found by marking the halves' codes in a
    table of 2^ceil(L/2) flags, not by sorting; so k words cost
    O(k L + 2^ceil(L/2) L^2) rather than O(k L^2).  Every term is at most
    n!, so int64 is exact while n <= 20; longer words are counted in Python
    ints.  The halves' rows are gathered and dotted WORD_ROWS words at a time.
    """
    import numpy as np

    def distinct(halves: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
        seen = np.zeros(size, dtype=bool)
        seen[halves] = True
        return np.flatnonzero(seen), (np.cumsum(seen) - 1)[halves]

    codes = np.asarray(codes)
    dtype = np.int64 if letters < 20 else object
    cut = letters // 2
    heads, head_of = distinct(codes & ((1 << cut) - 1), 1 << cut)
    tails, tail_of = distinct(codes >> cut, 1 << (letters - cut))
    ahead = np.ones((len(heads), 1), dtype)
    for j in range(cut):
        below = np.zeros((len(heads), j + 2), dtype)
        np.cumsum(ahead, axis=1, out=below[:, 1:])
        ahead = below[:, -1:] - below  # down: the new time is below the last
        np.copyto(ahead, below, where=(heads >> j & 1).astype(bool)[:, None])
    behind = np.ones((len(tails), letters + 1), dtype)
    for j in reversed(range(letters - cut)):
        upto = np.cumsum(behind, axis=1)
        behind = upto[:, -1:] - upto[:, :-1]  # up: the next time is above
        np.copyto(behind, upto[:, :-1], where=(tails >> j & 1 == 0)[:, None])
    counts = np.empty(len(codes), dtype)
    for top in range(0, len(codes), WORD_ROWS):  # einsum takes object arrays only from numpy 1.25
        rows = slice(top, top + WORD_ROWS)
        terms = ahead.take(head_of[rows], axis=0)
        terms *= behind.take(tail_of[rows], axis=0)
        terms.sum(axis=1, out=counts[rows])
    return counts


def word_census(n: int, *, force: bool = False) -> tuple[int, ...]:
    """Number of orders of the n-path per set size, indexed by size like
    PathCensus.size_counts, summed over the up/down words."""
    from .domination import PackedWords, gamma_batch_path

    worst = extremal_size(n, "worst")  # refuses n < 1
    check_cap(n, WORD_CENSUS_CAP, force, "up/down word census")
    codes = up_down_words(n, force=force)
    sizes = gamma_batch_path(n, PackedWords.from_codes(n, codes))
    counts = orders_per_word(codes, n - 1)
    return tuple(int(counts[sizes == size].sum()) for size in range(worst + 1))


def extremal_permutations(
    n: int, bound_kind: str, limit: int | None = None, *, force: bool = False,
    census: PathCensus | None = None,
) -> list[tuple[int, ...]]:
    """Worst- or best-case orders in lexicographic order, at most `limit` of them.

    Without a limit every one is materialized, so memory scales with the count.
    Given path_census(n), the listing walks inside its final sets and runs no
    forward pass of its own.
    """
    from .domination import orders_with_size

    size = extremal_size(n, bound_kind)
    if census is not None and census.n != n:
        raise ValueError(f"the census is of n = {census.n}, not {n}")
    final_sets = census.final_set_counts if census is not None else None
    return orders_with_size(
        _engine_path(n, force), size, limit, force=force, final_sets=final_sets
    )


# ---------------------------------------------------------------------------
# Recurrence and closed-formula counts
# ---------------------------------------------------------------------------


def worst_case_count_recurrence(n: int, *, force: bool = False) -> int:
    """Number of worst-case orders, by recurrence on the first revealed vertex.

    Seeds: 1 at n = 0 and n = 1.  For odd n only odd split points
    contribute (both remaining segments must have odd length); for even n
    every split point does.  Split points i and m + 1 - i give equal
    terms, so only the lower half is summed.  The table is built
    bottom-up, so any n runs without deep recursion.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    check_cap(n, EXACT_COUNT_CAP, force, "worst-case count recurrence")
    counts = [1, 1]
    row = [1]  # row m - 3 of Pascal's triangle
    for m in range(2, n + 1):
        if m > 3:
            row = [1, *map(int.__add__, row, row[1:]), 1]
        middle = (m + 1) // 2
        splits = range(3, middle + 1, 2) if m % 2 else range(2, middle + 1)
        terms = [row[i - 2] * counts[i - 2] * counts[m - i - 1] for i in splits]
        inner = 2 * sum(terms)
        if m % 4 == 1:  # the middle split (m + 1) / 2 is odd: count it once
            inner -= terms[-1]
        counts.append(2 * (m - 1) * counts[m - 2] + (m - 1) * (m - 2) * inner)
    return counts[n]


def best_case_count_formula(n: int, *, force: bool = False) -> int:
    """Number of best-case orders by the residue-class closed formulas.

    Applicable for n % 3 == 0 with n >= 3, n % 3 == 2 with n > 2, and
    n % 3 == 1 with n > 7; outside those ranges (n in {1, 2, 4, 7}) only
    exhaustive counting applies.  The terms hold factorials of up to n, so
    the count is guarded like the other big-integer routes.
    """
    if n < 1:
        raise ValueError("n must be positive")
    check_cap(n, EXACT_COUNT_CAP, force, "best-case count formula")
    comb, fact = math.comb, math.factorial
    residue = n % 3
    if residue == 0:
        # The unique best-case set is {2, 5, ..., n-1}; each of the n/3
        # triples independently needs its middle vertex revealed first.
        return fact(n) // 3 ** (n // 3)
    if residue == 2:
        if n <= 2:
            raise ValueError(
                "closed formula for n % 3 == 2 requires n > 2; "
                "use brute-force counting for n = 2"
            )
        block = 24 * comb(n, 5) * (fact(n - 5) // 3 ** ((n - 5) // 3)) * ((n - 2) // 3)
        ends = 2 * comb(n, 2) * (fact(n - 2) // 3 ** ((n - 2) // 3))
        return block + ends
    if n <= 7:
        raise ValueError(
            "closed formula for n % 3 == 1 requires n > 7; "
            "use brute-force counting for n in {1, 4, 7}"
        )
    k = (n - 4) // 3
    adjacent_pair = 720 * comb(n, 7) * k * (fact(n - 7) // 3 ** ((n - 7) // 3))
    split_pair = (
        24 * 24 * comb(10, 5) * comb(n, 10) * comb(k, 2)
        * (fact(n - 10) // 3 ** ((n - 10) // 3))
    )
    both_ends = 6 * comb(n, 4) * (fact(n - 4) // 3 ** ((n - 4) // 3))
    one_end = 2 * (
        9 * comb(n, 4) * (fact(n - 4) // 3 ** ((n - 4) // 3))
        + 24 * comb(n, 2) * comb(n - 2, 5)
        * (fact(n - 7) // 3 ** ((n - 7) // 3)) * k
    )
    return adjacent_pair + split_pair + both_ends + one_end


def best_case_formula_applicable(n: int) -> bool:
    if n < 1:
        return False
    residue = n % 3
    return residue == 0 or (residue == 2 and n > 2) or (residue == 1 and n > 7)


# ---------------------------------------------------------------------------
# Even-position pattern counts
# ---------------------------------------------------------------------------


def _count_even_position_pattern(n: int, larger: bool, force: bool) -> tuple[int, ...]:
    """Permutations of 1..m in which every even position has a smaller
    neighbor (a larger one when `larger`), for m = 0..n, by one pass of the
    rank recursion.

    done[r] counts valid prefixes whose last entry has rank r among them;
    owed[r] those whose last, even, position still needs its right
    neighbor.  Rank r' after rank r is an up step exactly when r < r', so
    up images are prefix sums and down images suffix sums.
    """
    if n < 1:
        raise ValueError("n must be positive")
    check_cap(n, EXACT_COUNT_CAP, force, "even-position pattern count")

    def steps(counts: list[int]) -> tuple[list[int], list[int]]:
        # images under the step that clears an even position from its left,
        # and under the other step
        below = [0, *itertools.accumulate(counts)]
        above = [below[-1] - b for b in below]
        return (above, below) if larger else (below, above)

    done, owed = [1], [0]
    counts = [1, 1]
    for length in range(2, n + 1):
        if length % 2 == 0:  # cleared by its left neighbor, or owed
            done, owed = steps(done)
        else:  # any entry extends done; only the other step clears owed
            done = [counts[-1] + x for x in steps(owed)[1]]
        counts.append(sum(done))
    return tuple(counts)


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
        codes = (block[:, 1:] > block[:, :-1]) @ (1 << np.arange(n - 1))
        holds = every_even_vertex_has(codes, n - 1)
        found += map(tuple, block[holds].tolist())
    return found


def weakly_alternating_counts(n: int, *, force: bool = False) -> tuple[int, ...]:
    """count_weakly_alternating(m) for m = 0..n, in one pass."""
    return _count_even_position_pattern(n, False, force)


def no_even_local_maxima_counts(n: int, *, force: bool = False) -> tuple[int, ...]:
    """count_no_even_local_maxima(m) for m = 0..n, in one pass."""
    return _count_even_position_pattern(n, True, force)


def count_weakly_alternating(n: int, *, force: bool = False) -> int:
    """Count orders with a weak peak in every even position."""
    return weakly_alternating_counts(n, force=force)[n]


def count_no_even_local_maxima(n: int, *, force: bool = False) -> int:
    """Count orders with no strict local maximum in any even position."""
    return no_even_local_maxima_counts(n, force=force)[n]
