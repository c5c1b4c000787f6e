"""Extremal enumeration checks.

Reference counts for small n (independently reproduced by the census, the
recurrence, the EGF and the closed formulas):

    worst: 1, 2, 4, 24, 56, 640, 1632, 30464, 81664, 2251008, 6241280
    best:  1, 2, 2, 24, 64, 80, 3408, 9856, 13440, 1377792, 4139520
"""

import collections
import functools
import inspect
import itertools
import json
import math
import operator
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathdom import (
    best_case_count_formula,
    best_case_formula_applicable,
    check_permutation,
    cli,
    count_no_even_local_maxima,
    count_weakly_alternating,
    extremal,
    extremal_permutations,
    extremal_size,
    final_set_counts,
    gamma,
    gamma_batch_path,
    independent_dominating_sets_bruteforce,
    is_independent_dominating,
    max_dominating_size,
    maximal_independent_dominating_sets,
    min_dominating_size,
    path,
    path_census,
    run_online_domination,
    set_first_order,
    weakly_alternating_permutations,
    word_census,
    worst_case_count_recurrence,
)
from pathdom.domination import PackedWords
from pathdom.errors import EXACT_COUNT_CAP, ConsistencyError, ResourceLimitError
from pathdom.extremal import PERMUTATION_SCAN_CAP, extremal_counts
from pathdom.series import odd_configuration_counts_egf
from pathdom.verification import BEST_CASE_COUNTS, WORST_CASE_COUNTS

from test_domination import _packed


class TestBounds:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_extremal_size(self, n):
        assert extremal_size(n, "worst") == max_dominating_size(n)
        assert extremal_size(n, "best") == min_dominating_size(n)

    @pytest.mark.parametrize("kind", ["median", "Worst", ""])
    def test_extremal_size_rejects_other_bounds(self, kind):
        with pytest.raises(ValueError, match="bound_kind"):
            extremal_size(6, kind)

    @pytest.mark.parametrize("n,expected", [(1, 1), (6, 3), (7, 4), (12, 6)])
    def test_max_size(self, n, expected):
        assert max_dominating_size(n) == expected

    @pytest.mark.parametrize("n,expected", [(1, 1), (6, 2), (7, 3), (12, 4)])
    def test_min_size(self, n, expected):
        assert min_dominating_size(n) == expected

    @pytest.mark.parametrize("n", range(1, 8))
    def test_bounds_are_attained(self, n):
        sizes = [size for size, count in enumerate(path_census(n)) if count]
        assert min(sizes) == min_dominating_size(n)
        assert max(sizes) == max_dominating_size(n)


class TestMaximalSets:
    def test_odd_unique(self):
        assert maximal_independent_dominating_sets(5) == [frozenset({1, 3, 5})]

    def test_even_family_n4(self):
        sets = set(maximal_independent_dominating_sets(4))
        assert sets == {frozenset({1, 3}), frozenset({2, 4}), frozenset({1, 4})}

    def test_even_count_n6(self):
        assert len(maximal_independent_dominating_sets(6)) == 4

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_exhaustive_subset_search(self, n):
        top = max_dominating_size(n)
        constructed = set(maximal_independent_dominating_sets(n))
        searched = set(independent_dominating_sets_bruteforce(n, size=top))
        assert constructed == searched
        assert len(constructed) == (n // 2 + 1 if n % 2 == 0 else 1)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_each_set_is_valid_and_realized(self, n):
        g = path(n)
        for vertex_set in maximal_independent_dominating_sets(n):
            assert len(vertex_set) == max_dominating_size(n)
            assert is_independent_dominating(g, vertex_set)
            order = set_first_order(vertex_set, n)
            assert run_online_domination(g, order).chosen_set == vertex_set

    def test_subset_search_cap(self):
        with pytest.raises(ResourceLimitError):
            independent_dominating_sets_bruteforce(19)

    @pytest.mark.parametrize("n", range(1, 12))
    def test_subset_search_lists_the_final_sets_at_every_size(self, n):
        g = path(n)
        final_sets = set(final_set_counts(g))
        listed = independent_dominating_sets_bruteforce(n)
        assert set(listed) == final_sets
        for k in range(n + 1):
            assert set(independent_dominating_sets_bruteforce(n, size=k)) == {
                s for s in final_sets if len(s) == k
            }
        masks = [sum(1 << (v - 1) for v in s) for s in listed]
        assert masks == sorted(set(masks))
        assert all(is_independent_dominating(g, s) for s in listed)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_realized_worst_sets_match_construction(self, n):
        worst = max_dominating_size(n)
        realized = {s for s in final_set_counts(path(n)) if len(s) == worst}
        assert realized == set(maximal_independent_dominating_sets(n))


class TestBruteForceCounts:
    def test_length_three_witnesses(self):
        assert path_census(3)[extremal_size(3, "worst")] == 4
        assert set(extremal_permutations(3, "worst")) == {
            (1, 2, 3), (1, 3, 2), (3, 1, 2), (3, 2, 1),
        }

    @pytest.mark.parametrize("n", range(1, 9))
    def test_worst_counts(self, n):
        assert path_census(n)[extremal_size(n, "worst")] == WORST_CASE_COUNTS[n]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_best_counts(self, n):
        assert path_census(n)[extremal_size(n, "best")] == BEST_CASE_COUNTS[n]

    def test_report_invariants(self, capsys):
        g = path(6)
        for kind, size in (("worst", 3), ("best", 2)):
            assert extremal_size(6, kind) == size
            witnesses = extremal_permutations(6, kind, 100)
            assert len(witnesses) == min(100, path_census(6)[size])
            for witness in witnesses:
                assert gamma(g, witness) == size
            assert cli.main(["extremal", "--n", "6", "--bound", kind, "--witnesses",
                             "2", "--format", "json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["method"] == "brute_force"
            assert doc["extremal_size"] == size
            assert doc["witnesses"] == [list(w) for w in witnesses[:2]]

    def test_cap_refusal_names_override(self):
        with pytest.raises(ResourceLimitError, match="force"):
            path_census(12)

    def test_witness_cap_respected(self):
        witnesses = extremal_permutations(7, "worst", 5)
        assert witnesses == extremal_permutations(7, "worst")[:5]
        assert extremal_permutations(7, "worst", 0) == []


def _representative_order(word):
    """Reveal times 1..n with each maximal run of downs reversed, so their
    word is `word`.  Disjoint reversals make an involution: the times are
    also the order."""
    times, start = [], 1
    for v in range(1, len(word) + 2):
        if v == len(word) + 1 or word[v - 1]:  # an up letter, or the end, closes a run
            times.extend(range(v, start - 1, -1))
            start = v + 1
    return times


def _rows(codes, letters):
    """The boolean word rows of codes of `letters` letters."""
    codes = np.asarray(codes, dtype=np.uint32)
    return (codes[:, None] >> np.arange(letters, dtype=np.uint32) & 1).astype(bool)


def _every_even_vertex_has_by_rows(words):
    """The even-vertex predicate word by word on boolean word rows, shape
    (k, letters), the reference for extremal.every_even_vertex_has."""
    words = np.asarray(words, dtype=bool)
    holds = np.ones(len(words), dtype=bool)
    for i in range(0, words.shape[1], 2):  # letters i and i + 1 flank vertex i + 2
        has = words[:, i]
        if i + 1 < words.shape[1]:
            has = has | ~words[:, i + 1]
        holds &= has
    return holds


def _orders_per_word_by_whole_tables(words):
    """The number of orders with each boolean word row, by the rank recursion
    run over every letter of every word: one (k, j + 2) table per letter,
    exact in int64 for words of fewer than 20 letters."""
    words = np.asarray(words, dtype=bool)
    k, letters = words.shape
    ranks = np.ones((k, 1), dtype=np.int64)
    for j in range(letters):
        below = np.zeros((k, j + 2), dtype=ranks.dtype)
        np.cumsum(ranks, axis=1, out=below[:, 1:])
        ranks = below[:, -1:] - below
        np.copyto(ranks, below, where=words[:, j, None])
    return ranks.sum(axis=1)


def _every_code(n):
    """Word i of the n-path as code i, letter j as bit j, for every word."""
    return np.arange(1 << (n - 1), dtype=np.uint32)


class TestWordCensus:
    def test_word_layout(self):
        codes = _every_code(4)
        assert _rows(codes, 3).tolist() == [
            [bool(i >> j & 1) for j in range(3)] for i in range(8)
        ]
        # row v of the packed table holds letter v - 1 of every word
        packed = PackedWords.every_word(4)
        assert len(packed) == 8
        letters = _packed(_rows(codes, 3)).table[:, :1]
        assert packed.table[:, :1].tolist() == letters.tolist()

    @pytest.mark.parametrize("n", range(1, 14))
    def test_batch_sizes_match_the_scalar_run_on_a_representative_of_each_word(
        self, n
    ):
        words = _rows(_every_code(n), n - 1).tolist()
        sizes = gamma_batch_path(n, PackedWords.every_word(n)).tolist()
        g = path(n)
        for word, size in zip(words, sizes):
            order = _representative_order(word)
            assert [b > a for a, b in zip(order, order[1:])] == word
            assert gamma(g, order) == size

    @pytest.mark.parametrize("n", range(1, 8))
    def test_orders_per_word_matches_the_permutation_listing(self, n):
        # the whole-table reference that the census is held to, held to the listing
        listed = collections.Counter(
            tuple(b > a for a, b in zip(times, times[1:]))
            for times in itertools.permutations(range(n))
        )
        words = _rows(_every_code(n), n - 1)
        counts = _orders_per_word_by_whole_tables(words).tolist()
        assert dict(zip(map(tuple, words.tolist()), counts)) == dict(listed)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=24).flatmap(lambda letters: st.tuples(
        st.just(letters), st.lists(st.integers(0, (1 << letters) - 1), max_size=60)
    )))
    @example((0, []))
    @example((0, [0, 0]))
    @example((1, [0, 1]))
    @example((19, [0, 1 << 18, (1 << 19) - 1]))
    @example((24, [0xAAAAAA, 0x555555, 0xFFFFFF, 0]))
    @example((5, list(range(13))))
    def test_code_routes_equal_the_boolean_row_forms(self, drawn):
        # the predicate on bool letter rows and on the same rows packed 8
        # words a byte, whose word count need not fill the last byte
        letters, codes = drawn
        words = _rows(codes, letters)
        reference = _every_even_vertex_has_by_rows(words).tolist()
        rows = words.T
        assert extremal.every_even_vertex_has(rows).tolist() == reference
        packed = extremal.every_even_vertex_has(np.packbits(rows, axis=1))
        assert packed.shape == (-(-len(codes) // 8),)
        assert np.unpackbits(packed, count=len(codes)).tolist() == reference

    @pytest.mark.parametrize("n", range(1, 20))
    def test_orders_over_all_words_sum_to_n_factorial(self, n):
        assert sum(word_census(n)) == math.factorial(n)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_word_census_equals_the_evaluator_over_every_word(self, n):
        sizes = gamma_batch_path(n, PackedWords.every_word(n))
        orders = _orders_per_word_by_whole_tables(_rows(_every_code(n), n - 1))
        assert word_census(n) == tuple(
            int(orders[sizes == size].sum()) for size in range(max_dominating_size(n) + 1)
        )

    def test_census_at_60_needs_no_force_and_meets_both_recurrences(self):
        counts = word_census(60)
        assert sum(counts) == math.factorial(60)
        assert counts[max_dominating_size(60)] == worst_case_count_recurrence(60)
        assert counts[min_dominating_size(60)] == worst_case_count_recurrence(60, "best")

    def test_census_loads_no_numpy(self):
        src = os.path.dirname(os.path.dirname(extremal.__file__))
        code = (
            "import sys; from pathdom.extremal import word_census; "
            "assert word_census(16)[-1] == 6363055718400; "
            "sys.exit('numpy' in sys.modules)"
        )
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert run.returncode == 0, run.stderr

    def test_census_memory_stays_below_64_kib(self):
        tracemalloc.start()
        try:
            word_census(16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**10

    def test_census_memory_at_18_stays_below_64_kib(self):
        tracemalloc.start()
        try:
            word_census(18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**10

    @pytest.mark.parametrize("n", range(1, 12))
    def test_word_census_matches_the_engine(self, n):
        assert word_census(n) == path_census(n)

    @pytest.mark.parametrize("n", [12, 13, 14])
    def test_engine_past_its_cap_matches_the_word_census_and_the_egf(self, n):
        assert path_census(n, force=True) == word_census(n)
        final_sets = final_set_counts(path(n), force=True)
        assert final_sets[extremal.odd_vertex_set(n)] == odd_configuration_counts_egf(n)[n]

    @pytest.mark.parametrize("n", [12, 14, 16])
    def test_word_census_covers_every_order(self, n):
        counts = word_census(n)
        assert sum(counts) == math.factorial(n)
        assert counts[max_dominating_size(n)] == worst_case_count_recurrence(n)
        assert counts[min_dominating_size(n)] == best_case_count_formula(n)
        assert len(counts) == max_dominating_size(n) + 1


class TestRecurrence:
    def test_base_values(self):
        assert worst_case_count_recurrence(0) == 1
        assert worst_case_count_recurrence(1) == 1
        assert worst_case_count_recurrence(2) == 2
        assert extremal_counts(0) == (1,)
        assert extremal_counts(2, "best") == (1, 1, 2)

    @pytest.mark.parametrize("n", range(1, 12))
    def test_reference_table(self, n):
        assert worst_case_count_recurrence(n) == WORST_CASE_COUNTS[n]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            worst_case_count_recurrence(-1)

    def test_large_n_needs_no_deep_recursion(self):
        limit = sys.getrecursionlimit()
        # Room for the frames already on the stack, far fewer than n / 2.
        sys.setrecursionlimit(len(inspect.stack(0)) + 60)
        try:
            value = worst_case_count_recurrence(300)
        finally:
            sys.setrecursionlimit(limit)
        assert 0 < value < math.factorial(300)

    @pytest.mark.parametrize("bound", ["worst", "best"])
    def test_half_sum_matches_the_full_split_sum(self, bound):
        # Every first vertex v summed, without pairing v with m + 1 - v or a
        # Pascal row, and with no parity range: the condition alone picks v.
        def size(k):
            return extremal_size(k, bound) if k else 0

        counts = [1]
        for m in range(1, 60):
            total = 0
            for v in range(1, m + 1):
                a, b = max(v - 2, 0), max(m - v - 1, 0)
                if size(a) + size(b) + 1 == size(m):
                    ways = math.factorial(m - 1) // (math.factorial(a) * math.factorial(b))
                    total += ways * counts[a] * counts[b]
            counts.append(total)
        assert [worst_case_count_recurrence(n, bound) for n in range(60)] == counts
        assert extremal_counts(59, bound) == tuple(counts)

    def test_best_bound_matches_the_formula(self):
        applicable = [n for n in range(1, 201) if best_case_formula_applicable(n)]
        assert len(applicable) == 199
        for n in applicable:
            assert worst_case_count_recurrence(n, "best") == best_case_count_formula(n), n

    def test_best_bound_counts_where_no_formula_applies(self):
        assert not best_case_formula_applicable(1)
        assert worst_case_count_recurrence(1, "best") == 1

    def test_rejects_an_unknown_bound(self):
        with pytest.raises(ValueError, match="bound_kind"):
            worst_case_count_recurrence(5, "middle")

    def test_cap(self):
        with pytest.raises(ResourceLimitError, match="force"):
            worst_case_count_recurrence(EXACT_COUNT_CAP + 1)


@functools.cache
def _best_counts_to_300():
    return extremal_counts(300, "best")


class TestBestCaseFormula:
    @pytest.mark.parametrize(
        "n,expected", [(2, 2), (3, 2), (4, 24), (5, 64), (6, 80), (7, 3408), (8, 9856),
                       (9, 13440), (10, 1377792), (11, 4139520)]
    )
    def test_values(self, n, expected):
        assert best_case_count_formula(n) == expected

    @pytest.mark.parametrize("n", [1])
    def test_out_of_range_refused(self, n):
        # (n + 3)(7n + 22)/350 would give 348/350 orders at n = 1
        with pytest.raises(ValueError, match=r"^closed formula requires n >= 2; .* n = 1$"):
            best_case_count_formula(n)

    def test_applicability_predicate(self):
        applicable = [n for n in range(-2, 12) if best_case_formula_applicable(n)]
        assert applicable == list(range(2, 12))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 300))
    def test_equals_the_split_recurrence(self, n):
        assert best_case_count_formula(n) == _best_counts_to_300()[n]

    def test_a_remainder_is_reported_with_its_n(self, monkeypatch):
        # with n! taken as 1, 8/(5 * 3) leaves a remainder at n = 5
        monkeypatch.setattr(math, "factorial", lambda n: 1)
        with pytest.raises(ConsistencyError, match=r"remainder at n=5$"):
            best_case_count_formula(5)


# The permutation forms of the even-position pattern, kept as references for
# the word predicate extremal.every_even_vertex_has and the pattern counts.


def inverse(perm):
    """Inverse permutation: position of each value."""
    check_permutation(perm)
    inv = [0] * len(perm)
    for position, value in enumerate(perm, start=1):
        inv[value - 1] = position
    return tuple(inv)


def complement(perm):
    """Value complement: each entry v becomes n+1-v."""
    check_permutation(perm)
    return tuple(len(perm) + 1 - v for v in perm)


def _every_even_position_has(perm, side):
    """True when each even position has a neighbor x with side(x, its entry)."""
    n = len(perm)
    return all(
        side(perm[j - 1], perm[j]) or (j + 1 < n and side(perm[j + 1], perm[j]))
        for j in range(1, n, 2)  # 0-based indices of even positions
    )


def is_weakly_alternating(perm):
    """True when every even position holds a weak peak: at least one existing
    neighbor is smaller."""
    return _every_even_position_has(perm, operator.lt)


def has_no_even_local_maxima(perm):
    """True when no even position is a strict local maximum: one larger
    neighbor is enough to clear a position, since entries are distinct."""
    return _every_even_position_has(perm, operator.gt)


def _word_of(perm):
    """The letter rows of the up/down word of a sequence, one word: shape
    (len(perm) - 1, 1)."""
    ups = [perm[j + 1] > perm[j] for j in range(len(perm) - 1)]
    return np.array(ups, dtype=bool).reshape(-1, 1)


class TestPermutationPredicates:
    def test_weakly_alternating_examples(self):
        assert is_weakly_alternating((2, 3, 1))
        assert not is_weakly_alternating((3, 1, 2))
        assert is_weakly_alternating((1, 2, 3))

    def test_no_even_local_maxima_examples(self):
        assert has_no_even_local_maxima((2, 1, 3))
        assert not has_no_even_local_maxima((1, 3, 2))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_weakly_alternating_scan_equals_the_definition(self, n):
        # each even position (index i odd) is not the least of its window
        assert weakly_alternating_permutations(n) == [
            p for p in itertools.permutations(range(1, n + 1))
            if all(p[i] != min(p[i - 1:i + 2]) for i in range(1, n, 2))
        ]

    @pytest.mark.parametrize("n,count", [(3, 4), (5, 56)])
    def test_no_even_maxima_counts(self, n, count):
        assert count_no_even_local_maxima(n) == count

    @pytest.mark.parametrize("scan", [weakly_alternating_permutations])
    def test_scans_have_their_own_cap(self, scan):
        assert PERMUTATION_SCAN_CAP == 10
        with pytest.raises(ResourceLimitError, match="force"):
            scan(11)

    def test_forced_scan_runs_past_its_cap(self, monkeypatch):
        monkeypatch.setattr(extremal, "PERMUTATION_SCAN_CAP", 4)
        assert len(weakly_alternating_permutations(5, force=True)) == 56
        with pytest.raises(ResourceLimitError):
            weakly_alternating_permutations(5)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_pattern_counts_match_the_permutation_scan(self, n):
        perms = list(itertools.permutations(range(1, n + 1)))
        assert count_weakly_alternating(n) == sum(map(is_weakly_alternating, perms))
        assert count_no_even_local_maxima(n) == sum(
            map(has_no_even_local_maxima, perms)
        )

    def test_pattern_tables_hold_the_count_at_every_length(self):
        scans = [
            [sum(map(holds, itertools.permutations(range(1, m + 1)))) for m in range(9)]
            for holds in (is_weakly_alternating, has_no_even_local_maxima)
        ]
        # complementation maps one pattern onto the other at every length
        assert extremal.weakly_alternating_counts(8) == tuple(scans[0]) == tuple(scans[1])
        for n in range(1, 40):
            assert extremal.weakly_alternating_counts(n) == (
                extremal.weakly_alternating_counts(39)[: n + 1])

    def test_pattern_counts_match_the_odd_configuration_egf(self):
        # odd-configuration orders are the inverses of weakly alternating ones
        odd_config = odd_configuration_counts_egf(120)
        assert extremal.weakly_alternating_counts(120) == odd_config
        for n in range(1, 121):
            assert count_weakly_alternating(n) == odd_config[n], n
            assert count_no_even_local_maxima(n) == odd_config[n], n

    @pytest.mark.parametrize(
        "count", [count_weakly_alternating, count_no_even_local_maxima],
        ids=["count_weakly_alternating", "count_no_even_local_maxima"],  # one __name__
    )
    def test_pattern_counts_reject_empty_orders(self, count):
        with pytest.raises(ValueError, match="positive"):
            count(0)

    def test_inverse_and_complement(self):
        assert inverse((2, 3, 1)) == (3, 1, 2)
        assert complement((1, 3, 2)) == (3, 1, 2)
        assert inverse(inverse((4, 1, 3, 2))) == (4, 1, 3, 2)

    def test_inverse_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            inverse((1, 1, 2))

    @pytest.mark.parametrize("n", [1, 3, 5, 7])
    def test_inverse_bijection_to_weak_alternation(self, n):
        worst = extremal_permutations(n, "worst")
        alternating = set(weakly_alternating_permutations(n))
        assert {inverse(p) for p in worst} == alternating

    @pytest.mark.parametrize("n", [1, 3, 5, 7])
    def test_complement_swaps_weak_peaks_and_maxima(self, n):
        for perm in itertools.permutations(range(1, n + 1)):
            assert is_weakly_alternating(perm) == has_no_even_local_maxima(
                complement(perm)
            )

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.permutations(range(1, n + 1))))
    @example([1])
    @example([1, 2])
    @example([2, 1])
    def test_word_predicate_matches_the_permutation_forms(self, perm):
        word = _word_of(perm)
        flipped = ~word  # every letter reversed
        holds = extremal.every_even_vertex_has(word)
        assert holds.tolist() == [is_weakly_alternating(perm)]
        assert _word_of(complement(perm)).tolist() == flipped.tolist()
        # the complement's word is the flipped word, whose flip is the word again
        assert holds.tolist() == [has_no_even_local_maxima(complement(perm))]
        assert extremal.every_even_vertex_has(flipped).tolist() == [
            has_no_even_local_maxima(perm)
        ]


class TestOddConfiguration:
    @pytest.mark.parametrize("n,count", [(2, 1), (3, 4), (4, 9)])
    def test_small_counts(self, n, count):
        assert final_set_counts(path(n))[extremal.odd_vertex_set(n)] == count

    @pytest.mark.parametrize("n", [1, 3, 5, 7])
    def test_odd_length_equals_worst_count(self, n):
        # odd n has a unique worst-case set, the odd vertices
        final_sets = final_set_counts(path(n))
        assert final_sets[extremal.odd_vertex_set(n)] == worst_case_count_recurrence(n)


class TestExtremalPermutations:
    def test_best_kind(self):
        best = extremal_permutations(4, "best")
        assert len(best) == BEST_CASE_COUNTS[4]

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            extremal_permutations(4, "median")

    @pytest.mark.parametrize("kind", ["worst", "best"])
    def test_a_limit_lists_a_prefix(self, kind):
        assert extremal_permutations(7, kind, 5) == extremal_permutations(7, kind)[:5]
