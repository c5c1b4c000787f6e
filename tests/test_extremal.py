"""Extremal enumeration checks.

Reference counts for small n (independently reproduced by the census, the
recurrence, the EGF and the closed formulas):

    worst: 1, 2, 4, 24, 56, 640, 1632, 30464, 81664, 2251008, 6241280
    best:  1, 2, 2, 24, 64, 80, 3408, 9856, 13440, 1377792, 4139520
"""

import collections
import inspect
import itertools
import json
import math
import operator
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
    orders_per_word,
    path,
    path_census,
    run_online_domination,
    set_first_order,
    up_down_words,
    weakly_alternating_permutations,
    word_census,
    worst_case_count_recurrence,
)
from pathdom.domination import PackedWords
from pathdom.errors import EXACT_COUNT_CAP, ResourceLimitError
from pathdom.extremal import PERMUTATION_SCAN_CAP
from pathdom.series import odd_configuration_counts_egf
from pathdom.verification import BEST_CASE_COUNTS, WORST_CASE_COUNTS


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
        dist = path_census(n).distribution()
        assert min(dist) == min_dominating_size(n)
        assert max(dist) == max_dominating_size(n)


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

    @pytest.mark.parametrize("n", range(1, 9))
    def test_realized_worst_sets_match_construction(self, n):
        census = path_census(n)
        assert set(census.worst_set_counts) == set(
            maximal_independent_dominating_sets(n)
        )


class TestBruteForceCounts:
    def test_length_three_witnesses(self):
        assert path_census(3).worst_count == 4
        assert set(extremal_permutations(3, "worst")) == {
            (1, 2, 3), (1, 3, 2), (3, 1, 2), (3, 2, 1),
        }

    @pytest.mark.parametrize("n", range(1, 9))
    def test_worst_counts(self, n):
        assert path_census(n).worst_count == WORST_CASE_COUNTS[n]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_best_counts(self, n):
        assert path_census(n).best_count == BEST_CASE_COUNTS[n]

    def test_report_invariants(self, capsys):
        g = path(6)
        for kind, size in (("worst", 3), ("best", 2)):
            assert extremal_size(6, kind) == size
            witnesses = extremal_permutations(6, kind, 100)
            assert len(witnesses) == min(100, path_census(6).size_counts[size])
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


def _zigzag(n):
    """Euler's up/down number E_n, by the Seidel-Entringer triangle."""
    row = [1]
    for _ in range(n):
        new = [0]
        for x in reversed(row):
            new.append(new[-1] + x)
        row = new
    return row[-1]


def _codes(words):
    """The integer code of each boolean word row: letter j is bit j."""
    words = np.asarray(words, dtype=bool)
    return (words.astype(np.uint32) << np.arange(words.shape[1], dtype=np.uint32)).sum(
        axis=1, dtype=np.uint32
    )


def _rows(codes, letters):
    """The boolean word rows of codes of `letters` letters."""
    codes = np.asarray(codes, dtype=np.uint32)
    return (codes[:, None] >> np.arange(letters, dtype=np.uint32) & 1).astype(bool)


def _packed(words):
    """The PackedWords of boolean word rows, shape (k, n - 1)."""
    k = len(words)
    packed = PackedWords.empty(words.shape[1] + 1, k)
    packed.table[1:, : -(-k // 8)] = np.packbits(words.T, axis=1)
    return packed


def _every_even_vertex_has_by_rows(words):
    """The even-vertex predicate letter by letter on boolean rows, the
    reference for the two masks of extremal.every_even_vertex_has."""
    words = np.asarray(words, dtype=bool)
    holds = np.ones(len(words), dtype=bool)
    for i in range(0, words.shape[1], 2):  # letters i and i + 1 flank vertex i + 2
        has = words[:, i]
        if i + 1 < words.shape[1]:
            has = has | ~words[:, i + 1]
        holds &= has
    return holds


def _orders_per_word_by_whole_tables(words):
    """The rank recursion run over every letter of every word: one (k, j + 2)
    table per letter, the reference for orders_per_word met in the middle."""
    words = np.asarray(words, dtype=bool)
    k, letters = words.shape
    ranks = np.ones((k, 1), dtype=np.int64 if letters < 20 else object)
    for j in range(letters):
        below = np.zeros((k, j + 2), dtype=ranks.dtype)
        np.cumsum(ranks, axis=1, out=below[:, 1:])
        ranks = below[:, -1:] - below
        np.copyto(ranks, below, where=words[:, j, None])
    return ranks.sum(axis=1)


@st.composite
def _word_arrays(draw):
    """Up to 60 words of up to 24 letters, each glued from one of a few
    prefixes and one of a few suffixes, so that words and halves repeat."""
    letters = draw(st.integers(min_value=0, max_value=24))
    cut = draw(st.integers(min_value=0, max_value=letters))

    def pieces(size):
        piece = st.lists(st.booleans(), min_size=size, max_size=size)
        return draw(st.lists(piece, min_size=1, max_size=4))

    heads, tails = pieces(cut), pieces(letters - cut)
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(heads), st.sampled_from(tails)), max_size=60
    ))
    return np.array([h + t for h, t in pairs], dtype=bool).reshape(len(pairs), letters)


class TestWordCensus:
    def test_word_layout(self):
        assert up_down_words(1).tolist() == [0]
        codes = up_down_words(4)
        assert codes.dtype == np.uint32
        assert codes.tolist() == list(range(8))
        assert _rows(codes, 3).tolist() == [
            [bool(i >> j & 1) for j in range(3)] for i in range(8)
        ]
        # row v of the packed table holds letter v - 1 of every word
        packed = PackedWords.from_codes(4, codes)
        assert len(packed) == 8
        letters = _packed(_rows(codes, 3)).table[:, :1]
        assert packed.table[:, :1].tolist() == letters.tolist()

    @pytest.mark.parametrize("n", range(1, 14))
    def test_batch_sizes_match_the_scalar_run_on_a_representative_of_each_word(
        self, n
    ):
        codes = up_down_words(n)
        words = _rows(codes, n - 1).tolist()
        sizes = gamma_batch_path(n, PackedWords.from_codes(n, codes)).tolist()
        g = path(n)
        for word, size in zip(words, sizes):
            order = _representative_order(word)
            assert [b > a for a, b in zip(order, order[1:])] == word
            assert gamma(g, order) == size

    @pytest.mark.parametrize("n", range(1, 8))
    def test_orders_per_word_matches_the_permutation_listing(self, n):
        listed = collections.Counter(
            tuple(b > a for a, b in zip(times, times[1:]))
            for times in itertools.permutations(range(n))
        )
        codes = up_down_words(n)
        words = map(tuple, _rows(codes, n - 1).tolist())
        assert dict(zip(words, orders_per_word(codes, n - 1).tolist())) == dict(listed)

    def test_orders_per_word_is_exact_past_int64(self):
        words = [[True, False] * 12, [False] * 24, [False, True] * 12]
        counts = orders_per_word(_codes(words), 24)
        assert counts.tolist() == [_zigzag(25), 1, _zigzag(25)]
        assert _zigzag(25) > 2**63

    @settings(max_examples=150, deadline=None)
    @given(_word_arrays())
    @example(np.zeros((0, 0), dtype=bool))
    @example(np.array([[True], [False], [True]]))
    @example(np.eye(3, 19, dtype=bool))  # the last int64 length
    @example(np.eye(3, 20, dtype=bool))  # the first length counted in Python ints
    def test_orders_per_word_equals_the_whole_table_route(self, words):
        counts = orders_per_word(_codes(words), words.shape[1])
        reference = _orders_per_word_by_whole_tables(words)
        assert counts.dtype == reference.dtype
        assert counts.shape == (len(words),)
        assert counts.tolist() == reference.tolist()

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=24).flatmap(lambda letters: st.tuples(
        st.just(letters), st.lists(st.integers(0, (1 << letters) - 1), max_size=60)
    )))
    @example((0, []))
    @example((0, [0, 0]))
    @example((1, [0, 1]))
    @example((19, [0, 1 << 18, (1 << 19) - 1]))  # the last int64 length
    @example((24, [0xAAAAAA, 0x555555, 0xFFFFFF, 0]))
    def test_code_routes_equal_the_boolean_row_forms(self, drawn):
        letters, codes = drawn
        codes = np.array(codes, dtype=np.uint32)
        words = _rows(codes, letters)
        assert _codes(words).tolist() == codes.tolist()
        holds = extremal.every_even_vertex_has(codes, letters)
        assert holds.tolist() == _every_even_vertex_has_by_rows(words).tolist()
        counts = orders_per_word(codes, letters)
        assert counts.tolist() == _orders_per_word_by_whole_tables(words).tolist()

    @pytest.mark.parametrize("letters", [8, 20])  # int64 and Python-int counts
    def test_blocks_of_words_give_the_whole_block_counts(self, monkeypatch, letters):
        words = np.random.default_rng(letters).random((300, letters)) < 0.5
        whole = orders_per_word(_codes(words), letters)
        monkeypatch.setattr(extremal, "WORD_ROWS", 7)
        blocked = orders_per_word(_codes(words), letters)
        assert blocked.dtype == whole.dtype
        assert blocked.tolist() == whole.tolist()
        assert whole.tolist() == _orders_per_word_by_whole_tables(words).tolist()

    @pytest.mark.parametrize("n", range(1, 20))
    def test_orders_over_all_words_sum_to_n_factorial(self, n):
        assert int(orders_per_word(up_down_words(n), n - 1).sum()) == math.factorial(n)

    def test_census_memory_stays_below_8_mib(self):
        tracemalloc.start()
        try:
            word_census(16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    def test_census_memory_at_18_stays_below_12_mib(self):
        tracemalloc.start()
        try:
            word_census(18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20

    @pytest.mark.parametrize("n", range(1, 10))
    def test_word_census_matches_the_engine(self, n):
        assert word_census(n) == path_census(n).size_counts

    @pytest.mark.parametrize("n", [12, 13, 14])
    def test_engine_past_its_cap_matches_the_word_census_and_the_egf(self, n):
        census = path_census(n, force=True)
        assert census.size_counts == word_census(n)
        assert census.odd_configuration_count == odd_configuration_counts_egf(n)[n]

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

    def test_half_sum_matches_the_full_split_sum(self):
        # Every split point summed, without pairing i with m + 1 - i.
        counts = [1, 1]
        for m in range(2, 60):
            splits = range(3, m - 1, 2) if m % 2 else range(2, m)
            inner = sum(
                math.comb(m - 3, i - 2) * counts[i - 2] * counts[m - i - 1]
                for i in splits
            )
            counts.append(2 * (m - 1) * counts[m - 2] + (m - 1) * (m - 2) * inner)
        assert [worst_case_count_recurrence(n) for n in range(60)] == counts

    def test_cap(self):
        with pytest.raises(ResourceLimitError, match="force"):
            worst_case_count_recurrence(EXACT_COUNT_CAP + 1)


class TestBestCaseFormula:
    @pytest.mark.parametrize(
        "n,expected", [(3, 2), (5, 64), (6, 80), (8, 9856), (9, 13440),
                       (10, 1377792), (11, 4139520)]
    )
    def test_values(self, n, expected):
        assert best_case_count_formula(n) == expected

    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_out_of_range_refused(self, n):
        if n == 1:
            # n % 3 == 1 and n <= 7
            with pytest.raises(ValueError, match="n > 7"):
                best_case_count_formula(n)
        elif n == 2:
            with pytest.raises(ValueError, match="n > 2"):
                best_case_count_formula(n)
        else:
            with pytest.raises(ValueError, match="brute"):
                best_case_count_formula(n)

    def test_applicability_predicate(self):
        applicable = [n for n in range(1, 12) if best_case_formula_applicable(n)]
        assert applicable == [3, 5, 6, 8, 9, 10, 11]


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
    """The code of the up/down word of a sequence, as a one-word code array."""
    return np.array([sum(1 << j for j in range(len(perm) - 1) if perm[j + 1] > perm[j])])


class TestPermutationPredicates:
    def test_weakly_alternating_examples(self):
        assert is_weakly_alternating((2, 3, 1))
        assert not is_weakly_alternating((3, 1, 2))
        assert is_weakly_alternating((1, 2, 3))

    def test_no_even_local_maxima_examples(self):
        assert has_no_even_local_maxima((2, 1, 3))
        assert not has_no_even_local_maxima((1, 3, 2))

    @pytest.mark.parametrize("n,count", [(1, 1), (3, 4), (5, 56), (7, 1632)])
    def test_weakly_alternating_counts(self, n, count):
        assert len(weakly_alternating_permutations(n)) == count

    def test_weakly_alternating_set_n3(self):
        assert set(weakly_alternating_permutations(3)) == {
            (1, 2, 3), (1, 3, 2), (2, 3, 1), (3, 2, 1),
        }

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
        assert extremal.weakly_alternating_counts(8) == tuple(scans[0])
        assert extremal.no_even_local_maxima_counts(8) == tuple(scans[1])
        for n in range(1, 40):
            assert extremal.weakly_alternating_counts(n) == (
                extremal.weakly_alternating_counts(39)[: n + 1])

    def test_pattern_counts_match_the_odd_configuration_egf(self):
        # odd-configuration orders are the inverses of weakly alternating ones
        odd_config = odd_configuration_counts_egf(120)
        assert extremal.weakly_alternating_counts(120) == odd_config
        assert extremal.no_even_local_maxima_counts(120) == odd_config
        for n in range(1, 121):
            assert count_weakly_alternating(n) == odd_config[n], n
            assert count_no_even_local_maxima(n) == odd_config[n], n

    @pytest.mark.parametrize(
        "count", [count_weakly_alternating, count_no_even_local_maxima]
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
        word, letters = _word_of(perm), len(perm) - 1
        flipped = word ^ (1 << letters) - 1  # every letter reversed
        holds = extremal.every_even_vertex_has(word, letters)
        assert holds.tolist() == [is_weakly_alternating(perm)]
        assert _word_of(complement(perm)).tolist() == flipped.tolist()
        # the complement's word is the flipped word, whose flip is the word again
        assert holds.tolist() == [has_no_even_local_maxima(complement(perm))]
        assert extremal.every_even_vertex_has(flipped, letters).tolist() == [
            has_no_even_local_maxima(perm)
        ]


class TestOddConfiguration:
    @pytest.mark.parametrize("n,count", [(2, 1), (3, 4), (4, 9)])
    def test_small_counts(self, n, count):
        assert path_census(n).odd_configuration_count == count

    @pytest.mark.parametrize("n", [1, 3, 5, 7])
    def test_odd_length_equals_worst_count(self, n):
        # odd n has a unique worst-case set, the odd vertices
        census = path_census(n)
        assert census.odd_configuration_count == worst_case_count_recurrence(n)


class TestExtremalPermutations:
    def test_best_kind(self):
        best = extremal_permutations(4, "best")
        assert len(best) == BEST_CASE_COUNTS[4]

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            extremal_permutations(4, "median")

    @pytest.mark.parametrize("kind", ["worst", "best"])
    def test_listing_inside_the_census_final_sets(self, kind):
        census = path_census(7)
        assert census.final_set_counts == final_set_counts(path(7))
        listed = extremal_permutations(7, kind, census=census)
        assert listed == extremal_permutations(7, kind)
        assert extremal_permutations(7, kind, 5, census=census) == listed[:5]
        with pytest.raises(ValueError, match="n = 7"):
            extremal_permutations(6, kind, census=census)
