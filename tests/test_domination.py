"""Online procedure checks, exhaustive wherever cheap.

Core claims:
    - Each graph family builder produces the intended adjacency.
    - The procedure adds a revealed vertex iff no neighbor is in the set.
    - Every outcome is an independent dominating set, on every family.
    - Outcomes are deterministic and respect the path's mirror symmetry.
    - Path sizes always land in [ceil(n/3), ceil(n/2)].
    - The vectorized path evaluator agrees with the scalar engine, and its
      two passes, a right scan then a greedy forward pass, give the final set.
    - On the path, orders with one up/down word give one final set.
    - The exhaustive engine agrees with a plain loop over every order, and
      with the (revealed, chosen) engine it replaced past the loop's reach.
    - The final sets reachable from a reveal prefix are those that contain
      its chosen set.
"""

import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathdom import (
    check_permutation,
    complete_multipartite,
    cycle,
    domination,
    explicit,
    final_set_counts,
    gamma,
    gamma_batch_path,
    is_independent_dominating,
    montecarlo,
    orders_with_size,
    path,
    run_online_domination,
    star,
    wheel,
)
from pathdom.domination import SIZE_ROWS, PackedWords
from pathdom.graphs import _build


@st.composite
def _explicit_graphs(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return explicit(n, edges)


def _assert_outcome_is_independent_dominating(graph, order):
    outcome = run_online_domination(graph, order)
    assert is_independent_dominating(graph, outcome.chosen_set)
    assert outcome.size == len(outcome.chosen_set)


class TestGraphFamilies:
    def test_path_edges(self):
        g = path(4)
        assert g.n == 4
        assert g.edges == [(1, 2), (2, 3), (3, 4)]
        assert path(1).edges == []

    def test_cycle_wraps(self):
        g = cycle(5)
        assert (1, 5) in g.edges
        assert all(g.degree(v) == 2 for v in g.vertices)

    def test_star_hub_is_last(self):
        g = star(4)
        assert g.n == 5
        assert g.degree(5) == 4
        assert all(g.degree(v) == 1 for v in range(1, 5))

    def test_wheel_structure(self):
        g = wheel(4)
        assert g.n == 5
        assert g.degree(5) == 4  # hub
        assert all(g.degree(v) == 3 for v in range(1, 5))  # rim

    def test_multipartite_adjacency(self):
        g = complete_multipartite([2, 3])
        assert g.neighbors(1) == (3, 4, 5)  # no edge inside the first part
        assert g.neighbors(3) == (1, 2)

    def test_path_adjacency_is_that_of_its_edges(self):
        for n in range(1, 61):
            assert path(n) == _build(n, ((i, i + 1) for i in range(1, n))), n

    def test_empty_path_refused(self):
        with pytest.raises(ValueError, match="a path needs at least 1 vertex"):
            path(0)

    def test_explicit_matches_path(self):
        g = explicit(4, [(1, 2), (2, 3), (3, 4)])
        for perm in itertools.permutations(range(1, 5)):
            assert gamma(g, perm) == gamma(path(4), perm)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: path(0),
            lambda: cycle(2),
            lambda: star(0),
            lambda: wheel(2),
            lambda: complete_multipartite([]),
            lambda: complete_multipartite([1, 0]),
            lambda: explicit(3, [(1, 4)]),
            lambda: explicit(3, [(2, 2)]),
        ],
    )
    def test_invalid_parameters(self, build):
        with pytest.raises(ValueError):
            build()


class TestRunOnline:
    def test_middle_vertex_dominates_short_path(self):
        outcome = run_online_domination(path(3), (2, 1, 3))
        assert outcome.chosen_set == {2}
        assert outcome.size == 1

    def test_left_to_right_reveal(self):
        # 2 is dominated by 1; 3 is not dominated when revealed
        outcome = run_online_domination(path(3), (1, 2, 3))
        assert outcome.chosen_set == {1, 3}
        assert outcome.size == 2

    def test_odd_vertices_first(self):
        outcome = run_online_domination(path(6), (1, 3, 5, 2, 4, 6))
        assert outcome.chosen_set == {1, 3, 5}
        assert outcome.size == 3

    def test_chosen_preserves_insertion_order(self):
        outcome = run_online_domination(path(5), (5, 1, 3, 2, 4))
        assert outcome.chosen == (5, 1, 3)

    def test_gamma_examples(self):
        assert gamma(path(1), (1,)) == 1
        assert gamma(path(2), (1, 2)) == 1
        assert gamma(path(2), (2, 1)) == 1
        assert gamma(path(5), (1, 3, 5, 2, 4)) == 3

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            run_online_domination(path(4), (1, 2, 3))

    @pytest.mark.parametrize(
        "bad", [(1, 1, 3), (0, 1, 2), (1, 2, 4), (), (1.0, 2.0), ("1",), (Fraction(1),)]
    )
    def test_non_bijection_rejected(self, bad):
        with pytest.raises(ValueError, match="permutation"):
            check_permutation(bad)

    @pytest.mark.parametrize(
        "good",
        [(2, 1, 3), (True,), (np.int64(2), np.int64(1)), (np.uint32(1), 3, np.uint32(2))],
    )
    def test_integer_entries_accepted(self, good):
        check_permutation(good)

    def test_deterministic(self):
        perm = (4, 2, 6, 1, 5, 3)
        assert run_online_domination(path(6), perm) == run_online_domination(
            path(6), perm
        )

    @pytest.mark.parametrize(
        "graph",
        [path(5), cycle(5), star(4), wheel(4), complete_multipartite([2, 2, 1])],
    )
    def test_every_outcome_is_independent_dominating(self, graph):
        for perm in itertools.permutations(range(1, graph.n + 1)):
            _assert_outcome_is_independent_dominating(graph, perm)

    @given(_explicit_graphs().flatmap(
        lambda g: st.tuples(st.just(g), st.permutations(range(1, g.n + 1)))
    ))
    def test_every_outcome_is_independent_dominating_on_random_graphs(self, case):
        _assert_outcome_is_independent_dominating(*case)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_mirror_symmetry_on_paths(self, n):
        g = path(n)
        for perm in itertools.permutations(range(1, n + 1)):
            mirrored = tuple(n + 1 - v for v in perm)
            a = run_online_domination(g, perm)
            b = run_online_domination(g, mirrored)
            assert a.size == b.size
            assert {n + 1 - v for v in a.chosen_set} == b.chosen_set

    @pytest.mark.parametrize("n", range(1, 8))
    def test_path_size_bounds(self, n):
        lo, hi = (n + 2) // 3, (n + 1) // 2
        g = path(n)
        for perm in itertools.permutations(range(1, n + 1)):
            assert lo <= gamma(g, perm) <= hi


class TestIsIndependentDominating:
    def test_examples(self):
        assert is_independent_dominating(path(5), {1, 3, 5})
        assert is_independent_dominating(path(4), {1, 4})
        assert not is_independent_dominating(path(4), {1, 2})  # adjacent pair
        assert not is_independent_dominating(path(5), {1, 5})  # 3 undominated

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(ValueError):
            is_independent_dominating(path(4), {1, 7})


def _up_down_words(times):
    return times[:, 1:] > times[:, :-1]


def _packed(words):
    """The PackedWords of boolean word rows, shape (k, n - 1)."""
    k = len(words)
    packed = PackedWords.empty(words.shape[1] + 1, k)
    packed.table[1:] = np.packbits(words.T, axis=1)
    return packed


def _an_order_with_word(word):
    """An order whose up/down word is `word`: vertices sorted by the longest run
    of earlier neighbours leading to them, a depth that rises along each letter."""
    n = len(word) + 1
    left, right = [0] * n, [0] * n
    for v in range(1, n):
        left[v] = left[v - 1] + 1 if word[v - 1] else 0
    for v in range(n - 2, -1, -1):
        right[v] = right[v + 1] + 1 if not word[v] else 0
    depth = [max(pair) for pair in zip(left, right)]
    return [v + 1 for v in sorted(range(n), key=depth.__getitem__)]


def _word_of(order):
    """The up/down word of an order: letter v is true when v + 1 comes after v."""
    times = {v: i for i, v in enumerate(order)}
    return [times[v + 1] > times[v] for v in range(1, len(order))]


def _final_set_by_two_passes(word):
    """The final set from the up/down word by gamma_batch_path's two passes,
    one vertex at a time: right[v], vertex v's right neighbour not chosen as v
    is revealed, from the right end; then the greedy pass from the left."""
    n = len(word) + 1
    right = [True] * (n + 2)
    for v in range(n - 1, 0, -1):
        right[v] = word[v - 1] or not right[v + 1]
    chosen, previous = set(), False
    for v in range(1, n + 1):
        previous = right[v] and not previous
        if previous:
            chosen.add(v)
    return chosen


def _long_run_words(n, mirrored):
    """13 words of the n-path, so the last packed byte is partial: all up, all
    down, both alternations, five 99 % and four 1 % up; mirrored, each
    reversed and complemented, the word of the mirrored order."""
    rng = np.random.default_rng(n)
    alternating = np.arange(n - 1) % 2 == 0
    words = np.vstack([
        np.ones(n - 1, dtype=bool), np.zeros(n - 1, dtype=bool),
        alternating, ~alternating,
        rng.random((5, n - 1)) < 0.99, rng.random((4, n - 1)) < 0.01,
    ])
    return ~words[:, ::-1] if mirrored else words


class TestTwoPasses:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_final_set_matches_the_scalar_run_on_every_order(self, n):
        g = path(n)
        for order in itertools.permutations(range(1, n + 1)):
            assert _final_set_by_two_passes(_word_of(order)) == (
                run_online_domination(g, order).chosen_set)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=60).flatmap(
        lambda n: st.permutations(range(1, n + 1))))
    def test_final_set_matches_the_scalar_run_on_random_orders(self, order):
        assert _final_set_by_two_passes(_word_of(order)) == (
            run_online_domination(path(len(order)), order).chosen_set)


class TestGammaBatch:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_scalar_engine_exhaustively(self, n):
        orders = np.array(list(itertools.permutations(range(1, n + 1))))
        sizes = gamma_batch_path(n, _packed(_up_down_words(np.argsort(orders, axis=1))))
        g = path(n)
        for order, size in zip(orders, sizes):
            assert size == gamma(g, tuple(order))

    @settings(max_examples=80, deadline=None)
    @given(
        # Odd and even scan rows, and paths past several SIZE_ROWS blocks.
        st.integers(min_value=1, max_value=8 * SIZE_ROWS + 40),
        st.integers(min_value=1, max_value=200),  # whole and partial packed bytes
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_scalar_engine_on_random_orders(self, n, k, seed):
        orders = np.random.default_rng(seed).permuted(
            np.tile(np.arange(1, n + 1), (k, 1)), axis=1
        )
        sizes = gamma_batch_path(n, _packed(_up_down_words(np.argsort(orders, axis=1))))
        g = path(n)
        assert list(sizes) == [
            run_online_domination(g, order).size for order in orders.tolist()
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        # Both sides of each SIZE_ROWS block of summed rows.
        st.sampled_from([1, 2, 3, 127, 128, 129, 130, 255, 256, 257]),
        st.integers(min_value=1, max_value=30).filter(lambda k: k % 8),  # partial bytes
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_scalar_engine_on_random_words(self, n, k, seed):
        words = np.random.default_rng(seed).random((k, n - 1)) < 0.5
        g = path(n)
        expected = []
        for word in words.tolist():
            order = _an_order_with_word(word)
            times = np.argsort(order)[None, :]
            assert _up_down_words(times)[0].tolist() == word
            expected.append(run_online_domination(g, order).size)
        packed = _packed(words)
        assert len(packed) == k
        assert gamma_batch_path(n, packed).tolist() == expected

    @pytest.mark.parametrize("mirrored", [False, True])
    @pytest.mark.parametrize(
        "n", [32, 33, 34, 35, 48, 49, 64, 65, 66, 97, 98, 296, 2000])
    def test_runs_longer_than_a_segment(self, n, mirrored):
        # From n = 33, where the second pass has SEGMENTS rows past its first
        # (the first pass from n = 34), each scan runs SEGMENTS segments, of
        # one row up to n = 64, and fixes each up from the one before; below
        # it the rows run in order.  A run of up or down letters crossing
        # whole segments carries a fix-up on, which random words almost never
        # do.  The mirrored words, reversed and complemented, are those of the
        # mirrored orders, so each run meets the two passes from the other end.
        words = _long_run_words(n, mirrored)
        g = path(n)
        assert gamma_batch_path(n, _packed(words)).tolist() == [
            run_online_domination(g, _an_order_with_word(word)).size
            for word in words.tolist()
        ]

    @pytest.mark.parametrize(
        "n", [33, 34, 35, 36, 49, 64, 65, 66, 97, 98, 2000, 2001])
    def test_backward_pass_starts_from_a_row_that_is_not_all_ones(self, n):
        # The right scan starts from the last letter, so its segment 0 is
        # fixed up like the others; flipping that letter flips the start.
        alternating = np.arange(n - 1) % 2 == 0
        words = np.vstack([
            np.ones(n - 1, dtype=bool), np.zeros(n - 1, dtype=bool), alternating,
        ])
        flipped = words.copy()
        flipped[:, -1] ^= True
        words = np.vstack([words, flipped])
        g = path(n)
        assert gamma_batch_path(n, _packed(words)).tolist() == [
            run_online_domination(g, _an_order_with_word(word)).size
            for word in words.tolist()
        ]

    @pytest.mark.parametrize("mirrored", [False, True])
    @pytest.mark.parametrize("n", [33, 64, 65, 66, 97, 2000])
    def test_every_row_ends_holding_the_final_set(self, n, mirrored):
        # Sizes alone would pass a fix-up that flips two bits of one sample.
        # Row v, 1 <= v < n, must end as vertex v's membership, row 0 as n's.
        words = _long_run_words(n, mirrored)
        packed = _packed(words)
        gamma_batch_path(n, packed)
        rows = np.unpackbits(packed.table, axis=1, count=len(words)).astype(bool)
        g = path(n)
        for j, word in enumerate(words.tolist()):
            chosen = run_online_domination(g, _an_order_with_word(word)).chosen_set
            assert rows[1:, j].tolist() == [v in chosen for v in range(1, n)]
            assert rows[0, j] == (n in chosen)

    @pytest.mark.parametrize("k", [1, 5, 8, 13, 300])  # k < 8, k % 8 != 0, several bytes
    @pytest.mark.parametrize("n", [1, 2, 7, 40, 2 * SIZE_ROWS + 3, 8 * SIZE_ROWS + 3])
    def test_blocks_of_samples_give_the_whole_block_sizes(self, monkeypatch, n, k):
        words = np.random.default_rng(1000 * n + k).random((k, n - 1)) < 0.5
        whole = gamma_batch_path(n, _packed(words))
        monkeypatch.setattr(domination, "SIZE_BYTES", 1)  # 8 samples a block
        assert gamma_batch_path(n, _packed(words)).tolist() == whole.tolist()
        g = path(n)
        assert whole.tolist() == [
            run_online_domination(g, _an_order_with_word(word)).size
            for word in words.tolist()
        ]

    def test_all_words_of_19_vertices_peak_below_2_mib(self):
        # One packed table of 2^18 words, 0.6 MiB, and uint16 sizes, 0.5 MiB.
        n = 19
        tracemalloc.start()
        try:
            sizes = gamma_batch_path(n, PackedWords.every_word(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20
        assert len(sizes) == 2 ** (n - 1)

    def test_a_run_through_every_segment_keeps_p_below_run_rows(self):
        # Word 0 all up keeps the greedy pass's P alive through every row of
        # the segments; past RUN_ROWS rows that pass runs in order, so the
        # peak stays that of the summed blocks, not a P row per segment row.
        n = 2000
        words = montecarlo._chunk_words(np.random.default_rng(0), n, 4096)
        random_sizes = gamma_batch_path(n, PackedWords(words.table.copy(), len(words)))
        words.table[1:, 0] |= 0x80  # every letter of word 0 up: the identity order
        tracemalloc.start()
        try:
            sizes = gamma_batch_path(n, words)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert sizes[0] == run_online_domination(path(n), range(1, n + 1)).size
        assert sizes[1:].tolist() == random_sizes[1:].tolist()

    @pytest.mark.parametrize("n, dtype", [
        (1, np.uint16), (131070, np.uint16), (131071, np.uint32),
    ])
    def test_sizes_are_uint16_while_half_the_path_fits(self, n, dtype):
        # ceil(n/2) is 65535 at n = 131070 and 65536 at n = 131071.
        assert gamma_batch_path(n, PackedWords.empty(n, 0)).dtype == dtype

    def test_uint16_reveal_keys(self):
        n, k = 60, 300
        keys = np.random.default_rng(6).integers(0, 2**16, size=(k, n), dtype=np.uint16)
        assert (keys[:, 1:] != keys[:, :-1]).all()  # no neighbour tie at this seed
        orders = np.argsort(keys, axis=1) + 1
        sizes = gamma_batch_path(n, _packed(_up_down_words(keys)))
        assert list(sizes) == [gamma(path(n), order) for order in orders.tolist()]

    @pytest.mark.parametrize("n", [1, 5, 33])
    def test_no_codes_give_no_sizes(self, n):
        words = PackedWords.empty(n, 0)
        assert len(words) == 0
        assert gamma_batch_path(n, words).tolist() == []

    @pytest.mark.parametrize("n", range(1, 13))
    def test_every_word_matches_the_boolean_rows(self, n):
        k = 2 ** (n - 1)  # word i has letter j as bit j of i
        rows = np.arange(k)[:, None] >> np.arange(n - 1) & 1
        words, reference = PackedWords.every_word(n), _packed(rows.astype(bool))
        assert len(words) == len(reference) == k

        def bits(packed):  # the first k bits of each row, padding dropped
            return np.unpackbits(packed.table, axis=1, count=k).tolist()

        assert bits(words) == bits(reference)

    def test_shape_validated(self):
        with pytest.raises(TypeError, match="takes a PackedWords, not an array"):
            gamma_batch_path(4, np.array([[True, False, True]]))
        with pytest.raises(ValueError, match=r"\(4, 1\)"):
            gamma_batch_path(4, PackedWords.empty(5, 3))
        with pytest.raises(ValueError, match="n must be positive"):
            gamma_batch_path(0, np.zeros((3, 0), dtype=bool))
        with pytest.raises(ValueError, match="n must be positive"):
            PackedWords.empty(0, 3)


@st.composite
def _order_with_word(draw, word):
    """Any order whose reveal times have the given up/down word: each new
    time is drawn by its rank among the times so far, above the last one's
    rank for an up letter, at or below it for a down letter."""
    ranks = [0]
    for k, up in enumerate(word, start=1):
        last = ranks[-1]
        new = draw(st.integers(last + 1, k) if up else st.integers(0, last))
        ranks = [r + (r >= new) for r in ranks] + [new]
    return [v for _, v in sorted(zip(ranks, range(1, len(ranks) + 1)))]


_orders_sharing_a_word = st.lists(st.booleans(), max_size=15).flatmap(
    lambda word: st.tuples(st.just(word), _order_with_word(word), _order_with_word(word))
)


class TestUpDownWord:
    @settings(max_examples=100, deadline=None)
    @given(_orders_sharing_a_word)
    def test_orders_with_one_word_give_one_final_set(self, case):
        word, first, second = case
        g = path(len(word) + 1)
        for order in (first, second):
            times = np.argsort(order)[None, :]
            assert _up_down_words(times).tolist() == [word]
        assert (run_online_domination(g, first).chosen_set
                == run_online_domination(g, second).chosen_set)


def _loop_census(graph):
    """The arbiter: final-set counts and per-size order lists from n! runs."""
    final_sets = Counter()
    by_size = {size: [] for size in range(graph.n + 1)}
    for perm in itertools.permutations(range(1, graph.n + 1)):
        outcome = run_online_domination(graph, perm)
        final_sets[outcome.chosen_set] += 1
        by_size[outcome.size].append(perm)
    return dict(final_sets), by_size


def _assert_engine_matches_loop(graph):
    final_sets, by_size = _loop_census(graph)
    assert final_set_counts(graph) == final_sets
    for size, orders in by_size.items():
        assert orders_with_size(graph, size) == orders


class TestExhaustiveEngine:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_loop_on_paths(self, n):
        _assert_engine_matches_loop(path(n))

    @settings(max_examples=60, deadline=None)
    @given(_explicit_graphs())
    def test_matches_loop_on_random_graphs(self, graph):
        _assert_engine_matches_loop(graph)

    def test_limit_keeps_the_first_orders(self):
        _, by_size = _loop_census(path(7))
        assert orders_with_size(path(7), 4, limit=5) == by_size[4][:5]
        assert orders_with_size(path(7), 4, limit=0) == []
        with pytest.raises(ValueError):
            orders_with_size(path(7), 4, limit=-1)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_final_sets_reachable_from_a_prefix_contain_its_chosen_set(self, data):
        # The invariant orders_with_size walks by: every completion of a prefix
        # ends in a final set holding the prefix's chosen set, and each such
        # final set is reached by some completion.
        graph = data.draw(_explicit_graphs())
        order = data.draw(st.permutations(graph.vertices))
        prefix = order[: data.draw(st.integers(0, graph.n))]
        chosen = run_online_domination(graph, order).chosen_set & set(prefix)
        reached = {
            run_online_domination(graph, [*prefix, *rest]).chosen_set
            for rest in itertools.permutations(order[len(prefix):])
        }
        assert reached == {s for s in final_set_counts(graph) if chosen <= s}


def _final_set_counts_by_revealed_sets(graph):
    """The reference: the engine keyed by (revealed, chosen) vertex bitmasks,
    one state per revealed subset of the dominated vertices (at most 3^n)."""
    masks = [sum(1 << (u - 1) for u in graph.adj[v]) for v in graph.vertices]
    layer = Counter({(0, 0): 1})
    for _ in graph.vertices:
        following = Counter()
        for (revealed, chosen), count in layer.items():
            for v in graph.vertices:
                bit = 1 << (v - 1)
                if not revealed & bit:
                    joins = not masks[v - 1] & chosen
                    following[revealed | bit, chosen | bit if joins else chosen] += count
        layer = following
    return {
        frozenset(v for v in graph.vertices if chosen >> (v - 1) & 1): count
        for (_, chosen), count in layer.items()
    }


class TestChosenSetEngine:
    @settings(max_examples=100, deadline=None)
    @given(_explicit_graphs(max_n=10))
    def test_matches_the_revealed_set_engine_on_random_graphs(self, graph):
        assert final_set_counts(graph) == _final_set_counts_by_revealed_sets(graph)

    @pytest.mark.parametrize(
        "graph",
        [pytest.param(path(n), id=f"path-{n}") for n in range(1, 12)]
        + [pytest.param(cycle(n), id=f"cycle-{n}") for n in range(3, 10)]
        + [pytest.param(star(k), id=f"star-{k + 1}") for k in range(1, 8)]
        + [pytest.param(wheel(k), id=f"wheel-{k + 1}") for k in range(3, 7)]
        + [pytest.param(complete_multipartite((4, 4)), id="complete_multipartite-8")],
    )
    def test_matches_the_revealed_set_engine_on_families(self, graph):
        counts = final_set_counts(graph)
        assert counts == _final_set_counts_by_revealed_sets(graph)
        assert sum(counts.values()) == math.factorial(graph.n)
