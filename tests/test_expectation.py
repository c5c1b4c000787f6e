"""Exact expectation checks.

The recurrence is the arbiter: it must match the brute-force average
exactly at small n, the closed form exactly everywhere it is compared,
and every derived family formula must match its own brute force.  Frozen
small values below were computed by exhaustive simulation.
"""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pathdom import (
    bruteforce_expected_gamma,
    caro_wei_bound,
    complete_multipartite,
    cycle,
    expected_gamma_complete_multipartite,
    expected_gamma_cycle,
    expected_gamma_limit,
    expected_gamma_path,
    expected_gamma_path_closed_form,
    expected_gamma_path_float,
    expected_gamma_star,
    expected_gamma_wheel,
    explicit,
    path,
    star,
    wheel,
)
from pathdom.errors import EXACT_PATH_CAP, ResourceLimitError
from pathdom.expectation import caro_wei_bound_from_degrees, expected_gamma_path_prefix
from pathdom.graphs import degree_counts


class TestPathRecurrence:
    @pytest.mark.parametrize(
        "n,value",
        [
            (1, Fraction(1)),
            (2, Fraction(1)),
            (3, Fraction(5, 3)),  # brute force: average over all 6 orders
            (4, Fraction(2)),  # brute force: average over all 24 orders
            (5, Fraction(37, 15)),
            (7, Fraction(349, 105)),
        ],
    )
    def test_small_values(self, n, value):
        assert expected_gamma_path(n) == value

    def test_empty_path_convention(self):
        assert expected_gamma_path(0) == 0
        assert expected_gamma_path(-3) == 0

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_bruteforce_average(self, n):
        assert expected_gamma_path(n) == bruteforce_expected_gamma(path(n))

    def test_prefix_holds_every_value_of_one_pass(self):
        assert expected_gamma_path_prefix(0) == (0,)
        assert expected_gamma_path_prefix(60) == tuple(
            expected_gamma_path(m) for m in range(61)
        )
        with pytest.raises(ValueError, match="nonnegative"):
            expected_gamma_path_prefix(-1)

    def test_table_invariants(self):
        assert expected_gamma_path(1) == 1
        for n in range(1, 40):
            prefix = sum(expected_gamma_path(i) for i in range(1, n - 1))
            assert expected_gamma_path(n) == 1 + Fraction(2, n) * prefix


class TestClosedForm:
    @pytest.mark.parametrize(
        "n,value", [(1, Fraction(1)), (3, Fraction(5, 3)), (4, Fraction(2))]
    )
    def test_small_values(self, n, value):
        assert expected_gamma_path_closed_form(n) == value

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            expected_gamma_path_closed_form(0)

    # 4000 is the size the exact benchmark runs both routes at.
    @pytest.mark.parametrize("n", list(range(1, 30)) + [64, 100, 4000])
    def test_equals_recurrence(self, n):
        assert expected_gamma_path_closed_form(n) == expected_gamma_path(n)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=3000))
    def test_equals_recurrence_at_random_n(self, n):
        assert expected_gamma_path_closed_form(n) == expected_gamma_path(n)

    def test_float_track_agrees(self):
        for n in (10, 100, 500):
            exact = float(expected_gamma_path_closed_form(n))
            assert abs(expected_gamma_path_float(n) - exact) < 1e-8


class TestAsymptotics:
    @pytest.mark.parametrize("n", range(4, 16))
    def test_two_constant_form_within_its_factorial_tail(self, n):
        # E(n) = ((n+1) - (n+3)e^-2)/2 + r_n, |r_n| <= 2^(n+1)/(n+2)!; moving
        # either constant by one moves the form by 1/2 or e^-2/2, past the tail
        tail = 2 ** (n + 1) / math.factorial(n + 2) + 1e-12
        value = float(expected_gamma_path(n))
        e2 = math.exp(-2)
        assert abs(value - ((n + 1) - (n + 3) * e2) / 2) <= tail
        assert abs(value - (n - (n + 3) * e2) / 2) > tail
        assert abs(value - ((n + 1) - (n + 2) * e2) / 2) > tail

    @pytest.mark.parametrize("n", [100, 1000, 10_000])
    def test_per_vertex_gap_is_its_first_order_term(self, n):
        # E(n)/n - (1 - e^-2)/2 = (1 - 3e^-2)/(2n) up to the factorial tail
        gap = expected_gamma_path_float(n) / n - expected_gamma_limit()
        assert n * gap == pytest.approx((1 - 3 * math.exp(-2)) / 2, rel=1e-9)

    def test_four_place_prefix(self):
        assert f"{expected_gamma_limit():.10f}".startswith("0.4323")

    def test_per_vertex_convergence(self):
        n = 10_000
        gap = abs(expected_gamma_path_float(n) / n - expected_gamma_limit())
        assert gap < 1e-3


class TestFamilies:
    @pytest.mark.parametrize(
        "n,value",
        [(3, Fraction(1)), (4, Fraction(2)), (5, Fraction(2)), (6, Fraction(8, 3))],
    )
    def test_cycle_values(self, n, value):
        # 4 and 6 confirmed by brute force over 24 and 720 orders
        assert expected_gamma_cycle(n) == value

    def test_cycle_rejects_small(self):
        with pytest.raises(ValueError):
            expected_gamma_cycle(2)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_cycle_matches_bruteforce(self, n):
        assert expected_gamma_cycle(n) == bruteforce_expected_gamma(cycle(n))

    @pytest.mark.parametrize(
        "leaves,value", [(1, Fraction(1)), (2, Fraction(5, 3)), (3, Fraction(5, 2))]
    )
    def test_star_values(self, leaves, value):
        assert expected_gamma_star(leaves) == value

    def test_star_two_leaves_is_three_path(self):
        assert expected_gamma_star(2) == expected_gamma_path(3)

    @pytest.mark.parametrize("leaves", range(1, 6))
    def test_star_matches_bruteforce(self, leaves):
        assert expected_gamma_star(leaves) == bruteforce_expected_gamma(star(leaves))

    def test_star_rejects_zero_leaves(self):
        with pytest.raises(ValueError):
            expected_gamma_star(0)

    @pytest.mark.parametrize(
        "spokes,value", [(3, Fraction(1)), (4, Fraction(9, 5)), (5, Fraction(11, 6))]
    )
    def test_wheel_values(self, spokes, value):
        # brute force over 24, 120 and 720 orders respectively
        assert expected_gamma_wheel(spokes) == value

    @pytest.mark.parametrize("spokes", range(3, 7))
    def test_wheel_matches_bruteforce_and_printed_form_does_not(self, spokes):
        brute = bruteforce_expected_gamma(wheel(spokes))
        assert expected_gamma_wheel(spokes) == brute
        assert expected_gamma_wheel(spokes, as_printed=True) != brute

    def test_wheel_printed_variant_value(self):
        assert expected_gamma_wheel(3, as_printed=True) == Fraction(1, 4)

    def test_wheel_rejects_small(self):
        with pytest.raises(ValueError):
            expected_gamma_wheel(2)

    @pytest.mark.parametrize(
        "parts,value",
        [([1, 1], Fraction(1)), ([2, 2], Fraction(2)), ([1, 3], Fraction(5, 2))],
    )
    def test_multipartite_values(self, parts, value):
        assert expected_gamma_complete_multipartite(parts) == value

    def test_multipartite_cross_family_identities(self):
        assert expected_gamma_complete_multipartite([2, 2]) == expected_gamma_cycle(4)
        assert expected_gamma_complete_multipartite([1, 3]) == expected_gamma_star(3)

    @pytest.mark.parametrize("parts", [[2, 3], [1, 1, 2], [2, 2, 2], [1, 2, 4]])
    def test_multipartite_matches_bruteforce(self, parts):
        assert expected_gamma_complete_multipartite(
            parts
        ) == bruteforce_expected_gamma(complete_multipartite(parts))

    def test_multipartite_rejects_bad_parts(self):
        with pytest.raises(ValueError):
            expected_gamma_complete_multipartite([])
        with pytest.raises(ValueError):
            expected_gamma_complete_multipartite([2, 0])

    @pytest.mark.parametrize("formula, build, size", [
        (expected_gamma_cycle, cycle, 2), (expected_gamma_star, star, 0),
        (expected_gamma_wheel, wheel, 2),
        (expected_gamma_complete_multipartite, complete_multipartite, []),
        (expected_gamma_complete_multipartite, complete_multipartite, [2, 0]),
    ])
    def test_formulas_refuse_with_the_builders_message(self, formula, build, size):
        with pytest.raises(ValueError) as built:
            build(size)
        with pytest.raises(ValueError) as refused:
            formula(size)
        assert str(refused.value) == str(built.value)

    def test_bruteforce_cap(self):
        with pytest.raises(ResourceLimitError):
            bruteforce_expected_gamma(path(12))

    @pytest.mark.parametrize(
        "route", [expected_gamma_path, expected_gamma_path_closed_form]
    )
    def test_path_size_cap(self, route):
        with pytest.raises(ResourceLimitError, match="force"):
            route(EXACT_PATH_CAP + 1)

    def test_cycle_and_wheel_inherit_the_path_cap(self):
        with pytest.raises(ResourceLimitError):
            expected_gamma_cycle(EXACT_PATH_CAP + 4)
        with pytest.raises(ResourceLimitError):
            expected_gamma_wheel(EXACT_PATH_CAP + 4)


class TestCaroWei:
    def test_examples(self):
        assert caro_wei_bound(path(3)) == Fraction(4, 3)
        assert caro_wei_bound(path(1)) == 1
        assert caro_wei_bound(cycle(5)) == Fraction(5, 3)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5))
    def test_equals_the_sum_over_vertices(self, parts):
        # Parts of several sizes give several degree classes.
        for g in (complete_multipartite(parts), star(sum(parts)), wheel(sum(parts) + 2)):
            per_vertex = sum(Fraction(1, 1 + len(g.adj[v])) for v in g.vertices)
            assert caro_wei_bound(g) == per_vertex

    @pytest.mark.parametrize("n", range(2, 50))
    def test_path_formula(self, n):
        assert caro_wei_bound(path(n)) == Fraction(n + 1, 3)

    @pytest.mark.parametrize("family, build, sizes", [
        ("path", path, range(1, 9)),
        ("cycle", cycle, range(3, 9)),
        ("star", star, range(1, 9)),
        ("wheel", wheel, range(3, 9)),
        ("complete_multipartite", complete_multipartite,
         [[1], [3], [1, 1], [2, 3], [1, 2, 2], [4, 1, 3, 1]]),
        ("explicit", lambda size: explicit(*size),  # duplicates, both orientations, isolated
         [(1, []), (3, [(1, 2), (2, 1)]), (4, [(1, 2), (2, 3), (3, 1), (1, 2)]),
          (6, [(2, 5), (5, 2), (6, 1), (1, 2), (2, 6)])]),
    ])
    def test_degree_classes_are_those_of_the_graph(self, family, build, sizes):
        for size in sizes:
            g = build(size)
            counts = degree_counts(family, size)
            assert counts == Counter(len(g.adj[v]) for v in g.vertices)
            assert caro_wei_bound_from_degrees(counts) == caro_wei_bound(g)

    @pytest.mark.parametrize("family, build, size", [
        ("path", path, 0), ("cycle", cycle, 2), ("star", star, 0), ("wheel", wheel, 2),
        ("complete_multipartite", complete_multipartite, []),
        ("complete_multipartite", complete_multipartite, [2, 0]),
    ])
    def test_degree_classes_refuse_what_the_builder_refuses(self, family, build, size):
        with pytest.raises(ValueError) as built:
            build(size)
        with pytest.raises(ValueError, match=str(built.value)):
            degree_counts(family, size)

    def test_explicit_graphs_have_no_degree_classes(self):
        with pytest.raises(ValueError, match="without its edges"):
            degree_counts("explicit", 3)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_explicit_degree_classes_give_the_built_graphs_bound(self, data):
        n = data.draw(st.integers(min_value=1, max_value=30))
        vertex = st.integers(min_value=1, max_value=n)
        edges = [(u, v) for u, v in data.draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
                 if u != v]
        # Every edge again, reversed, and a few more times as drawn.
        edges += [(v, u) for u, v in edges] + edges[: data.draw(st.integers(0, 3))]
        g = explicit(n, edges)
        counts = degree_counts("explicit", (n, edges))
        assert counts == Counter(len(g.adj[v]) for v in g.vertices)
        assert caro_wei_bound_from_degrees(counts) == caro_wei_bound(g)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_a_bad_explicit_edge_is_refused_alike_by_both_routes(self, data):
        n = data.draw(st.integers(min_value=1, max_value=30))
        vertex = st.integers(min_value=-1, max_value=n + 2)
        edges = data.draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=8))
        assume(any(u == v or not (1 <= u <= n and 1 <= v <= n) for u, v in edges))
        with pytest.raises(ValueError) as built:
            explicit(n, edges)
        with pytest.raises(ValueError) as counted:
            degree_counts("explicit", (n, edges))
        assert str(counted.value) == str(built.value)

    @pytest.mark.parametrize("n", range(1, 50))
    def test_expectation_respects_bound(self, n):
        assert expected_gamma_path(n) >= Fraction(n + 1, 3)


def test_expectation_sandwich():
    for n in range(1, 201):
        value = expected_gamma_path(n)
        assert (n + 2) // 3 <= value <= (n + 1) // 2
