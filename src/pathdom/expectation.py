"""Exact expected dominating-set sizes, family by family.

Everything here is exact rational arithmetic unless a function name says
float.  The path expectation is computed two independent ways, each in
integers over a common denominator of n! with one reduction at the end:

* the recurrence on the first revealed vertex,
      E(n) = 1 + (2/n) * sum_{i=1}^{n-2} E(i),       E(n) = 0 for n <= 0,
  carried as F(m) = m! E(m) and Q(m) = m! sum_{i<=m} E(i), which obey
      F(m) = m! + 2(m-1) Q(m-2),    Q(m) = m Q(m-1) + F(m);
* a closed form extracted from the ordinary generating function,
      E(n) = -(1/2) * sum_{j=0}^{n} (n+1-j) (-2)^j / j!  +  (n+1)/2,
  whose sum, scaled by n!, is evaluated by Horner's rule in n steps of
  a small-integer multiply and a shift.

The two must agree exactly for every n, and both must match the brute
force average at small n; the cycle, star, wheel and complete
multipartite expectations reduce to the path case or to direct weighting,
and refuse a size their graphs builder refuses, with its message.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from .errors import EXACT_PATH_CAP, check_cap

if TYPE_CHECKING:
    from .graphs import Graph


def expected_gamma_path(n: int, *, force: bool = False) -> Fraction:
    """Expected dominating-set size on the n-vertex path, by recurrence.

    Returns 0 for n <= 0 (the empty-path convention used by the derived
    family formulas).
    """
    if n <= 0:
        return Fraction(0)
    check_cap(n, EXACT_PATH_CAP, force, "path expectation recurrence")
    for factorial, scaled in _scaled_path_recurrence(n):
        pass
    return Fraction(scaled, factorial)


def expected_gamma_path_prefix(n: int, *, force: bool = False) -> tuple[Fraction, ...]:
    """expected_gamma_path(m) for m = 0..n, from one pass of the recurrence."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    check_cap(n, EXACT_PATH_CAP, force, "path expectation recurrence")
    return tuple(Fraction(s, f) for f, s in _scaled_path_recurrence(n))


def _scaled_path_recurrence(n: int) -> Iterator[tuple[int, int]]:
    """Yield m! and F(m) = m! E(m) for m = 0..n, in integers."""
    # Running values at m = 0: m!, F(m), Q(m-1), Q(m).
    factorial, scaled, prefix_before, prefix = 1, 0, 0, 0
    yield factorial, scaled
    for m in range(1, n + 1):
        factorial *= m
        scaled = factorial + 2 * (m - 1) * prefix_before
        prefix_before, prefix = prefix, m * prefix + scaled
        yield factorial, scaled


def expected_gamma_path_closed_form(n: int, *, force: bool = False) -> Fraction:
    """Expected dominating-set size on the n-vertex path, by closed form.

    Evaluates the full alternating sum over a common denominator of n!,
    including its final j = n term.  Must equal expected_gamma_path(n)
    for every n >= 1.
    """
    if n < 1:
        raise ValueError("closed form requires n >= 1")
    check_cap(n, EXACT_PATH_CAP, force, "path expectation closed form")
    # Horner's rule: U_0 = n + 1 and U_j = j U_(j-1) + (n+1-j) (-2)^j give
    # U_n = sum_(j<=n) (n+1-j) (-2)^j n!/j!, so each step multiplies by a
    # small int and adds a shifted one; the last step is the j = n term.
    acc = n + 1
    for j in range(1, n + 1):
        term = (n + 1 - j) << j
        acc = j * acc + (-term if j % 2 else term)
    n_fact = math.factorial(n)
    return Fraction((n + 1) * n_fact - acc, 2 * n_fact)


def expected_gamma_path_float(n: int) -> float:
    """Floating-point recurrence evaluation; O(n), usable far past exact range."""
    if n <= 0:
        return 0.0
    if n <= 2:
        return 1.0
    prev, curr = 1.0, 1.0  # values at m-2 and m-1
    acc = 0.0  # sum of values 1 .. m-3
    for m in range(3, n + 1):
        acc += prev
        prev, curr = curr, 1.0 + 2.0 * acc / m
    return curr


def expected_gamma_limit() -> float:
    """Limit of expected_gamma_path(n)/n: (e^2 - 1) / (2 e^2) = 0.4323..."""
    return 0.5 - 0.5 * math.exp(-2.0)


def expected_gamma_cycle(n: int, *, force: bool = False) -> Fraction:
    """Cycle on n >= 3 vertices: the first pick always reduces to a path."""
    from .graphs import check_size  # here, so `expect --family path` never loads it
    check_size("cycle", n)
    return 1 + expected_gamma_path(n - 3, force=force)


def expected_gamma_star(leaves: int) -> Fraction:
    """Star with n >= 1 leaves: (n^2 + 1) / (n + 1).

    A first-revealed leaf forces every other leaf into the set; a
    first-revealed hub dominates everything.
    """
    from .graphs import check_size
    check_size("star", leaves)
    return Fraction(leaves * leaves + 1, leaves + 1)


def expected_gamma_wheel(
    spokes: int, as_printed: bool = False, *, force: bool = False
) -> Fraction:
    """Wheel with n >= 3 spokes.

    Default form: (1 + n * (1 + E(P_{n-3}))) / (n + 1), validated against
    brute force.  With as_printed=True, returns the uncorrected variant
    1/(n+1) + n/(n+1) * E(P_{n-3}), which omits the rim vertex that the
    first reveal always adds; it is kept only for side-by-side reporting
    and disagrees with brute force.
    """
    from .graphs import check_size
    check_size("wheel", spokes)
    rim_rest = expected_gamma_path(spokes - 3, force=force)
    if as_printed:
        return Fraction(1, spokes + 1) + Fraction(spokes, spokes + 1) * rim_rest
    return (1 + spokes * (1 + rim_rest)) / Fraction(spokes + 1)


def expected_gamma_complete_multipartite(part_sizes: Sequence[int]) -> Fraction:
    """Complete multipartite: the first pick's part must be taken entirely,
    so the answer is the size-weighted average (sum p_i^2) / (sum p_i)."""
    from .graphs import check_size
    check_size("complete_multipartite", part_sizes)
    return Fraction(sum(p * p for p in part_sizes), sum(part_sizes))


def caro_wei_bound(graph: Graph) -> Fraction:
    """Degree-based lower bound on the expected size: sum_v 1/(1 + deg v).

    Each vertex revealed before all of its neighbors necessarily enters
    the set, and that event has probability 1/(1 + deg v).  The graph's
    degree classes go through caro_wei_bound_from_degrees.
    """
    return caro_wei_bound_from_degrees(Counter(len(a) for a in graph.adj[1:]))


def caro_wei_bound_from_degrees(per_degree: Mapping[int, int]) -> Fraction:
    """The Caro-Wei bound from {degree: number of vertices}: vertices of one
    degree share a term, so the sum has one Fraction per degree, and
    graphs.degree_counts gives a family's classes without building it."""
    return sum(
        (Fraction(count, 1 + degree) for degree, count in per_degree.items()),
        start=Fraction(0),
    )


def bruteforce_expected_gamma(graph: Graph, *, force: bool = False) -> Fraction:
    """Average dominating-set size over all n! revelation orders, simulated.

    The independent oracle for every family formula above.
    """
    from .domination import final_set_counts  # here so `expect --family path` never loads it

    final_sets = final_set_counts(graph, force=force)
    total = sum(len(chosen) * count for chosen, count in final_sets.items())
    return Fraction(total, math.factorial(graph.n))
