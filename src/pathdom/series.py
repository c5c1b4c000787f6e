"""Counting EGFs for the extremal orders on the path, in integer arithmetic.

Every exponential generating function here is held as its sequence of
n!-scaled coefficients, so a count is read off directly and all
arithmetic stays in integers.  With D(x) = cosh(x) - x sinh(x):

* odd_configuration_counts_egf: the number of orders whose final set is
  exactly the odd vertices, with odd part sinh(x) / D(x) and even part
  1 / D(x);
* worst_case_counts_egf: the number of worst-case orders, whose EGF is
  the odd part above plus the square of the even part.

Scaled by k!, D has coefficient 1 - k at even k and 0 at odd k, and sinh
has 1 at odd k.  The product of two EGFs is the binomial convolution of
their sequences, c_k = sum_j C(k, j) a_j b_(k-j), so the three sequences
solve integer recurrences, all computed in one pass over k:

* the even part 1 / D: e_0 = 1, e_k = sum_(even j>=2) C(k, j) (j-1) e_(k-j);
* the odd part sinh / D: sum_(odd j) C(k, j) e_(k-j);
* the square of the even part: sum_j C(k, j) e_j e_(k-j).

At even k the square is the paper's convolution of odd-configuration
counts over where a worst-case order splits into two pieces.  The even
part and the square are 0 at odd k and the odd part at even k, so no
zero term is summed.  The counts are checked on the way out: an
odd-configuration count must be nonnegative, and a worst-case count must
lie in [0, n!] since it counts a subset of all n! orders.
"""

from __future__ import annotations

import functools
from operator import add, mul
from typing import Sequence

from .errors import EXACT_COUNT_CAP, ConsistencyError, check_cap

DEFAULT_ORDER = 64


def _check_counts(odd_config: Sequence[int], worst: Sequence[int]) -> None:
    factorial = 1
    for n, (odd_count, worst_count) in enumerate(zip(odd_config, worst)):
        if n:
            factorial *= n
        if odd_count < 0:
            raise ConsistencyError(f"odd-configuration EGF: count at n={n} is negative")
        if not 0 <= worst_count <= factorial:
            raise ConsistencyError(
                f"worst-case EGF: count at n={n} lies outside [0, n!]"
            )


@functools.lru_cache(maxsize=1)
def _egf_counts(order: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Odd-configuration and worst-case counts for n = 0..order, in one pass.

    Row k of Pascal's triangle is built from row k - 1, and only the terms
    of the parity that can be nonzero are summed.
    """
    even = [1]  # e_0, e_2, e_4, ...: the even part, which is 0 at odd k
    odd_config, worst = [1], [1]
    row = [1]
    for k in range(1, order + 1):
        row = [1, *map(add, row, row[1:]), 1]
        if k % 2:
            # The odd part, sum over odd j of C(k, j) e_(k-j).
            odd = sum(map(mul, row[1::2], reversed(even)))
            odd_config.append(odd)
            worst.append(odd)
            continue
        # e_k = sum over even j >= 2 of C(k, j) (j - 1) e_(k-j).
        even.append(sum(map(mul, row[2::2], map(mul, range(1, k, 2), reversed(even)))))
        # The square, sum over even j of C(k, j) e_j e_(k-j), whose terms at
        # j and k - j are equal: twice those with j < k/2, plus the middle
        # term j = k/2 when k/2 is even.
        half = k // 2
        square = 2 * sum(map(mul, row[:half:2], map(mul, even, reversed(even))))
        if half % 2 == 0:
            square += row[half] * even[half // 2] ** 2
        odd_config.append(even[-1])
        worst.append(square)
    _check_counts(odd_config, worst)
    return tuple(odd_config), tuple(worst)


def _counts_through(order: int, force: bool) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """_egf_counts(order) after the order and cap checks; the last table
    built is kept, so asking for both columns at one order builds one."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    check_cap(order, EXACT_COUNT_CAP, force, "EGF count table")
    return _egf_counts(order)


def odd_configuration_counts_egf(order: int, *, force: bool = False) -> tuple[int, ...]:
    """Counts of orders selecting exactly the odd vertices, for n = 0..order."""
    return _counts_through(order, force)[0]


def worst_case_counts_egf(order: int, *, force: bool = False) -> tuple[int, ...]:
    """Worst-case order counts for n = 0..order, from the combined EGF."""
    return _counts_through(order, force)[1]
