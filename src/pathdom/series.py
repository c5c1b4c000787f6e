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

The even part and the square are 0 at odd k and the odd part at even k,
so no zero term is summed.  The counts are checked on the way out: an
odd-configuration count must be nonnegative, and a worst-case count must
lie in [0, n!] since it counts a subset of all n! orders.
"""

from __future__ import annotations

import math
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


_largest_table: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())


def _counts_through(order: int, force: bool) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """_egf_counts(order), sliced from the largest table built so far in the
    process, so a table is built only for an order above every earlier one."""
    global _largest_table
    if order < 0:
        raise ValueError("order must be nonnegative")
    check_cap(order, EXACT_COUNT_CAP, force, "EGF count table")
    if len(_largest_table[0]) <= order:
        _largest_table = _egf_counts(order)
    odd_config, worst = _largest_table
    return odd_config[: order + 1], worst[: order + 1]


def odd_configuration_counts_egf(order: int, *, force: bool = False) -> tuple[int, ...]:
    """Counts of orders selecting exactly the odd vertices, for n = 0..order."""
    return _counts_through(order, force)[0]


def worst_case_counts_egf(order: int, *, force: bool = False) -> tuple[int, ...]:
    """Worst-case order counts for n = 0..order, from the combined EGF."""
    return _counts_through(order, force)[1]


def convolution_identity_holds(n: int) -> bool:
    """Check the even-length worst-case convolution identity.

    A worst-case order of even length n splits over a gap position into
    two odd-configuration pieces:
        worst(n) = sum_{i=0}^{n/2} C(n, 2i) * odd_config(2i) * odd_config(n-2i).
    Returns False on mismatch instead of raising.
    """
    if n < 2 or n % 2:
        raise ValueError("the convolution identity is stated for even n >= 2")
    odd_config = odd_configuration_counts_egf(n)
    worst = worst_case_counts_egf(n)[n]
    convolved = sum(
        math.comb(n, 2 * i) * odd_config[2 * i] * odd_config[n - 2 * i]
        for i in range(n // 2 + 1)
    )
    return worst == convolved
