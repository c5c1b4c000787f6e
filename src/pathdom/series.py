"""Counting EGFs for the extremal orders on the path, in integer arithmetic.

Each EGF is held as its sequence of n!-scaled coefficients, so a count is
read off directly and all arithmetic stays in integers.  With
D = cosh x - x sinh x and u = sinh x / D:

* odd_configuration_counts_egf: the orders whose final set is exactly the
  odd vertices, O = (1 + sinh) / D, with odd part u and even part 1 / D;
* worst_case_counts_egf: the worst-case orders, W = u + 1 / D^2.

Scaled by k!, D has 1 - k at even k and 0 at odd k, and a product of EGFs
is the binomial convolution of their sequences, so D O = 1 + sinh gives
O_0 = 1 and O_k = [k odd] + sum_(even j>=2) C(k, j) (j-1) O_(k-j).  W is
linear in O by the t = 1 Riccati identity: D' = -x cosh and cosh = D + x sinh,
    u' = (cosh D + x sinh cosh) / D^2 = cosh^2 / D^2 = (1 + x u)^2,
    u' - u^2 = (cosh^2 - sinh^2) / D^2 = 1 / D^2,
    x^2 u^2 = u' - 1 - 2 x u,
so W = u + u' - u^2.  As u' and u^2 are even, W_n = O_n at odd n, and
    W_n = O_(n+1) - (O_(n+3) - 2(n+2) O_(n+1)) / ((n+1)(n+2))
at even n, where 1 / D^2 is the paper's convolution of odd-configuration
counts (check_convolution in verification sums it).  Each table is checked:
the division leaves no remainder, O_n >= 0 and W_n lies in [0, n!].
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


def _worst_from_odd_configuration(odd_config: Sequence[int]) -> list[int]:
    """W_n for n <= len(odd_config) - 4, read off O by W = u + u' - u^2."""
    worst = []
    for n, (o_n, o_n1, o_n3) in enumerate(zip(odd_config, odd_config[1:], odd_config[3:])):
        if n % 2:
            worst.append(o_n)
            continue
        u_squared, remainder = divmod(o_n3 - 2 * (n + 2) * o_n1, (n + 1) * (n + 2))
        if remainder:
            raise ConsistencyError(f"worst-case EGF: the identity leaves a remainder at n={n}")
        worst.append(o_n1 - u_squared)
    return worst


@functools.lru_cache(maxsize=1)
def _egf_counts(order: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """O and W for n = 0..order, from O built to order + 3 a Pascal row at a time."""
    odd_config = [1]
    row = [1]
    for k in range(1, order + 4):
        row = [1, *map(add, row, row[1:]), 1]
        terms = map(mul, range(1, k, 2), reversed(odd_config[k % 2::2]))  # (j-1) O_(k-j)
        odd_config.append(k % 2 + sum(map(mul, row[2::2], terms)))
    worst = _worst_from_odd_configuration(odd_config)
    _check_counts(odd_config, worst)  # through n = order, where worst ends
    return tuple(odd_config[:order + 1]), tuple(worst)


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
