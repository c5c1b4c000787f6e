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
their sequences, c_k = sum_j C(k, j) a_j b_(k-j), and the reciprocal of
one with constant term 1 follows from e_k = -sum_(j>=1) C(k, j) a_j e_(k-j);
zero coefficients are skipped, so the odd/even structure halves the work.
The counts are checked on the way out: an odd-configuration count must be
nonnegative, and a worst-case count must lie in [0, n!] since it counts a
subset of all n! orders.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import EXACT_COUNT_CAP, ConsistencyError, check_cap

DEFAULT_ORDER = 64


def _binomial_rows(count: int) -> Iterator[list[int]]:
    """Rows 0 .. count-1 of Pascal's triangle, each built from the last."""
    row = [1]
    for _ in range(count):
        yield row
        row = [1, *map(int.__add__, row, row[1:]), 1]


def _egf_product(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Scaled coefficients of A(x) B(x), up to the shorter of the two orders."""
    return [
        sum(c * x * y for c, x, y in zip(row, a, b[k::-1]) if x and y)
        for k, row in enumerate(_binomial_rows(min(len(a), len(b))))
    ]


def _egf_reciprocal(a: Sequence[int]) -> list[int]:
    """Scaled coefficients of 1 / A(x), to the same order.

    The result is integral exactly when the constant term is 1 or -1,
    which is its own inverse.
    """
    if a[0] not in (1, -1):
        raise ValueError("an integer reciprocal needs a constant term of 1 or -1")
    out: list[int] = []
    for k, row in enumerate(_binomial_rows(len(a))):
        acc = sum(c * x * y for c, x, y in zip(row[1:], a[1:], out[::-1]) if x and y)
        out.append(a[0] * ((k == 0) - acc))
    return out


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


@lru_cache(maxsize=None)
def _egf_counts(order: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Odd-configuration and worst-case counts for n = 0..order."""
    denominator = [0 if k % 2 else 1 - k for k in range(order + 1)]
    sinh = [k % 2 for k in range(order + 1)]
    even_part = _egf_reciprocal(denominator)
    odd_part = _egf_product(sinh, even_part)
    # The parts are genuinely odd/even sequences, so their sum separates.
    odd_config = [o + e for o, e in zip(odd_part, even_part)]
    worst = [o + s for o, s in zip(odd_part, _egf_product(even_part, even_part))]
    _check_counts(odd_config, worst)
    return tuple(odd_config), tuple(worst)


def _check_order(order: int, force: bool) -> None:
    if order < 0:
        raise ValueError("order must be nonnegative")
    check_cap(order, EXACT_COUNT_CAP, force, "EGF count table")


def odd_configuration_counts_egf(order: int, *, force: bool = False) -> tuple[int, ...]:
    """Counts of orders selecting exactly the odd vertices, for n = 0..order."""
    _check_order(order, force)
    return _egf_counts(order)[0]


def worst_case_counts_egf(order: int, *, force: bool = False) -> tuple[int, ...]:
    """Worst-case order counts for n = 0..order, from the combined EGF."""
    _check_order(order, force)
    return _egf_counts(order)[1]


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
