"""Integer EGF sequences and count checks."""

import math
import random

import pytest

from pathdom import (
    extremal,
    final_set_counts,
    odd_configuration_counts_egf,
    path,
    worst_case_counts_egf,
    worst_case_count_recurrence,
)
from pathdom.errors import EXACT_COUNT_CAP, ConsistencyError, ResourceLimitError
from pathdom.series import _check_counts, _worst_from_odd_configuration
from pathdom.verification import WORST_CASE_COUNTS

# Generic arithmetic on n!-scaled EGF sequences: binomial convolution and
# reciprocal, summing every term.  It uses no parity, so it is a route to the
# counts independent of the one-pass recurrences in pathdom.series.


def _binomial_rows(count):
    row = [1]
    for _ in range(count):
        yield row
        row = [1, *map(int.__add__, row, row[1:]), 1]


def _egf_product(a, b):
    """Scaled coefficients of A(x) B(x), up to the shorter of the two orders."""
    return [
        sum(c * x * y for c, x, y in zip(row, a, b[k::-1]))
        for k, row in enumerate(_binomial_rows(min(len(a), len(b))))
    ]


def _egf_reciprocal(a):
    """Scaled coefficients of 1 / A(x); integral when the constant term is 1 or -1."""
    if a[0] not in (1, -1):
        raise ValueError("an integer reciprocal needs a constant term of 1 or -1")
    out = []
    for k, row in enumerate(_binomial_rows(len(a))):
        acc = sum(c * x * y for c, x, y in zip(row[1:], a[1:], out[::-1]))
        out.append(a[0] * ((k == 0) - acc))
    return out


# n!-scaled coefficients of sinh and cosh up to x^8.
SINH = [k % 2 for k in range(9)]
COSH = [1 - k % 2 for k in range(9)]


class TestArithmetic:
    def test_mul(self):
        # (1 + x)(1 - x) = 1 - x^2, and 2! * (-1) = -2
        assert _egf_product([1, 1, 0], [1, -1, 0]) == [1, 0, -2]

    def test_mixed_orders_truncate_to_min(self):
        assert len(_egf_product([1, 1, 1, 1], [1, 1])) == 2

    def test_sinh_squared_coefficient(self):
        # sinh(x)^2 = x^2 + ..., scaled by 2!
        assert _egf_product(SINH, SINH)[2] == 2

    def test_exponentials_multiply(self):
        # e^x * e^x = e^(2x): the binomial convolution gives 2^k
        assert _egf_product([1] * 9, [1] * 9) == [2**k for k in range(9)]


class TestReciprocal:
    def test_geometric_series(self):
        # 1 / (1 - x) = sum x^k, so its n!-scaled coefficients are k!
        geom = _egf_reciprocal([1, -1, 0, 0, 0, 0, 0])
        assert geom == [math.factorial(k) for k in range(7)]

    def test_denominator_second_coefficient(self):
        # cosh(x) - x sinh(x), scaled: multiplying by x sends a_(k-1) to k a_(k-1)
        denominator = [COSH[k] - k * SINH[k - 1] if k else COSH[0] for k in range(9)]
        assert denominator == [0 if k % 2 else 1 - k for k in range(9)]
        assert denominator[2] == -1  # 2! * (-1/2)
        assert denominator[4] == -3  # 4! * (-1/8)
        assert _egf_reciprocal(denominator)[2] == 1  # 2! * (1/2)

    def test_involution(self):
        s = [1, 1, 1, 3, -2, 0, 5, 7, 1]
        assert _egf_reciprocal(_egf_reciprocal(s)) == s

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ValueError):
            _egf_reciprocal([0, 1, 2])

    def test_non_unit_constant_term_rejected(self):
        with pytest.raises(ValueError):
            _egf_reciprocal([2, 1, 2])

    def test_random_series_invert_to_one(self):
        rng = random.Random(20240907)
        one = [1] + [0] * 12
        for _ in range(20):
            s = [rng.choice((1, -1))] + [rng.randint(-9, 9) for _ in range(12)]
            assert _egf_product(s, _egf_reciprocal(s)) == one


class TestIntegerRecurrences:
    """The EGF sequences written out as the recurrences they solve."""

    ORDER = 120

    def test_even_part_recurrence(self):
        # e_0 = 1, e_k = sum over even j >= 2 of C(k, j) (j - 1) e_(k-j), 0 at odd k
        even = [1]
        for k in range(1, self.ORDER + 1):
            even.append(
                sum(math.comb(k, j) * (j - 1) * even[k - j] for j in range(2, k + 1, 2))
            )
        odd_config = odd_configuration_counts_egf(self.ORDER)
        for k in range(0, self.ORDER + 1, 2):
            assert odd_config[k] == even[k]
        assert all(even[k] == 0 for k in range(1, self.ORDER + 1, 2))

    def test_reciprocal_and_products(self):
        # even = 1 / D, odd = sinh * even; odd_config = odd + even, worst = odd + even^2
        denominator = [0 if k % 2 else 1 - k for k in range(self.ORDER + 1)]
        even = _egf_reciprocal(denominator)
        odd = _egf_product([k % 2 for k in range(self.ORDER + 1)], even)
        odd_config = [o + e for o, e in zip(odd, even)]
        worst = [o + s for o, s in zip(odd, _egf_product(even, even))]
        assert list(odd_configuration_counts_egf(self.ORDER)) == odd_config
        assert list(worst_case_counts_egf(self.ORDER)) == worst

    def test_odd_part_and_square(self):
        odd_config = odd_configuration_counts_egf(self.ORDER)
        even = [c if k % 2 == 0 else 0 for k, c in enumerate(odd_config)]
        worst = worst_case_counts_egf(self.ORDER)
        for k in range(self.ORDER + 1):
            odd = sum(math.comb(k, j) * even[k - j] for j in range(1, k + 1, 2))
            square = sum(math.comb(k, j) * even[j] * even[k - j] for j in range(k + 1))
            assert odd == (odd_config[k] if k % 2 else 0)
            assert worst[k] == odd + square
            assert square == 0 or k % 2 == 0


class TestCounts:
    def test_odd_configuration_small(self):
        counts = odd_configuration_counts_egf(8)
        assert counts[0] == 1
        assert counts[1] == 1
        assert counts[2] == 1
        assert counts[3] == 4
        assert counts[4] == 9

    @pytest.mark.parametrize("n", range(1, 9))
    def test_odd_configuration_matches_bruteforce(self, n):
        counts = odd_configuration_counts_egf(8)
        assert counts[n] == final_set_counts(path(n))[extremal.odd_vertex_set(n)]

    def test_worst_case_small(self):
        counts = worst_case_counts_egf(8)
        assert counts[1] == 1
        assert counts[4] == 24
        assert counts[7] == 1632

    @pytest.mark.parametrize("n", range(1, 12))
    def test_worst_case_reference(self, n):
        assert worst_case_counts_egf(12)[n] == WORST_CASE_COUNTS[n]

    def test_worst_case_matches_recurrence_far_out(self):
        counts = worst_case_counts_egf(60)
        for n in range(61):
            assert counts[n] == worst_case_count_recurrence(n)

    def test_matches_recurrence_through_order_200(self):
        counts = worst_case_counts_egf(200)
        assert list(counts) == [worst_case_count_recurrence(n) for n in range(201)]

    def test_matches_recurrence_at_order_400(self):
        # The order and n the exact benchmark cross-checks the two routes at.
        assert worst_case_counts_egf(400)[400] == worst_case_count_recurrence(400)

    def test_guard_accepts_the_real_counts(self):
        _check_counts(odd_configuration_counts_egf(12), worst_case_counts_egf(12))

    def test_negative_count_guard_fires(self):
        with pytest.raises(ConsistencyError, match="n=2"):
            _check_counts([1, 1, -1], [1, 1, 1])

    def test_worst_count_above_factorial_guard_fires(self):
        # 3 orders of length 2 cannot exist: there are only 2! = 2
        with pytest.raises(ConsistencyError, match="n=2"):
            _check_counts([1, 1, 1], [1, 1, 3])
        with pytest.raises(ConsistencyError, match="n=1"):
            _check_counts([1, 1, 1], [1, -1, 1])

    @pytest.mark.parametrize("k", [5, 11, 41, 63])
    def test_identity_guard_fires_at_the_first_even_n_reading_an_odd_entry(self, k):
        # O_k at odd k enters W_n first as O_(n+3), at n = k - 3, whose
        # divisor (n+1)(n+2) >= 6 leaves a remainder of 1
        odd_config = [c + (j == k) for j, c in enumerate(odd_configuration_counts_egf(63))]
        with pytest.raises(ConsistencyError, match=rf"remainder at n={k - 3}$"):
            _worst_from_odd_configuration(odd_config)

    def test_order_cap(self):
        with pytest.raises(ResourceLimitError, match="force"):
            worst_case_counts_egf(EXACT_COUNT_CAP + 1)
        with pytest.raises(ResourceLimitError, match="force"):
            odd_configuration_counts_egf(EXACT_COUNT_CAP + 1)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            worst_case_counts_egf(-1)


class TestConvolution:
    """The paper's identity at even n, summed as the paper states it: a
    worst-case order splits over its gap into two odd-configuration pieces,
        worst(n) = sum_{i=0}^{n/2} C(n, 2i) odd_config(2i) odd_config(n-2i),
    with no use of the symmetry that pathdom.series halves the sum by.
    verification.check_convolution holds it along the table, at every even
    n <= 60; here it is held to hand values."""

    @staticmethod
    def _convolved(n):
        odd_config = odd_configuration_counts_egf(n)
        return sum(
            math.comb(n, 2 * i) * odd_config[2 * i] * odd_config[n - 2 * i]
            for i in range(n // 2 + 1)
        )

    def test_small_even_lengths(self):
        assert self._convolved(4) == 9 + 6 + 9 == 24
        assert [self._convolved(n) for n in (2, 10)] == [2, 2251008]
