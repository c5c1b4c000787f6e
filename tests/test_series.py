"""Truncated-series engine and EGF count checks."""

import random
from fractions import Fraction

import pytest

from pathdom import (
    PowerSeries,
    convolution_identity_holds,
    cosh_series,
    odd_configuration_counts_egf,
    path_census,
    sinh_series,
    worst_case_counts_egf,
    worst_case_count_recurrence,
)
from pathdom.errors import ConsistencyError
from pathdom.series import _extract_counts
from pathdom.verification import WORST_CASE_COUNTS


class TestArithmetic:
    def test_mul(self):
        one_plus = PowerSeries([1, 1], order=2)
        one_minus = PowerSeries([1, -1], order=2)
        assert one_plus * one_minus == PowerSeries([1, 0, -1])

    def test_add(self):
        assert PowerSeries([0, 1], order=2) + PowerSeries([0, 0, 1]) == PowerSeries(
            [0, 1, 1]
        )

    def test_scalar_and_neg(self):
        s = PowerSeries([1, 2], order=1)
        assert 3 * s == PowerSeries([3, 6])
        assert -s == PowerSeries([-1, -2])

    def test_mixed_orders_truncate_to_min(self):
        a = PowerSeries([1, 1, 1, 1])
        b = PowerSeries([1, 1])
        assert (a * b).order == 1

    def test_sinh_squared_coefficient(self):
        sinh = sinh_series(4)
        assert (sinh * sinh)[2] == 1

    def test_getitem_bounds(self):
        with pytest.raises(IndexError):
            PowerSeries([1, 2])[5]


class TestReciprocal:
    def test_geometric_series(self):
        geom = PowerSeries([1, -1], order=6).reciprocal()
        assert geom == PowerSeries([1] * 7)

    def test_denominator_second_coefficient(self):
        order = 6
        denominator = cosh_series(order) - sinh_series(order).shifted()
        assert denominator[2] == Fraction(-1, 2)
        assert denominator[4] == Fraction(-1, 8)
        assert denominator.reciprocal()[2] == Fraction(1, 2)

    def test_involution(self):
        s = PowerSeries([1, 1, Fraction(1, 2)], order=8)
        assert s.reciprocal().reciprocal() == s

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ZeroDivisionError):
            PowerSeries([0, 1, 2]).reciprocal()

    def test_random_series_invert_to_one(self):
        rng = random.Random(20240907)
        one = PowerSeries([1], order=12)
        for _ in range(20):
            coeffs = [Fraction(rng.randint(1, 9))] + [
                Fraction(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(12)
            ]
            s = PowerSeries(coeffs)
            assert s * s.reciprocal() == one


class TestHyperbolicSeries:
    def test_cosh_coefficients(self):
        cosh = cosh_series(6)
        assert cosh[0] == 1
        assert cosh[1] == 0
        assert cosh[4] == Fraction(1, 24)

    def test_sinh_coefficients(self):
        sinh = sinh_series(6)
        assert sinh[0] == 0
        assert sinh[1] == 1
        assert sinh[3] == Fraction(1, 6)


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
        assert counts[n] == path_census(n).odd_configuration_count

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

    def test_integrality_guard_fires(self):
        with pytest.raises(ConsistencyError):
            _extract_counts(PowerSeries([Fraction(1, 3)], order=2), "doctored")
        with pytest.raises(ConsistencyError):
            _extract_counts(PowerSeries([-1], order=1), "doctored")


class TestConvolution:
    def test_small_even_lengths(self):
        assert convolution_identity_holds(2)
        assert convolution_identity_holds(4)  # 9 + 6 + 9 = 24
        assert convolution_identity_holds(10)

    @pytest.mark.parametrize("n", range(2, 41, 2))
    def test_holds_along_the_table(self, n):
        assert convolution_identity_holds(n, order=40)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            convolution_identity_holds(5)

    def test_too_small_order_rejected(self):
        with pytest.raises(ValueError):
            convolution_identity_holds(10, order=8)
