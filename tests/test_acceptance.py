"""Acceptance gate.

Each test runs one cross-validation criterion at full strength and prints
its PASS/FAIL line (visible with pytest -s, or in the failure report).
Worst-case, best-case and odd-configuration counts are recounted
exhaustively through n = 11, the extremal counts also by up/down words
through n = 16.
"""

import itertools

from pathdom import extremal
from pathdom import verification as V


def _report(result: V.CheckResult) -> None:
    print(result.line())
    assert result.passed, result.detail


def test_criterion_01_worst_case_tables():
    _report(V.check_worst_case_counts())


def test_criterion_02_best_case_tables():
    _report(V.check_best_case_counts())


def test_criterion_03_expectation_oracle():
    _report(V.check_expectation_oracle())


def test_criterion_04_asymptotic_constant():
    _report(V.check_asymptotic_constant())


def test_criterion_05_family_formulas():
    _report(V.check_family_formulas())


def test_criterion_06_structural_sets():
    _report(V.check_structural_sets())


def test_criterion_07_inverse_bijection(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the check must not scan all n! orders")

    for name in ("weakly_alternating_permutations", "extremal_permutations"):
        monkeypatch.setattr(extremal, name, unreachable)
    monkeypatch.setattr(itertools, "permutations", unreachable)
    _report(V.check_inverse_bijection())


def test_criterion_08_convolution_identity():
    _report(V.check_convolution())


def test_criterion_09_monte_carlo():
    _report(V.check_montecarlo(n=2000, samples=40_000))


def test_criterion_10_caro_wei_bound():
    _report(V.check_caro_wei())
