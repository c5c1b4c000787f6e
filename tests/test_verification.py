"""The verification checks: each fails at the first case whose routes split."""

import pytest

from pathdom import expectation, extremal, series
from pathdom import verification as V
from pathdom.errors import DEFAULT_BRUTE_CAP


def test_passes_and_names_both_ranges():
    result = V.check_inverse_bijection(odd_max=7)
    assert result.passed, result.detail
    assert "odd n <= 7" in result.detail
    assert "n <= 60" in result.detail


def test_count_off_by_one_fails_at_its_n(monkeypatch):
    real = extremal.count_weakly_alternating
    monkeypatch.setattr(
        extremal, "count_weakly_alternating", lambda n, **kw: real(n, **kw) + (n == 5)
    )
    result = V.check_inverse_bijection(odd_max=7)
    assert not result.passed
    assert result.detail.startswith("n=5:")


def test_count_off_by_one_beyond_the_worst_range_fails(monkeypatch):
    real = extremal.count_no_even_local_maxima
    monkeypatch.setattr(
        extremal, "count_no_even_local_maxima", lambda n, **kw: real(n, **kw) - (n > 43)
    )
    result = V.check_inverse_bijection(odd_max=7)
    assert not result.passed
    assert result.detail.startswith("n=44:")


def test_identity_for_inverse_fails_at_its_n(monkeypatch):
    monkeypatch.setattr(extremal, "inverse", lambda perm: tuple(perm))
    result = V.check_inverse_bijection(odd_max=7)
    assert not result.passed
    assert result.detail.startswith("n=3:")


def _off_by_one_at(n):
    return lambda value, first: value + (first == n)


OFF_BY_ONE = [  # check, route's module and name, perturbation, start of the detail
    pytest.param(V.check_worst_case_counts, extremal, "worst_case_count_recurrence",
                 _off_by_one_at(6), "n=6:", id="worst-case recurrence"),
    pytest.param(V.check_best_case_counts, extremal, "best_case_count_formula",
                 _off_by_one_at(9), "n=9:", id="best-case formula"),
    pytest.param(V.check_expectation_oracle, expectation,
                 "expected_gamma_path_closed_form", _off_by_one_at(150), "n=150:",
                 id="closed-form expectation"),
    pytest.param(V.check_convolution, series, "odd_configuration_counts_egf",
                 lambda counts, _: tuple(c + (k == 7) for k, c in enumerate(counts)),
                 "n=7:", id="odd-configuration EGF"),
    pytest.param(V.check_family_formulas, expectation, "expected_gamma_cycle",
                 _off_by_one_at(5), "cycle n=5:", id="cycle formula"),
    pytest.param(V.check_caro_wei, expectation, "caro_wei_bound",
                 lambda bound, graph: bound + (graph.n == 50), "n=50:",
                 id="Caro-Wei bound"),
]


@pytest.mark.parametrize("check,module,route,perturb,where", OFF_BY_ONE)
def test_route_off_by_one_fails_at_its_case(monkeypatch, check, module, route,
                                            perturb, where):
    real = getattr(module, route)
    monkeypatch.setattr(
        module, route, lambda first, *a, **kw: perturb(real(first, *a, **kw), first)
    )
    result = check()
    assert not result.passed
    assert result.detail.startswith(where), result.detail


def test_reference_tables_cover_the_exhaustive_range():
    brute_range = list(range(1, DEFAULT_BRUTE_CAP + 1))
    assert list(V.WORST_CASE_COUNTS) == brute_range
    assert list(V.BEST_CASE_COUNTS) == brute_range


def test_depth_changes_only_the_bijection_listing_and_the_sample(monkeypatch):
    sizes = []

    def trimmed(**kwargs):  # the two costly checks only report the sizes they get
        sizes.append(kwargs)
        return V.CheckResult("trimmed", True, "")

    monkeypatch.setattr(V, "check_inverse_bijection", trimmed)
    monkeypatch.setattr(V, "check_montecarlo", trimmed)
    quick, full = V.run_verification("quick"), V.run_verification("full")
    assert [r.detail for r in quick] == [r.detail for r in full]
    assert sizes == [{"odd_max": 7}, {"n": 300, "samples": 5000},
                     {"odd_max": 9}, {"n": 2000, "samples": 40_000}]
