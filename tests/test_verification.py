"""The inverse-bijection check: images tested one by one, classes counted."""

import itertools

from pathdom import extremal
from pathdom import verification as V


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


def test_passes_without_any_permutation_scan(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the check must not scan all n! orders")

    monkeypatch.setattr(extremal, "weakly_alternating_permutations", unreachable)
    monkeypatch.setattr(itertools, "permutations", unreachable)
    result = V.check_inverse_bijection(odd_max=9)
    assert result.passed, result.detail
