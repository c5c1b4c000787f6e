"""The one resource-guard policy.

Every guarded library function checks its size against a module constant
read when it is called, and `force=True` is the only way past it.
"""

import math

import pytest

from pathdom import domination, expectation, extremal, montecarlo, path, series
from pathdom.errors import DEFAULT_BRUTE_CAP, ResourceLimitError
from pathdom.montecarlo import SampleConfig

# (module, cap constant, size that the lowered cap refuses, call(size, force))
GUARDS = {
    "final_set_counts": (
        domination, "DEFAULT_BRUTE_CAP", 5,
        lambda n, force: domination.final_set_counts(path(n), force=force)),
    "orders_with_size": (
        domination, "DEFAULT_BRUTE_CAP", 5,
        lambda n, force: domination.orders_with_size(path(n), 2, force=force)),
    "path_census": (domination, "DEFAULT_BRUTE_CAP", 5,
                    lambda n, force: extremal.path_census(n, force=force)),
    "word_census": (extremal, "WORD_CENSUS_CAP", 5,
                    lambda n, force: extremal.word_census(n, force=force)),
    "every_word": (
        domination, "WORD_LIST_CAP", 5,
        lambda n, force: domination.gamma_batch_path(
            n, domination.PackedWords.every_word(n, force=force)).tolist()),
    "extremal_permutations": (
        domination, "DEFAULT_BRUTE_CAP", 5,
        lambda n, force: extremal.extremal_permutations(n, "worst", force=force)),
    "independent_dominating_sets_bruteforce": (
        extremal, "SUBSET_SEARCH_CAP", 5,
        lambda n, force: extremal.independent_dominating_sets_bruteforce(
            n, force=force)),
    "weakly_alternating_permutations": (
        extremal, "PERMUTATION_SCAN_CAP", 5,
        lambda n, force: extremal.weakly_alternating_permutations(n, force=force)),
    "count_no_even_local_maxima": (
        extremal, "EXACT_COUNT_CAP", 5,
        lambda n, force: extremal.count_no_even_local_maxima(n, force=force)),
    "count_weakly_alternating": (
        extremal, "EXACT_COUNT_CAP", 5,
        lambda n, force: extremal.count_weakly_alternating(n, force=force)),
    "weakly_alternating_counts": (
        extremal, "EXACT_COUNT_CAP", 5,
        lambda n, force: extremal.weakly_alternating_counts(n, force=force)),
    "best_case_count_formula": (
        extremal, "EXACT_COUNT_CAP", 6,
        lambda n, force: extremal.best_case_count_formula(n, force=force)),
    "bruteforce_expected_gamma": (
        domination, "DEFAULT_BRUTE_CAP", 5,
        lambda n, force: expectation.bruteforce_expected_gamma(path(n), force=force)),
    "worst_case_count_recurrence": (
        extremal, "EXACT_COUNT_CAP", 5,
        lambda n, force: extremal.worst_case_count_recurrence(n, force=force)),
    "extremal_counts": (
        extremal, "EXACT_COUNT_CAP", 5,
        lambda n, force: extremal.extremal_counts(n, "best", force=force)),
    "best_case_count_recurrence": (
        extremal, "EXACT_COUNT_CAP", 5,
        lambda n, force: extremal.worst_case_count_recurrence(n, "best", force=force)),
    "worst_case_counts_egf": (
        series, "EXACT_COUNT_CAP", 5,
        lambda n, force: series.worst_case_counts_egf(n, force=force)),
    "odd_configuration_counts_egf": (
        series, "EXACT_COUNT_CAP", 5,
        lambda n, force: series.odd_configuration_counts_egf(n, force=force)),
    "expected_gamma_path": (
        expectation, "EXACT_PATH_CAP", 5,
        lambda n, force: expectation.expected_gamma_path(n, force=force)),
    "expected_gamma_path_prefix": (
        expectation, "EXACT_PATH_CAP", 5,
        lambda n, force: expectation.expected_gamma_path_prefix(n, force=force)),
    "expected_gamma_path_closed_form": (
        expectation, "EXACT_PATH_CAP", 5,
        lambda n, force: expectation.expected_gamma_path_closed_form(n, force=force)),
    "sample_gamma": (
        montecarlo, "SAMPLE_BUDGET", 10 * montecarlo.CHUNK_SIZE,
        lambda cost, force: montecarlo.sample_gamma(
            SampleConfig(n=10, samples=cost // 10, seed=3, force=force))),
}


@pytest.mark.parametrize("name", GUARDS)
def test_module_cap_read_at_call_time_and_forced(name, monkeypatch):
    module, cap_name, size, call = GUARDS[name]
    expected = call(size, False)
    monkeypatch.setattr(module, cap_name, size - 1)
    with pytest.raises(ResourceLimitError, match="force"):
        call(size, False)
    assert call(size, True) == expected


def test_exhaustive_engine_guards_itself():
    graph = path(DEFAULT_BRUTE_CAP + 1)
    with pytest.raises(ResourceLimitError, match="force"):
        domination.final_set_counts(graph)
    with pytest.raises(ResourceLimitError, match="force"):
        domination.orders_with_size(graph, 6, limit=0)
    assert domination.orders_with_size(graph, 6, limit=0, force=True) == []
    counts = domination.final_set_counts(graph, force=True)
    assert sum(counts.values()) == math.factorial(graph.n)
