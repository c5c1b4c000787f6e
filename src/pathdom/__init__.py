"""Online domination of path graphs and friends.

Reveal the vertices of a graph in a uniformly random order, adding each
revealed vertex to the dominating set exactly when it is not yet
dominated.  This package simulates that procedure, computes its expected
set size exactly for paths, cycles, stars, wheels and complete
multipartite graphs, enumerates and counts the permutations achieving
the worst and best possible sizes by several independent methods, and
samples the size distribution at scale with seeded determinism.
"""

import importlib

# Every public name and the module that defines it.  A name is imported on
# first access, so a command loads only the modules it runs.
_EXPORTS = {name: module for module, names in {
    "errors": "ConsistencyError ResourceLimitError",
    "graphs": "Graph complete_multipartite cycle explicit path star wheel",
    "domination": "DominationOutcome check_permutation final_set_counts gamma "
    "gamma_batch_path is_independent_dominating max_dominating_size min_dominating_size "
    "orders_with_size run_online_domination",
    "expectation": "bruteforce_expected_gamma caro_wei_bound "
    "expected_gamma_complete_multipartite expected_gamma_cycle expected_gamma_limit "
    "expected_gamma_path expected_gamma_path_closed_form expected_gamma_path_float "
    "expected_gamma_star expected_gamma_wheel",
    "extremal": "ExtremalReport PathCensus best_case_count_formula "
    "best_case_formula_applicable count_no_even_local_maxima count_weakly_alternating "
    "extremal_permutations extremal_size independent_dominating_sets_bruteforce "
    "maximal_independent_dominating_sets orders_per_word path_census set_first_order "
    "up_down_words weakly_alternating_permutations word_census "
    "worst_case_count_recurrence",
    "series": "DEFAULT_ORDER convolution_identity_holds odd_configuration_counts_egf "
    "worst_case_counts_egf",
    "montecarlo": "Histogram SampleConfig normalize sample_gamma",
}.items() for name in names.split()}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
