"""The verification checks: each fails at the first case whose routes split."""

import pytest

from pathdom import expectation, extremal, series
from pathdom import verification as V
from pathdom.errors import DEFAULT_BRUTE_CAP, WORD_CENSUS_CAP, WORD_LIST_CAP


def test_passes_and_names_both_ranges():
    result = V.check_inverse_bijection()
    assert result.passed, result.detail
    assert "odd n <= 19" in result.detail
    assert "n <= 60" in result.detail


def _perturbed_table(real, change):
    """A pattern-table route whose count at length m is moved by change(m)."""
    return lambda n, **kw: tuple(c + change(m) for m, c in enumerate(real(n, **kw)))


def test_count_off_by_one_fails_at_its_n(monkeypatch):
    monkeypatch.setattr(extremal, "weakly_alternating_counts", _perturbed_table(
        extremal.weakly_alternating_counts, lambda n: n == 5))
    result = V.check_inverse_bijection()
    assert not result.passed
    assert result.detail.startswith("n=5:")


def test_count_off_by_one_beyond_the_worst_range_fails(monkeypatch):
    monkeypatch.setattr(extremal, "no_even_local_maxima_counts", _perturbed_table(
        extremal.no_even_local_maxima_counts, lambda n: -(n > 43)))
    result = V.check_inverse_bijection()
    assert not result.passed
    assert result.detail.startswith("n=44:")


def test_size_flipped_on_one_word_fails_at_its_n(monkeypatch):
    real = V.gamma_batch_path

    def flipped(n, words):
        sizes = real(n, words)
        if n == 15:
            sizes[0] += 1  # the all-down word, a worst-case word, leaves the worst case
        return sizes

    monkeypatch.setattr(V, "gamma_batch_path", flipped)
    result = V.check_inverse_bijection()
    assert not result.passed
    assert result.detail.startswith("n=15:"), result.detail
    assert "inverse weakly alternating=1," in result.detail


def test_word_count_off_by_one_fails_at_its_n(monkeypatch):
    real = extremal.orders_per_word

    def off_by_one(words):
        counts = real(words)
        if words.shape[1] == 12:
            counts[-1] += 1
        return counts

    monkeypatch.setattr(extremal, "orders_per_word", off_by_one)
    result = V.check_inverse_bijection()
    assert not result.passed
    assert result.detail.startswith("n=13:"), result.detail


def _off_by_one_at(n):
    return lambda value, first: value + (first == n)


OFF_BY_ONE = [  # check, route's module and name, perturbation, start of the detail
    pytest.param(V.check_worst_case_counts, extremal, "worst_case_count_recurrence",
                 _off_by_one_at(6), "n=6:", id="worst-case recurrence"),
    pytest.param(V.check_best_case_counts, extremal, "best_case_count_formula",
                 _off_by_one_at(9), "n=9:", id="best-case formula"),
    pytest.param(V.check_worst_case_counts, extremal, "worst_case_count_recurrence",
                 _off_by_one_at(14), "n=14:", id="worst-case recurrence past brute"),
    pytest.param(V.check_best_case_counts, extremal, "best_case_count_formula",
                 _off_by_one_at(16), "n=16:", id="best-case formula past brute"),
    pytest.param(V.check_worst_case_counts, extremal, "word_census",
                 lambda sizes, n: sizes[:-1] + (sizes[-1] + (n == 8),), "n=8:",
                 id="word census beside brute"),
    pytest.param(V.check_best_case_counts, extremal, "word_census",
                 lambda sizes, n: tuple(c + (n == 13) for c in sizes), "n=13:",
                 id="word census past brute"),
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
    # the word census counts every table entry; the engine the first BRUTE_MAX
    assert list(V.WORST_CASE_COUNTS) == list(range(1, V.WORD_COUNT_MAX + 1))
    assert list(V.BEST_CASE_COUNTS) == list(V.WORST_CASE_COUNTS)
    assert V.BRUTE_MAX == DEFAULT_BRUTE_CAP < V.WORD_COUNT_MAX <= WORD_CENSUS_CAP
    assert V.BIJECTION_WORD_MAX <= WORD_LIST_CAP


def test_depth_changes_only_the_sample(monkeypatch):
    sizes = []

    def trimmed(**kwargs):  # the costly check only reports the sizes it gets
        sizes.append(kwargs)
        return V.CheckResult("trimmed", True, "")

    monkeypatch.setattr(V, "check_montecarlo", trimmed)
    quick, full = V.run_verification("quick"), V.run_verification("full")
    assert [r.detail for r in quick] == [r.detail for r in full]
    assert sizes == [{"n": 300, "samples": 5000}, {"n": 2000, "samples": 40_000}]


def test_each_census_is_computed_once(monkeypatch):
    calls = []
    for module, census in ((extremal, "path_census"), (extremal, "word_census"),
                           (expectation, "expected_gamma_path_prefix"),
                           (extremal, "weakly_alternating_counts"),
                           (extremal, "no_even_local_maxima_counts")):
        real = getattr(module, census)
        monkeypatch.setattr(
            module, census,
            lambda n, real=real, census=census: calls.append((census, n)) or real(n),
        )
    for check in (V.check_worst_case_counts, V.check_best_case_counts,
                  V.check_expectation_oracle, V.check_convolution,
                  V.check_inverse_bijection, V.check_caro_wei):
        assert check().passed
    assert sorted(calls) == sorted(
        [("path_census", n) for n in range(1, V.BRUTE_MAX + 1)]
        + [("word_census", n) for n in range(1, V.WORD_COUNT_MAX + 1)]
        + [("expected_gamma_path_prefix", 200), ("weakly_alternating_counts", 60),
           ("no_even_local_maxima_counts", 60)]
    )


def test_convolution_check_builds_the_egf_table_once(monkeypatch):
    builds = []
    real = series._egf_counts
    monkeypatch.setattr(series, "_largest_table", ((), ()))
    monkeypatch.setattr(
        series, "_egf_counts", lambda order: builds.append(order) or real(order)
    )
    assert V.check_convolution().passed
    assert builds == [60]
