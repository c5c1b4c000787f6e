"""The verification checks: each fails at the first case whose routes split."""

import os
from fractions import Fraction

import pytest

from pathdom import expectation, extremal, montecarlo, series
from pathdom import verification as V
from pathdom.errors import DEFAULT_BRUTE_CAP, WORD_CENSUS_CAP, WORD_LIST_CAP

from test_montecarlo import _counting_forks, _reaped, _set_cores


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
    monkeypatch.setattr(extremal, "weakly_alternating_counts", _perturbed_table(
        extremal.weakly_alternating_counts, lambda n: -(n > 43)))
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


def test_predicate_flipped_on_one_word_fails_at_its_n(monkeypatch):
    real = extremal.every_even_vertex_has

    def flipped(letters):
        holds = real(letters)
        if len(letters) == 12:
            holds[0] ^= 0x80  # the first word, in its packed byte
        return holds

    monkeypatch.setattr(extremal, "every_even_vertex_has", flipped)
    result = V.check_inverse_bijection()
    assert not result.passed
    assert result.detail.startswith("n=13:"), result.detail


def _off_by_one_at(n):
    return lambda value, first: value + (first == n)


def _entry_off_by_one_at(n):
    """A prefix-table route whose entry at n is one more."""
    return lambda counts, _: tuple(c + (m == n) for m, c in enumerate(counts))


def _one_order_up_at(n, size):
    """A census route that moves one order at n from `size` to `size + 1`:
    the total and, for a middle size, both extreme counts stay as they were."""
    def moved(counts, first):
        if first != n:
            return counts
        return counts[:size] + (counts[size] - 1, counts[size + 1] + 1) + counts[size + 2:]
    return moved


OFF_BY_ONE = [  # check, route's module and name, perturbation, start of the detail
    pytest.param(V.check_worst_case_counts, extremal, "extremal_counts",
                 _entry_off_by_one_at(6), "n=6:", id="worst-case recurrence"),
    pytest.param(V.check_best_case_counts, extremal, "best_case_count_formula",
                 _off_by_one_at(9), "n=9:", id="best-case formula"),
    pytest.param(V.check_worst_case_counts, extremal, "extremal_counts",
                 _entry_off_by_one_at(14), "n=14:", id="worst-case recurrence past brute"),
    pytest.param(V.check_best_case_counts, extremal, "best_case_count_formula",
                 _off_by_one_at(16), "n=16:", id="best-case formula past brute"),
    pytest.param(V.check_best_case_counts, extremal, "extremal_counts",
                 _entry_off_by_one_at(7), "n=7:", id="best-case recurrence with formula"),
    pytest.param(V.check_best_case_counts, extremal, "best_case_count_formula",
                 _off_by_one_at(4), "n=4:", id="best-case formula at n=4"),
    pytest.param(V.check_best_case_counts, extremal, "best_case_count_formula",
                 _off_by_one_at(40), "n=40:", id="best-case formula past the table"),
    pytest.param(V.check_worst_case_counts, extremal, "word_census",
                 lambda sizes, n: sizes[:-1] + (sizes[-1] + (n == 8),), "n=8:",
                 id="word census beside brute"),
    pytest.param(V.check_best_case_counts, extremal, "word_census",
                 lambda sizes, n: tuple(c + (n == 13) for c in sizes), "n=13:",
                 id="word census past brute"),
    pytest.param(V.check_inverse_bijection, extremal, "word_census",
                 lambda sizes, n: sizes[:-1] + (sizes[-1] + (n == 17),), "n=17:",
                 id="worst-case orders by words past the count table"),
    pytest.param(V.check_expectation_oracle, expectation,
                 "expected_gamma_path_closed_form", _off_by_one_at(150), "n=150:",
                 id="closed-form expectation"),
    pytest.param(V.check_expectation_oracle, extremal, "path_census",
                 _one_order_up_at(9, 3), "n=9:", id="brute average"),
    pytest.param(V.check_expectation_oracle, extremal, "word_census",
                 _one_order_up_at(15, 6), "n=15:", id="word-census average past brute"),
    pytest.param(V.check_convolution, V, "final_set_counts",
                 lambda sets, graph: {s: c + (graph.n == 5) for s, c in sets.items()},
                 "n=5:", id="brute odd-configuration count"),
    pytest.param(V.check_convolution, extremal, "extremal_counts",
                 _entry_off_by_one_at(40), "n=40:", id="worst-case recurrence beside the EGF"),
    pytest.param(V.check_convolution, series, "odd_configuration_counts_egf",
                 lambda counts, _: tuple(c + (k == 7) for k, c in enumerate(counts)),
                 "n=7:", id="odd-configuration EGF"),
    pytest.param(V.check_convolution, series, "worst_case_counts_egf",
                 _entry_off_by_one_at(40), "n=40:", id="worst-case EGF beside the convolution"),
    pytest.param(V.check_convolution, series, "odd_configuration_counts_egf",
                 _entry_off_by_one_at(10), "n=10:", id="odd-configuration EGF in the convolution"),
    pytest.param(V.check_convolution, series, "odd_configuration_counts_egf",
                 _entry_off_by_one_at(20), "n=20:",
                 id="odd-configuration EGF in the convolution past brute"),
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
    assert V.BIJECTION_WORD_MAX <= WORD_CENSUS_CAP


class _Undrawn:
    """Stands in for a started sample: nothing is drawn or forked."""

    def __init__(self, config):
        self.config = config

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass


def test_depth_changes_only_the_sample(monkeypatch):
    sizes = []

    def trimmed(sample):  # the costly check only reports the draw it gets
        sizes.append(sample.config)
        return V.CheckResult("trimmed", True, "")

    monkeypatch.setattr(V, "check_montecarlo", trimmed)
    monkeypatch.setattr(montecarlo, "start_sample", _Undrawn)
    quick, full = V.run_verification("quick"), V.run_verification("full")
    assert [r.detail for r in quick] == [r.detail for r in full]
    workers = os.cpu_count() or 1
    assert sizes == [
        montecarlo.SampleConfig(n, samples, V.MONTE_CARLO_SEED, workers)
        for n, samples in [(300, 5000), (2000, 40_000)]
    ]


@pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
def test_a_check_raising_while_the_sample_runs_reaps_its_children(monkeypatch, exc):
    def raises():
        raise exc("check broke")

    pids = _counting_forks(monkeypatch)
    _set_cores(monkeypatch, 2)
    monkeypatch.setattr(V, "check_convolution", raises)
    with pytest.raises(exc, match="check broke"):
        V.run_verification("full")
    assert len(pids) == 1 and _reaped(pids[0])


def test_each_census_is_computed_once(monkeypatch):
    series._egf_counts.cache_clear()
    calls = []
    for module, census in ((extremal, "path_census"), (extremal, "word_census"),
                           (expectation, "expected_gamma_path_prefix"),
                           (extremal, "weakly_alternating_counts"),
                           (extremal, "extremal_counts"),
                           (extremal, "worst_case_count_recurrence")):
        real = getattr(module, census)
        monkeypatch.setattr(
            module, census,
            lambda *args, real=real, census=census: calls.append((census, *args)) or real(*args),
        )
    assert all(result.passed for result in V.run_verification("quick"))
    assert sorted(calls) == sorted(
        [("path_census", n) for n in range(1, V.BRUTE_MAX + 1)]
        + [("word_census", n) for n in range(1, V.WORD_COUNT_MAX + 1)]
        + [("word_census", 17), ("word_census", 19)]
        + [("expected_gamma_path_prefix", 200), ("weakly_alternating_counts", 60)]
        + [("extremal_counts", 60, "worst"), ("extremal_counts", 60, "best")]
    )
    assert series._egf_counts.cache_info().misses == 1


def test_each_census_is_looked_up_in_extremal_when_a_check_runs(monkeypatch):
    called = set()
    for census in ("path_census", "word_census"):
        real = getattr(extremal, census)
        monkeypatch.setattr(
            extremal, census,
            lambda n, real=real, census=census: called.add(census) or real(n),
        )
    assert V.check_worst_case_counts().passed
    assert V.check_expectation_oracle().passed
    assert called == {"path_census", "word_census"}


def test_expectation_oracle_names_both_census_averages():
    result = V.check_expectation_oracle()
    assert result.passed, result.detail
    assert result.detail == (
        "recurrence = brute average (n<=11) = word-census average (n<=16) "
        "= closed form (n<=200)"
    )


def test_convolution_check_builds_the_egf_table_once():
    series._egf_counts.cache_clear()
    assert V.check_convolution().passed
    series._egf_counts(60)  # the table kept is the one at order 60
    assert series._egf_counts.cache_info().misses == 1


def test_expectation_moved_past_its_tail_bound_fails_at_its_n(monkeypatch):
    # the bound at n = 60 is 2^62/62!, about 1.5e-67
    real = expectation.expected_gamma_path_prefix

    def shifted(n, **kwargs):
        values = list(real(n, **kwargs))
        values[60] += Fraction(1, 10**9)
        return tuple(values)

    monkeypatch.setattr(expectation, "expected_gamma_path_prefix", shifted)
    result = V.check_asymptotic_constant()
    assert not result.passed
    assert result.detail.startswith("n=60:")


def test_float_recurrence_off_the_form_fails(monkeypatch):
    real = expectation.expected_gamma_path_float
    monkeypatch.setattr(expectation, "expected_gamma_path_float",
                        lambda n: real(n) * (1 + 1e-11))
    result = V.check_asymptotic_constant()
    assert not result.passed
    assert result.detail.startswith("float E(10000)")


def test_asymptotic_check_passes_and_names_its_range():
    result = V.check_asymptotic_constant()
    assert result.passed, result.detail
    assert "2^(n+2)/(n+2)! for n<=200" in result.detail
