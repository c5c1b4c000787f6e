"""Cross-validation harness.

Every quantity the package can compute more than one way is recomputed by
every route and compared here: exhaustive simulation and the up/down-word
census against recurrences, closed formulas and generating functions,
exact expectations against brute-force averages, and the sampler against
exact distributions.  The paper's bijections between permutation classes
are checked as equalities of up/down-word sets through extremal's word
predicate, so that check lists no order.  An equality check is a table of
`(where, {route: value})` cases that `_agree` fails at the first case whose
routes split.  Sizes are fixed (exhaustive ranges are those of the
reference tables) except for the Monte Carlo sample.  Each census, the
expectation prefix and the two pattern tables are computed once per
process, each in one pass to its largest n.  The CLI `verify` subcommand
runs these checks, as does the acceptance test suite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from . import expectation, extremal, graphs, montecarlo, series
from .domination import (
    gamma_batch_path,
    max_dominating_size,
    min_dominating_size,
    run_online_domination,
)
from .errors import DEFAULT_BRUTE_CAP

# Reference counts for extremal orders on the path, 1 <= n <= 16.  Each
# entry is recomputed here by independent routes (exhaustive simulation
# through BRUTE_MAX, the up/down-word census, recurrence / closed formula,
# generating function); a disagreement with any route fails the
# corresponding check.
WORST_CASE_COUNTS = {
    1: 1, 2: 2, 3: 4, 4: 24, 5: 56, 6: 640, 7: 1632, 8: 30464, 9: 81664,
    10: 2251008, 11: 6241280, 12: 238222336, 13: 676506624, 14: 34141233152,
    15: 98709925888, 16: 6363055718400,
}
BEST_CASE_COUNTS = {
    1: 1, 2: 2, 3: 2, 4: 24, 5: 64, 6: 80, 7: 3408, 8: 9856, 9: 13440,
    10: 1377792, 11: 4139520, 12: 5913600, 13: 1191370752, 14: 3659335680,
    15: 5381376000, 16: 1878991994880,
}
BRUTE_MAX = DEFAULT_BRUTE_CAP  # the exhaustive engine counts through this n
WORD_COUNT_MAX = max(WORST_CASE_COUNTS)  # the word census counts through this n
BIJECTION_WORD_MAX = 19  # the bijections are checked on the words of odd n <= this

Case = tuple[str, dict]  # (where, {route: value})

MONTE_CARLO_SEED = 271828


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


def _agree(name: str, cases: Iterable[Case], detail: str) -> CheckResult:
    """Pass with `detail` when every case's routes give one value; otherwise
    fail at the first case that splits, listing each route's value."""
    for where, routes in cases:
        first, *rest = routes.values()
        if any(value != first for value in rest):
            shown = ", ".join(f"{route}={value}" for route, value in routes.items())
            return CheckResult(name, False, f"{where}: {shown}")
    return CheckResult(name, True, detail)


@functools.cache
def _tally(census: Callable, n: int):
    return census(n)


def _path_census(n: int) -> extremal.PathCensus:
    """extremal.path_census(n), computed once per process."""
    return _tally(extremal.path_census, n)


def _word_census(n: int) -> tuple[int, ...]:
    """extremal.word_census(n), computed once per process."""
    return _tally(extremal.word_census, n)


def _census_routes(n: int, size: int) -> dict:
    """Orders of size `size` by the word census, and by the exhaustive engine
    where it runs."""
    routes = {"words": _word_census(n)[size]}
    if n <= BRUTE_MAX:
        routes = {"brute": _path_census(n).size_counts[size], **routes}
    return routes


def check_worst_case_counts() -> CheckResult:
    """Word census == recurrence == EGF == reference for n <= 16, and the
    exhaustive count agrees through n = 11."""
    egf = series.worst_case_counts_egf(WORD_COUNT_MAX)
    cases = (
        (f"n={n}", {
            **_census_routes(n, max_dominating_size(n)),
            "recurrence": extremal.worst_case_count_recurrence(n),
            "egf": egf[n],
            "reference": reference,
        })
        for n, reference in WORST_CASE_COUNTS.items()
    )
    return _agree(
        "worst-case-counts", cases,
        f"brute(n<={BRUTE_MAX}) = words = recurrence = EGF = reference "
        f"(n<={WORD_COUNT_MAX})",
    )


def check_best_case_counts() -> CheckResult:
    """Word census == reference for n <= 16, the exhaustive count through
    n = 11, and closed formulas where applicable."""
    formula_ns = [
        n for n in BEST_CASE_COUNTS if extremal.best_case_formula_applicable(n)
    ]

    def cases() -> Iterator[Case]:
        for n, reference in BEST_CASE_COUNTS.items():
            routes = {
                **_census_routes(n, min_dominating_size(n)),
                "reference": reference,
            }
            if n in formula_ns:
                routes["formula"] = extremal.best_case_count_formula(n)
            yield f"n={n}", routes

    return _agree(
        "best-case-counts", cases(),
        f"brute(n<={BRUTE_MAX}) = words = reference (n<={WORD_COUNT_MAX}); "
        f"formula agrees on n in {formula_ns}",
    )


def check_expectation_oracle() -> CheckResult:
    """Recurrence expectation == brute-force average == closed form (exact)."""
    closed_max = 200
    recurrence = _tally(expectation.expected_gamma_path_prefix, closed_max)

    def cases() -> Iterator[Case]:
        for n in range(1, closed_max + 1):
            routes = {
                "recurrence": recurrence[n],
                "closed form": expectation.expected_gamma_path_closed_form(n),
            }
            if n <= BRUTE_MAX:
                routes["brute"] = _path_census(n).expectation
            yield f"n={n}", routes

    return _agree(
        "expectation-oracle", cases(),
        f"recurrence = brute average (n<={BRUTE_MAX}) and "
        f"= closed form (n<={closed_max})",
    )


def check_asymptotic_constant() -> CheckResult:
    """Per-vertex expectation approaches (e^2 - 1)/(2 e^2) = 0.4323..."""
    name = "asymptotic-constant"
    n_large, tol = 10_000, 1e-3
    limit = expectation.expected_gamma_limit()
    gap = abs(expectation.expected_gamma_path_float(n_large) / n_large - limit)
    if gap >= tol:
        return CheckResult(
            name, False, f"|E(n)/n - limit| = {gap:.2e} at n={n_large}, tolerance {tol}"
        )
    cases = [
        ("limit", {"computed": limit, "(1 - e^-2)/2": 0.5 - 0.5 * math.exp(-2.0)}),
        ("leading digits", {"computed": f"{limit:.10f}"[:6], "expected": "0.4323"}),
    ]
    return _agree(
        name, cases,
        f"limit=0.4323..., |E({n_large})/{n_large} - limit| = {gap:.2e} < {tol}",
    )


def _partitions(total: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    if total == 0:
        yield ()
        return
    top = min(total, max_part if max_part is not None else total)
    for part in range(top, 0, -1):
        for rest in _partitions(total - part, part):
            yield (part,) + rest


def check_family_formulas() -> CheckResult:
    """Each family formula equals the brute-force average, exactly.

    The wheel formula as printed in the paper must differ from it at every
    tested size.
    """
    brute = expectation.bruteforce_expected_gamma
    spokes_range = range(3, 7)
    multipartite = [  # a single part has no edges
        parts for total in range(2, 9) for parts in _partitions(total) if len(parts) > 1
    ]

    def cases() -> Iterator[Case]:
        for n in range(3, 10):
            yield f"cycle n={n}", {
                "formula": expectation.expected_gamma_cycle(n),
                "brute": brute(graphs.cycle(n)),
            }
        for leaves in range(1, 8):
            yield f"star leaves={leaves}", {
                "formula": expectation.expected_gamma_star(leaves),
                "brute": brute(graphs.star(leaves)),
            }
        for spokes in spokes_range:
            average = brute(graphs.wheel(spokes))
            printed = expectation.expected_gamma_wheel(spokes, as_printed=True)
            yield f"wheel spokes={spokes}", {
                "corrected": expectation.expected_gamma_wheel(spokes),
                "brute": average,
            }
            yield f"wheel spokes={spokes}", {
                "as printed = brute": printed == average, "expected": False,
            }
        for parts in multipartite:
            yield f"multipartite {parts}", {
                "formula": expectation.expected_gamma_complete_multipartite(parts),
                "brute": brute(graphs.complete_multipartite(parts)),
            }

    return _agree(
        "family-formulas", cases(),
        f"cycle(3..9), star(1..7), wheel(3..6) and {len(multipartite)} multipartite "
        f"instances match brute force; uncorrected wheel form diverges at every "
        f"tested size {list(spokes_range)}",
    )


def check_structural_sets() -> CheckResult:
    """Maximal independent dominating sets: construction == exhaustive search."""
    subset_max, realization_max = 14, 12

    def cases() -> Iterator[Case]:
        for n in range(1, subset_max + 1):
            constructed = set(extremal.maximal_independent_dominating_sets(n))
            searched = extremal.independent_dominating_sets_bruteforce(
                n, size=max_dominating_size(n)
            )
            expected_count = n // 2 + 1 if n % 2 == 0 else 1
            yield f"n={n}", {"sets": len(constructed), "expected": expected_count}
            yield f"n={n}", {"constructed": constructed, "searched": set(searched)}
        for n in range(1, realization_max + 1):
            graph = graphs.path(n)
            for vertex_set in extremal.maximal_independent_dominating_sets(n):
                order = extremal.set_first_order(vertex_set, n)
                yield f"n={n}, order {order}", {
                    "set": sorted(vertex_set),
                    "realized": sorted(run_online_domination(graph, order).chosen_set),
                }
        yield "n=3", {
            "worst-case orders": set(extremal.extremal_permutations(3, "worst")),
            "expected": {(1, 2, 3), (1, 3, 2), (3, 1, 2), (3, 2, 1)},
        }

    return _agree(
        "structural-sets", cases(),
        f"counts and families match exhaustive search (n<={subset_max}), all "
        f"sets realized (n<={realization_max}), length-3 worst set exact",
    )


def check_inverse_bijection() -> CheckResult:
    """Worst-case orders map onto weakly alternating ones by inversion (odd n).

    The inverse of an order is its reveal times, so being worst-case and
    having a weakly alternating inverse both depend on the up/down word
    only, and complementation flips every letter.  Each bijection is thus an
    equality of word sets, tested by extremal.every_even_vertex_has on every
    word of every odd n <= 19; the rank recursion over the worst-case words
    counts the orders behind them.
    """
    import numpy as np

    name = "inverse-bijection"
    count_max = 60
    odd_config = series.odd_configuration_counts_egf(count_max)
    alternating_counts = _tally(extremal.weakly_alternating_counts, count_max)
    no_even_maximum_counts = _tally(extremal.no_even_local_maxima_counts, count_max)

    def cases() -> Iterator[Case]:
        for n in range(1, BIJECTION_WORD_MAX + 1, 2):
            words = extremal.up_down_words(n)
            worst = gamma_batch_path(n, words) == max_dominating_size(n)
            alternating = extremal.every_even_vertex_has(words, earlier=True)
            no_even_maximum = extremal.every_even_vertex_has(~words, earlier=False)
            yield f"n={n}", {
                "words: worst-case != inverse weakly alternating":
                    int(np.count_nonzero(worst != alternating)),
                "words: weakly alternating != complement without even maximum":
                    int(np.count_nonzero(alternating != no_even_maximum)),
                "expected": 0,
            }
            yield f"n={n}", {
                "worst-case words": int(np.count_nonzero(worst)),
                "3^((n-1)/2)": 3 ** (n // 2),
            }
            yield f"n={n}", {
                "worst-case orders by words":
                    int(extremal.orders_per_word(words[worst]).sum()),
                "weakly alternating": alternating_counts[n],
            }
        for n in range(1, count_max + 1):
            yield f"n={n}", {
                "weakly alternating": alternating_counts[n],
                "without even local maxima": no_even_maximum_counts[n],
                "odd-configuration EGF": odd_config[n],
            }

    return _agree(
        name, cases(),
        f"inversion and complementation bijections verified on every up/down "
        f"word of odd n <= {BIJECTION_WORD_MAX}; both pattern counts = "
        f"odd-configuration EGF for n <= {count_max}",
    )


def check_convolution() -> CheckResult:
    """EGF convolution identity (even n) and odd-configuration counts vs brute force."""
    even_max = 60
    odd_config = series.odd_configuration_counts_egf(even_max)

    def cases() -> Iterator[Case]:
        for n in range(2, even_max + 1, 2):
            yield f"n={n}", {
                "worst-case EGF = convolution": series.convolution_identity_holds(n),
                "expected": True,
            }
        for n in range(1, BRUTE_MAX + 1):
            census = _path_census(n)
            yield f"n={n}", {
                "brute odd-config count": census.odd_configuration_count,
                "egf": odd_config[n],
            }

    return _agree(
        "convolution-identity", cases(),
        f"identity holds for even n <= {even_max}; EGF counts match brute "
        f"force for n <= {BRUTE_MAX}",
    )


def check_montecarlo(n: int = 2000, samples: int = 40_000) -> CheckResult:
    """Support bounds and mean convergence."""
    name = "monte-carlo"
    hist = montecarlo.sample_gamma(
        montecarlo.SampleConfig(n=n, samples=samples, seed=MONTE_CARLO_SEED)
    )
    lo, hi = min_dominating_size(n), max_dominating_size(n)
    if hist.min_gamma < lo or hist.max_gamma > hi:
        return CheckResult(
            name, False,
            f"support [{hist.min_gamma}, {hist.max_gamma}] outside [{lo}, {hi}]",
        )
    bound = 5 * hist.std_dev / math.sqrt(samples)
    gap = abs(hist.mean - expectation.expected_gamma_path_float(n))
    if gap > bound:
        return CheckResult(
            name, False,
            f"|sample mean - exact mean| = {gap:.4f} exceeds 5 SE = {bound:.4f}",
        )
    return CheckResult(
        name, True,
        f"n={n}, samples={samples}: support in [{lo}, {hi}], "
        f"|mean - exact| = {gap:.4f} <= {bound:.4f}",
    )


def check_caro_wei() -> CheckResult:
    """Degree bound equals (n+1)/3 on paths (n >= 2) and stays below the expectation."""
    max_n = 200
    expectations = _tally(expectation.expected_gamma_path_prefix, max_n)

    def cases() -> Iterator[Case]:
        for n in range(1, max_n + 1):
            third = Fraction(n + 1, 3)
            yield f"n={n}", {
                "bound": expectation.caro_wei_bound(graphs.path(n)),
                "expected": third if n > 1 else 1,
            }
            yield f"n={n}", {
                "expectation >= (n+1)/3": expectations[n] >= third,
                "expected": True,
            }

    return _agree(
        "caro-wei", cases(),
        f"bound = (n+1)/3 for 2 <= n <= {max_n} (path(1) gives 1) and "
        f"expectation >= (n+1)/3 for n <= {max_n}",
    )


def run_verification(depth: str = "quick") -> list[CheckResult]:
    """Run every check; quick depth trims only the Monte Carlo sample."""
    if depth not in ("quick", "full"):
        raise ValueError("depth must be 'quick' or 'full'")
    quick = depth == "quick"
    return [
        check_worst_case_counts(),
        check_best_case_counts(),
        check_expectation_oracle(),
        check_asymptotic_constant(),
        check_family_formulas(),
        check_structural_sets(),
        check_inverse_bijection(),
        check_convolution(),
        check_montecarlo(n=300 if quick else 2000, samples=5000 if quick else 40_000),
        check_caro_wei(),
    ]
