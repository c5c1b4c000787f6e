"""Cross-validation harness.

Every quantity the package can compute more than one way is recomputed by
every route and compared here: exhaustive simulation and the up/down-word
census against recurrences, closed formulas and generating functions,
exact expectations against both censuses' averages, and the sampler against
exact distributions.  The paper's inversion bijection is checked as an
equality of up/down-word sets through extremal's word predicate, so that
check lists no order.  An equality check is a table of
`(where, {route: value})` cases that `_agree` fails at the first case whose
routes split.  Sizes are fixed (exhaustive ranges are those of the
reference tables) except for the Monte Carlo sample.  Each census, the
expectation prefix, the pattern table, the count-recurrence table of each
bound and the EGF table are computed once per process, each in one pass to
its largest n.  The CLI `verify` subcommand runs these checks, as does the
acceptance test suite.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from . import expectation, extremal, graphs, montecarlo, series
from .domination import (
    PackedWords,
    final_set_counts,
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
BIJECTION_WORD_MAX = 19  # inversion is checked on the words of odd n <= this
EXPECTATION_MAX = 200  # the exact expectation prefix is read through this n
COUNT_TABLE_MAX = 60  # the EGF, pattern and recurrence count tables are read through this n

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
def _tally(census: Callable, n: int, *args):
    """census(n, *args), computed once per process."""
    return census(n, *args)


def _census_routes(n: int, read: Callable[[tuple[int, ...]], object]) -> dict:
    """read(counts) for each census of orders per set size that runs at n:
    the exhaustive engine through BRUTE_MAX, the word census through
    WORD_COUNT_MAX.  The table is built at each call, so a census replaced
    in extremal after import is the one that runs."""
    censuses = (
        ("brute", extremal.path_census, BRUTE_MAX),
        ("words", extremal.word_census, WORD_COUNT_MAX),
    )
    return {route: read(_tally(census, n)) for route, census, top in censuses if n <= top}


def _count_rows(kind: str, references: dict[int, int], own: dict[int, dict]) -> Iterator[Case]:
    """One case per n of `references` or of `own`, in order: the orders at the
    `kind` bound by each census, by the recurrence, by the bound's own routes
    own[n] and by the reference table, each where it reaches n."""
    recurrence = _tally(extremal.extremal_counts, COUNT_TABLE_MAX, kind)
    for n in sorted(references.keys() | own.keys()):
        yield f"n={n}", {
            **_census_routes(n, operator.itemgetter(extremal.extremal_size(n, kind))),
            "recurrence": recurrence[n],
            **own.get(n, {}),
            **({"reference": references[n]} if n in references else {}),
        }


def check_worst_case_counts() -> CheckResult:
    """Word census == recurrence == EGF == reference for n <= 16, and the
    exhaustive count agrees through n = 11."""
    egf = series.worst_case_counts_egf(COUNT_TABLE_MAX)
    return _agree(
        "worst-case-counts",
        _count_rows("worst", WORST_CASE_COUNTS, {n: {"egf": egf[n]} for n in WORST_CASE_COUNTS}),
        f"brute(n<={BRUTE_MAX}) = words = recurrence = EGF = reference "
        f"(n<={WORD_COUNT_MAX})",
    )


def check_best_case_counts() -> CheckResult:
    """Word census == recurrence == reference for n <= 16, the exhaustive
    count through n = 11, and the residue-class closed form == recurrence at
    every 2 <= n <= COUNT_TABLE_MAX."""
    formulas = {n: {"formula": extremal.best_case_count_formula(n)}
                for n in range(2, COUNT_TABLE_MAX + 1)}
    return _agree(
        "best-case-counts", _count_rows("best", BEST_CASE_COUNTS, formulas),
        f"brute(n<={BRUTE_MAX}) = words = recurrence = reference "
        f"(n<={WORD_COUNT_MAX}); formula = recurrence for n in [2, {COUNT_TABLE_MAX}]",
    )


def check_expectation_oracle() -> CheckResult:
    """Recurrence expectation == each census's average == closed form (exact)."""
    recurrence = _tally(expectation.expected_gamma_path_prefix, EXPECTATION_MAX)

    def cases() -> Iterator[Case]:
        for n in range(1, EXPECTATION_MAX + 1):
            def mean(counts: tuple[int, ...]) -> Fraction:  # called before n moves on
                weighted = sum(size * count for size, count in enumerate(counts))
                return Fraction(weighted, math.factorial(n))

            yield f"n={n}", {
                "recurrence": recurrence[n],
                **_census_routes(n, mean),
                "closed form": expectation.expected_gamma_path_closed_form(n),
            }

    return _agree(
        "expectation-oracle", cases(),
        f"recurrence = brute average (n<={BRUTE_MAX}) = word-census average "
        f"(n<={WORD_COUNT_MAX}) = closed form (n<={EXPECTATION_MAX})",
    )


def check_asymptotic_constant() -> CheckResult:
    """E(n) = ((n+1) - (n+3)e^-2)/2 + r_n with |r_n| <= 2^(n+1)/(n+2)!.

    Proof, from the closed form E(n) = (n+1)/2 - S_n/2 with
    S_n = sum_{j<=n} (n+1-j)(-2)^j/j!: over all j >= 0 the sum is
    (n+1)e^-2 - sum_j j(-2)^j/j! = (n+1)e^-2 + 2e^-2 = (n+3)e^-2, so
    r_n = (1/2) sum_{j>n} (n+1-j)(-2)^j/j!.  Its j = n+1 term is 0; at
    j = n+2+k the terms alternate in sign with sizes
    a_k = (k+1) 2^(n+2+k)/(n+2+k)!, and a_(k+1)/a_k =
    2(k+2)/((k+1)(n+3+k)) <= 1 for n >= 1.  An alternating tail whose
    terms do not grow is at most its first term, so |r_n| <= a_0/2.

    For n = 1..200 the check holds |E(n) - ((n+1) - (n+3)e^-2)/2| to
    2^(n+2)/(n+2)!, twice that bound, on the prefix the other checks read.
    The other half is room for e^-2, known only between the partial sums
    L and U of sum_k (-2)^k/k! to k = K and K+1 (K = 210): the tested
    quantity is linear in e^-2, so holding at L and at U it holds at e^-2,
    and (n+3)/2 times the bracket's width 2^(K+1)/(K+1)! is far below
    2^(n+1)/(n+2)!.  Both sides are multiplied through by 2 q (K+1)!, q the
    denominator of E(n), so the test compares integers and no float
    enters.  The float recurrence at n = 10000 must match the same form to
    1e-12 relative.
    """
    name = "asymptotic-constant"
    n_float, tol = 10_000, 1e-12
    form = ((n_float + 1) - (n_float + 3) * math.exp(-2.0)) / 2
    gap = abs(expectation.expected_gamma_path_float(n_float) / form - 1)
    if gap > tol:
        return CheckResult(name, False, f"float E({n_float}) is {gap:.2e} relative "
                           f"off ((n+1) - (n+3)e^-2)/2, tolerance {tol}")
    K = 210
    prefix = _tally(expectation.expected_gamma_path_prefix, EXPECTATION_MAX)
    # quot[k] = (K+1)!/k!, built by products; L, U and each bound are over quot[0]
    quot = list(itertools.accumulate(range(K + 1, 0, -1), operator.mul, initial=1))[::-1]
    scale = quot[0]
    low = sum((-2) ** k * quot[k] for k in range(K + 1))
    high = low + (-2) ** (K + 1)

    def cases() -> Iterator[Case]:
        for n in range(1, EXPECTATION_MAX + 1):
            p, q = prefix[n].numerator, prefix[n].denominator
            # 2 q scale (E(n) - ((n+1) - (n+3)c)/2) at c = L and c = U,
            # against 2 q scale 2^(n+2)/(n+2)!
            at_low = (2 * p - (n + 1) * q) * scale + (n + 3) * q * low
            at_high = (2 * p - (n + 1) * q) * scale + (n + 3) * q * high
            bound = q * quot[n + 2] << (n + 3)
            held = abs(at_low) <= bound and abs(at_high) <= bound
            yield f"n={n}", {"within 2^(n+2)/(n+2)!": held, "expected": True}

    return _agree(
        name, cases(),
        f"|E(n) - ((n+1) - (n+3)e^-2)/2| <= 2^(n+2)/(n+2)! for n<={EXPECTATION_MAX} "
        f"(exact, e^-2 bracketed); float E({n_float}) off by {gap:.1e} <= {tol} relative",
    )


def check_family_formulas() -> CheckResult:
    """Each family formula equals the brute-force average, exactly.

    The wheel formula as printed in the paper must differ from it at every
    tested size.
    """
    brute = expectation.bruteforce_expected_gamma
    spokes_range = range(3, 7)
    multipartite = [  # two to eight parts (one has no edges), 8 vertices at most
        parts for k in range(2, 9)
        for parts in itertools.combinations_with_replacement(range(1, 8), k) if sum(parts) <= 8
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
    only.  The bijection is thus an equality of word sets, tested on every
    word of every odd n <= 19 in blocks of 2^15 words, each a PackedWords
    view of 4096 byte columns of PackedWords.every_word: a block's
    extremal.every_even_vertex_has row is read from the letter rows that
    gamma_batch_path then overwrites, and the packed row of its worst-case
    words is XORed into it, so no row over all 2^(n-1) words is held
    beside the table.  The word census counts the orders behind the
    worst-case words.
    The weakly alternating counts also equal the odd-configuration EGF for
    n <= 60.
    """
    import numpy as np

    name = "inverse-bijection"
    block_words = 1 << 15  # a multiple of 8
    odd_config = series.odd_configuration_counts_egf(COUNT_TABLE_MAX)
    alternating_counts = _tally(extremal.weakly_alternating_counts, COUNT_TABLE_MAX)

    def cases() -> Iterator[Case]:
        for n in range(1, BIJECTION_WORD_MAX + 1, 2):
            table = PackedWords.every_word(n).table
            count, width = min(1 << (n - 1), block_words), block_words // 8
            split = worst = 0
            for left in range(0, table.shape[1], width):
                block = PackedWords(table[:, left : left + width], count)
                holds = extremal.every_even_vertex_has(block.table[1:])
                row = gamma_batch_path(n, block) == max_dominating_size(n)
                worst += int(np.count_nonzero(row))
                holds ^= np.packbits(row)  # the words where the two sets split
                # count= drops the pad bits of a byte that is not full
                split += int(np.count_nonzero(np.unpackbits(holds, count=count)))
            yield f"n={n}", {
                "words: worst-case != inverse weakly alternating": split,
                "expected": 0,
            }
            yield f"n={n}", {
                "worst-case words": worst,
                "3^((n-1)/2)": 3 ** (n // 2),
            }
            yield f"n={n}", {
                "worst-case orders by words":
                    _tally(extremal.word_census, n)[-1],
                "weakly alternating": alternating_counts[n],
            }
        for n in range(1, COUNT_TABLE_MAX + 1):
            yield f"n={n}", {
                "weakly alternating": alternating_counts[n],
                "odd-configuration EGF": odd_config[n],
            }

    return _agree(
        name, cases(),
        f"inversion bijection verified on every up/down word of odd n <= "
        f"{BIJECTION_WORD_MAX}; weakly alternating = odd-configuration EGF "
        f"counts for n <= {COUNT_TABLE_MAX}",
    )


def check_convolution() -> CheckResult:
    """The paper's identity at even n: the worst-case orders split at their
    gap into two odd-configuration pieces, so the binomial convolution
    sum_(even j) C(n, j) O_j O_(n-j) of the odd-configuration counts O, summed
    here, == the worst-case EGF, which series reads off O by the Riccati
    identity, == recurrence; and the odd-configuration counts == brute force."""
    odd_config = series.odd_configuration_counts_egf(COUNT_TABLE_MAX)
    worst = series.worst_case_counts_egf(COUNT_TABLE_MAX)
    recurrence = _tally(extremal.extremal_counts, COUNT_TABLE_MAX, "worst")

    def cases() -> Iterator[Case]:
        for n in range(2, COUNT_TABLE_MAX + 1, 2):
            yield f"n={n}", {
                "convolution": sum(math.comb(n, j) * odd_config[j] * odd_config[n - j]
                                   for j in range(0, n + 1, 2)),
                "worst-case EGF": worst[n],
                "recurrence": recurrence[n],
            }
        for n in range(1, BRUTE_MAX + 1):  # listing the odd vertices first realizes them
            final_sets = final_set_counts(graphs.path(n))
            yield f"n={n}", {
                "brute odd-config count": final_sets[extremal.odd_vertex_set(n)],
                "egf": odd_config[n],
            }

    return _agree(
        "convolution-identity", cases(),
        f"EGF convolution = recurrence for even n <= {COUNT_TABLE_MAX}; EGF "
        f"counts match brute force for n <= {BRUTE_MAX}",
    )


def check_montecarlo(sample: montecarlo.PendingSample) -> CheckResult:
    """Mean convergence of a started sample, joined here; the sampler itself
    refuses a size outside the provable support, so a returned histogram
    lies inside it."""
    name = "monte-carlo"
    n, samples = sample.config.n, sample.config.samples
    hist = sample.histogram()
    lo, hi = min_dominating_size(n), max_dominating_size(n)
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
    expectations = _tally(expectation.expected_gamma_path_prefix, EXPECTATION_MAX)

    def cases() -> Iterator[Case]:
        for n in range(1, EXPECTATION_MAX + 1):
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
        f"bound = (n+1)/3 for 2 <= n <= {EXPECTATION_MAX} (path(1) gives 1) and "
        f"expectation >= (n+1)/3 for n <= {EXPECTATION_MAX}",
    )


def run_verification(depth: str = "quick") -> list[CheckResult]:
    """Run every check; quick depth trims only the Monte Carlo sample.

    The sample is numpy work and the other checks are pure Python, so the
    sample is started before them all, on up to as many processes as this
    process has CPUs to run on, and check_montecarlo joins it after them;
    leaving, on any path, reaps its children.  The results keep the report's
    order, in which monte-carlo comes before caro-wei.
    """
    if depth not in ("quick", "full"):
        raise ValueError("depth must be 'quick' or 'full'")
    n, samples = (300, 5000) if depth == "quick" else (2000, 40_000)
    config = montecarlo.SampleConfig(
        n=n, samples=samples, seed=MONTE_CARLO_SEED, workers=os.cpu_count() or 1
    )
    exact = (check_worst_case_counts, check_best_case_counts, check_expectation_oracle,
             check_asymptotic_constant, check_family_formulas, check_structural_sets,
             check_inverse_bijection, check_convolution, check_caro_wei)
    with montecarlo.start_sample(config) as sample:
        *results, caro_wei = [check() for check in exact]
        return [*results, check_montecarlo(sample), caro_wei]
