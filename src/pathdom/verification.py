"""Cross-validation harness.

Every quantity the package can compute more than one way is recomputed by
every route and compared here: exhaustive simulation against recurrences,
closed formulas and generating functions, exact expectations against
brute-force averages, and the sampler against exact distributions.  The
CLI `verify` subcommand runs these checks; the acceptance test suite runs
the same functions at full strength.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from . import expectation, extremal, graphs, montecarlo, series
from .domination import run_online_domination

# Reference counts for extremal orders on the path, 1 <= n <= 11.  Each
# entry is recomputed here by independent routes (exhaustive simulation,
# recurrence / closed formula, generating function); a disagreement with
# any route fails the corresponding check.
WORST_CASE_COUNTS = {
    1: 1, 2: 2, 3: 4, 4: 24, 5: 56, 6: 640, 7: 1632, 8: 30464, 9: 81664,
    10: 2251008, 11: 6241280,
}
BEST_CASE_COUNTS = {
    1: 1, 2: 2, 3: 2, 4: 24, 5: 64, 6: 80, 7: 3408, 8: 9856, 9: 13440,
    10: 1377792, 11: 4139520,
}

MONTE_CARLO_SEED = 271828


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


def _pass(name: str, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=True, detail=detail)


def _fail(name: str, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=False, detail=detail)


def check_worst_case_counts(brute_max: int = 11) -> CheckResult:
    """Exhaustive count == recurrence == EGF == reference, n = 1..11."""
    name = "worst-case-counts"
    egf = series.worst_case_counts_egf(max(WORST_CASE_COUNTS))
    for n, expected in WORST_CASE_COUNTS.items():
        rec = extremal.worst_case_count_recurrence(n)
        if rec != expected:
            return _fail(name, f"n={n}: recurrence={rec}, reference={expected}")
        if egf[n] != expected:
            return _fail(name, f"n={n}: egf={egf[n]}, reference={expected}")
    for n in range(1, brute_max + 1):
        brute = extremal.path_census(n).worst_count
        if brute != WORST_CASE_COUNTS[n]:
            return _fail(
                name, f"n={n}: brute={brute}, reference={WORST_CASE_COUNTS[n]}"
            )
    return _pass(name, f"brute(n<={brute_max}) = recurrence = EGF = reference (n<=11)")


def check_best_case_counts(brute_max: int = 11) -> CheckResult:
    """Exhaustive count == reference, with closed formulas where applicable."""
    name = "best-case-counts"
    for n in range(1, brute_max + 1):
        brute = extremal.path_census(n).best_count
        if brute != BEST_CASE_COUNTS[n]:
            return _fail(
                name, f"n={n}: brute={brute}, reference={BEST_CASE_COUNTS[n]}"
            )
    formula_ns = [
        n for n in BEST_CASE_COUNTS if extremal.best_case_formula_applicable(n)
    ]
    for n in formula_ns:
        value = extremal.best_case_count_formula(n)
        if value != BEST_CASE_COUNTS[n]:
            return _fail(
                name, f"n={n}: formula={value}, reference={BEST_CASE_COUNTS[n]}"
            )
    return _pass(
        name,
        f"brute(n<={brute_max}) = reference; formula agrees on n in "
        f"{formula_ns}",
    )


def check_expectation_oracle(brute_max: int = 11) -> CheckResult:
    """Recurrence expectation == brute-force average == closed form (exact)."""
    name = "expectation-oracle"
    closed_max = 200
    for n in range(1, brute_max + 1):
        brute = extremal.path_census(n).expectation
        rec = expectation.expected_gamma_path(n)
        if brute != rec:
            return _fail(name, f"n={n}: brute={brute}, recurrence={rec}")
    for n in range(1, closed_max + 1):
        rec = expectation.expected_gamma_path(n)
        closed = expectation.expected_gamma_path_closed_form(n)
        if rec != closed:
            return _fail(name, f"n={n}: recurrence={rec}, closed form={closed}")
    return _pass(
        name,
        f"recurrence = brute average (n<={brute_max}) and "
        f"= closed form (n<={closed_max})",
    )


def check_asymptotic_constant() -> CheckResult:
    """Per-vertex expectation approaches (e^2 - 1)/(2 e^2) = 0.4323..."""
    name = "asymptotic-constant"
    n_large, tol = 10_000, 1e-3
    limit = expectation.expected_gamma_limit()
    if limit != 0.5 - 0.5 * math.exp(-2.0):
        return _fail(name, f"limit {limit!r} breaks the algebraic identity")
    if not f"{limit:.10f}".startswith("0.4323"):
        return _fail(name, f"limit {limit!r} does not start with 0.4323")
    per_vertex = expectation.expected_gamma_path_float(n_large) / n_large
    gap = abs(per_vertex - limit)
    if gap >= tol:
        return _fail(
            name, f"|E(n)/n - limit| = {gap:.2e} at n={n_large}, tolerance {tol}"
        )
    return _pass(
        name, f"limit=0.4323..., |E({n_large})/{n_large} - limit| = {gap:.2e} < {tol}"
    )


def _partitions(total: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    if total == 0:
        yield ()
        return
    top = min(total, max_part if max_part is not None else total)
    for part in range(top, 0, -1):
        for rest in _partitions(total - part, part):
            yield (part,) + rest


def check_family_formulas(
    cycle_max: int = 9,
    star_max: int = 7,
    wheel_spoke_max: int = 6,
    multipartite_vertex_max: int = 8,
) -> CheckResult:
    """Each family formula equals the brute-force average, exactly."""
    name = "family-formulas"
    for n in range(3, cycle_max + 1):
        formula = expectation.expected_gamma_cycle(n)
        brute = expectation.bruteforce_expected_gamma(graphs.cycle(n))
        if formula != brute:
            return _fail(name, f"cycle n={n}: formula={formula}, brute={brute}")
    for leaves in range(1, star_max + 1):
        formula = expectation.expected_gamma_star(leaves)
        brute = expectation.bruteforce_expected_gamma(graphs.star(leaves))
        if formula != brute:
            return _fail(name, f"star leaves={leaves}: formula={formula}, brute={brute}")
    printed_divergences = []
    for spokes in range(3, wheel_spoke_max + 1):
        brute = expectation.bruteforce_expected_gamma(graphs.wheel(spokes))
        corrected = expectation.expected_gamma_wheel(spokes)
        printed = expectation.expected_gamma_wheel(spokes, as_printed=True)
        if corrected != brute:
            return _fail(
                name, f"wheel spokes={spokes}: corrected={corrected}, brute={brute}"
            )
        if printed != brute:
            printed_divergences.append(spokes)
    if len(printed_divergences) != wheel_spoke_max - 2:
        return _fail(
            name,
            "uncorrected wheel form unexpectedly matches brute force at "
            f"spokes not in {printed_divergences}",
        )
    instances = 0
    for total in range(2, multipartite_vertex_max + 1):
        for parts in _partitions(total):
            if len(parts) < 2:
                continue  # a single part has no edges
            formula = expectation.expected_gamma_complete_multipartite(parts)
            brute = expectation.bruteforce_expected_gamma(
                graphs.complete_multipartite(parts)
            )
            if formula != brute:
                return _fail(
                    name, f"multipartite {parts}: formula={formula}, brute={brute}"
                )
            instances += 1
    return _pass(
        name,
        f"cycle(3..{cycle_max}), star(1..{star_max}), wheel(3..{wheel_spoke_max}) "
        f"and {instances} multipartite instances match brute force; uncorrected "
        f"wheel form diverges at every tested size {printed_divergences}",
    )


def check_structural_sets(subset_max: int = 14) -> CheckResult:
    """Maximal independent dominating sets: construction == exhaustive search."""
    name = "structural-sets"
    realization_max = 12
    for n in range(1, subset_max + 1):
        constructed = set(extremal.maximal_independent_dominating_sets(n))
        expected_count = n // 2 + 1 if n % 2 == 0 else 1
        if len(constructed) != expected_count:
            return _fail(
                name, f"n={n}: constructed {len(constructed)} sets, expected {expected_count}"
            )
        top = extremal.max_dominating_size(n)
        searched = set(extremal.independent_dominating_sets_bruteforce(n, size=top))
        if constructed != searched:
            return _fail(
                name,
                f"n={n}: constructed family differs from exhaustive subset search",
            )
    for n in range(1, realization_max + 1):
        graph = graphs.path(n)
        for vertex_set in extremal.maximal_independent_dominating_sets(n):
            order = extremal.set_first_order(vertex_set, n)
            outcome = run_online_domination(graph, order)
            if outcome.chosen_set != vertex_set:
                return _fail(
                    name, f"n={n}: set {sorted(vertex_set)} not realized by {order}"
                )
    worst3 = {
        perm for perm in extremal.extremal_permutations(3, "worst")
    }
    if worst3 != {(1, 2, 3), (1, 3, 2), (3, 1, 2), (3, 2, 1)}:
        return _fail(name, f"worst-case orders of length 3 are {sorted(worst3)}")
    return _pass(
        name,
        f"counts and families match exhaustive search (n<={subset_max}), all "
        f"sets realized (n<={realization_max}), length-3 worst set exact",
    )


def check_inverse_bijection(odd_max: int = 9) -> CheckResult:
    """Worst-case orders map onto weakly alternating ones by inversion (odd n).

    Inversion and complementation are injective, so when every image lies in
    a pattern class counted as large as the worst-case set, it fills it.
    """
    name = "inverse-bijection"
    count_max = 60
    odd_config = series.odd_configuration_counts_egf(count_max)
    for n in range(1, count_max + 1):
        counts = {
            "weakly alternating": extremal.count_weakly_alternating(n),
            "without even local maxima": extremal.count_no_even_local_maxima(n),
            "odd-configuration EGF": odd_config[n],
        }
        if n % 2 and n <= odd_max:
            worst = extremal.extremal_permutations(n, "worst")
            counts["worst-case"] = len(worst)
            for order in worst:
                image = extremal.inverse(order)
                if not extremal.is_weakly_alternating(image):
                    return _fail(
                        name, f"n={n}: inverse of {order} is not weakly alternating"
                    )
                if not extremal.has_no_even_local_maxima(extremal.complement(image)):
                    return _fail(
                        name, f"n={n}: complement of {image} has an even local maximum"
                    )
        if min(counts.values()) != max(counts.values()):
            return _fail(name, f"n={n}: counts differ: {counts}")
    return _pass(
        name,
        f"inversion and complementation bijections verified for odd n <= "
        f"{odd_max}; both pattern counts = odd-configuration EGF for n <= "
        f"{count_max}",
    )


def check_convolution(even_max: int = 60, brute_max: int = 11) -> CheckResult:
    """EGF convolution identity (even n) and odd-configuration counts vs brute force."""
    name = "convolution-identity"
    for n in range(2, even_max + 1, 2):
        if not series.convolution_identity_holds(n):
            return _fail(name, f"n={n}: worst-case EGF count != convolution")
    odd_config = series.odd_configuration_counts_egf(even_max)
    for n in range(1, brute_max + 1):
        brute = extremal.path_census(n).odd_configuration_count
        if brute != odd_config[n]:
            return _fail(
                name, f"n={n}: brute odd-config count={brute}, egf={odd_config[n]}"
            )
    return _pass(
        name,
        f"identity holds for even n <= {even_max}; EGF counts match brute "
        f"force for n <= {brute_max}",
    )


def check_montecarlo(n: int = 2000, samples: int = 40_000) -> CheckResult:
    """Support bounds, mean convergence, and worker-count determinism."""
    name = "monte-carlo"
    seed = MONTE_CARLO_SEED
    hist = montecarlo.sample_gamma(
        montecarlo.SampleConfig(n=n, samples=samples, seed=seed)
    )
    lo, hi = extremal.min_dominating_size(n), extremal.max_dominating_size(n)
    if hist.min_gamma < lo or hist.max_gamma > hi:
        return _fail(
            name, f"support [{hist.min_gamma}, {hist.max_gamma}] outside [{lo}, {hi}]"
        )
    exact_mean = expectation.expected_gamma_path_float(n)
    bound = 5 * hist.std_dev / math.sqrt(samples)
    gap = abs(hist.mean - exact_mean)
    if gap > bound:
        return _fail(
            name,
            f"|sample mean - exact mean| = {gap:.4f} exceeds 5 SE = {bound:.4f}",
        )
    again = montecarlo.sample_gamma(
        montecarlo.SampleConfig(n=n, samples=samples, seed=seed, workers=2)
    )
    if again.bins != hist.bins:
        return _fail(name, "histogram changed with worker count")
    return _pass(
        name,
        f"n={n}, samples={samples}: support in [{lo}, {hi}], "
        f"|mean - exact| = {gap:.4f} <= {bound:.4f}, worker-independent",
    )


def check_caro_wei() -> CheckResult:
    """Degree bound equals (n+1)/3 on paths (n >= 2) and stays below the expectation."""
    name = "caro-wei"
    max_n = 200
    single = expectation.caro_wei_bound(graphs.path(1))
    if single != 1:
        return _fail(name, f"path(1) bound is {single}, expected 1")
    for n in range(2, max_n + 1):
        bound = expectation.caro_wei_bound(graphs.path(n))
        if bound != Fraction(n + 1, 3):
            return _fail(name, f"n={n}: bound={bound}, expected {Fraction(n + 1, 3)}")
    for n in range(1, max_n + 1):
        if expectation.expected_gamma_path(n) < Fraction(n + 1, 3):
            return _fail(name, f"n={n}: expectation below (n+1)/3")
    return _pass(
        name,
        f"bound = (n+1)/3 for 2 <= n <= {max_n} (path(1) gives 1) and "
        f"expectation >= (n+1)/3 for n <= {max_n}",
    )


def run_verification(depth: str = "quick") -> list[CheckResult]:
    """Run every check; quick depth trims the brute-force ranges to stay fast."""
    if depth not in ("quick", "full"):
        raise ValueError("depth must be 'quick' or 'full'")
    quick = depth == "quick"
    brute_max = 8 if quick else 11
    return [
        check_worst_case_counts(brute_max),
        check_best_case_counts(brute_max),
        check_expectation_oracle(brute_max),
        check_asymptotic_constant(),
        check_family_formulas(
            cycle_max=8 if quick else 9,
            star_max=6 if quick else 7,
            wheel_spoke_max=5 if quick else 6,
            multipartite_vertex_max=6 if quick else 8,
        ),
        check_structural_sets(subset_max=12 if quick else 14),
        check_inverse_bijection(odd_max=7 if quick else 9),
        check_convolution(even_max=32 if quick else 60, brute_max=brute_max),
        check_montecarlo(
            n=300 if quick else 2000, samples=5000 if quick else 40_000
        ),
        check_caro_wei(),
    ]
