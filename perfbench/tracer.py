"""Run one pathdom CLI invocation with a span around each public call of each module.

    python perfbench/tracer.py SPANS_JSON RUN_ID -- <pathdom arguments>

Each public function is wrapped at the module attribute its caller looks up,
so the package runs unchanged: `montecarlo` binds `gamma_batch_path` by
name, so the wrapper goes on `pathdom.montecarlo`, and `verification` binds
`run_online_domination` by name, so that wrapper goes on
`pathdom.verification`.  Spans stay in memory and are written to SPANS_JSON
when the invocation ends, whatever its exit code.

Pool workers started by `sample_gamma` with more than one worker keep what
they record, so that call is one childless `montecarlo.pool` span.
"""

from __future__ import annotations

import json
import math
import sys
import time

# verify's check functions and the CheckResult.name each one reports.
CHECKS = {
    "check_worst_case_counts": "worst-case-counts",
    "check_best_case_counts": "best-case-counts",
    "check_expectation_oracle": "expectation-oracle",
    "check_asymptotic_constant": "asymptotic-constant",
    "check_family_formulas": "family-formulas",
    "check_structural_sets": "structural-sets",
    "check_inverse_bijection": "inverse-bijection",
    "check_convolution": "convolution-identity",
    "check_montecarlo": "monte-carlo",
    "check_caro_wei": "caro-wei",
}

ENUMERATORS = (
    "extremal_permutations",
    "weakly_alternating_permutations",
    "count_no_even_local_maxima",
    "independent_dominating_sets_bruteforce",
)


class Recorder:
    """Spans of one invocation: name, start, end, parent index, run id, work done."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[tuple[int, object]] = []  # (span index, wrapped function)

    def wrap(self, module, attr: str, name, work=None) -> None:
        """Replace module.attr by a wrapper that records a span per call.

        `name` is a span name or a function of the call's arguments giving
        one; `work`, if given, maps the arguments to a count of work done.
        A call made while the same function is already the innermost open
        span (recursion through the module global) adds no span.  A function
        the package no longer has is an error, so a renamed layer breaks the
        traced run instead of reading 0.
        """
        if not callable(getattr(module, attr, None)):
            raise AttributeError(f"{module.__name__} has no function {attr!r} to trace")
        inner = getattr(module, attr)

        def wrapper(*args, **kwargs):
            if self._open and self._open[-1][1] is inner:
                return inner(*args, **kwargs)
            span = {
                "name": name(*args, **kwargs) if callable(name) else name,
                "run": self.run_id,
                "parent": self._open[-1][0] if self._open else None,
                "work": work(*args, **kwargs) if work else 0,
                "start": 0.0,
                "end": 0.0,
            }
            self._open.append((len(self.spans), inner))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()

        setattr(module, attr, wrapper)


def install(recorder: Recorder) -> None:
    from pathdom import cli, expectation, extremal, montecarlo, series, verification

    wrap = recorder.wrap
    wrap(cli, "main", "cli.main")
    wrap(verification, "run_verification", "verification.run")
    for function, check in CHECKS.items():
        wrap(verification, function, f"verification.{check}")
    wrap(verification, "run_online_domination", "domination.scalar")
    wrap(extremal, "path_census", "extremal.census",
         work=lambda n, **_: math.factorial(n))
    for function in ENUMERATORS:
        wrap(extremal, function, "extremal.enumerate")
    wrap(extremal, "worst_case_count_recurrence", "extremal.recurrence")
    wrap(expectation, "bruteforce_expected_gamma", "expectation.brute",
         work=lambda graph, **_: math.factorial(graph.n))
    wrap(expectation, "expected_gamma_path", "expectation.recurrence")
    wrap(expectation, "expected_gamma_path_closed_form", "expectation.closed_form")
    wrap(series, "worst_case_counts_egf", "series.egf")
    wrap(series, "odd_configuration_counts_egf", "series.egf")
    wrap(montecarlo, "gamma_batch_path", "domination.batch",
         work=lambda n, perms: n * len(perms))
    wrap(montecarlo, "sample_gamma",
         lambda config: "montecarlo.pool" if config.workers > 1 else "montecarlo.sample")


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, run_id, _, *cli_args = argv
    recorder = Recorder(int(run_id))
    install(recorder)
    from pathdom import cli

    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(recorder.spans, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
