"""Per-layer metrics from the spans that tracer.py records.

A layer is a pathdom module.  Self time is a span's duration minus the
durations of its child spans; the self-time metrics below cover every span
inside `cli.main`.  `cli.overhead_s` adds the time outside the library: the
measured start-up (`setup_s`) of each invocation plus the self time of
`cli.main` (argparse, formatting, writing).  The sum of these is measured
independently of the untraced wall time it should match.
"""

from __future__ import annotations

import statistics
from typing import Sequence

from harness import CHECK_NAMES

# Span name -> the metric that takes its self time.
SELF_TIME = {
    "verification.run": "verification.self_s",
    **{f"verification.{check}": "verification.self_s" for check in CHECK_NAMES},
    "extremal.census": "extremal.census.s",
    "extremal.enumerate": "extremal.enumerate.s",
    "extremal.recurrence": "extremal.recurrence.s",
    "expectation.brute": "expectation.brute.s",
    "expectation.recurrence": "expectation.recurrence.s",
    "expectation.closed_form": "expectation.closed_form.s",
    "series.egf": "series.egf.s",
    "domination.batch": "domination.batch.s",
    "domination.scalar": "domination.scalar.s",
    "montecarlo.sample": "montecarlo.self_s",
    "montecarlo.pool": "montecarlo.pool.s",
}

# Metric -> (work span, time metric): work done per second of self time.
RATES = {
    "extremal.census.orders_per_s": ("extremal.census", "extremal.census.s"),
    "expectation.brute.orders_per_s": ("expectation.brute", "expectation.brute.s"),
    "domination.batch.reveals_per_s": ("domination.batch", "domination.batch.s"),
}

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("cli.overhead_s", "s", "lower"),
    *((f"verification.{check}.s", "s", "lower") for check in CHECK_NAMES),
    ("verification.self_s", "s", "lower"),
    ("extremal.census.s", "s", "lower"),
    ("extremal.census.orders_per_s", "1/s", "higher"),
    ("extremal.enumerate.s", "s", "lower"),
    ("extremal.recurrence.s", "s", "lower"),
    ("expectation.brute.s", "s", "lower"),
    ("expectation.brute.orders_per_s", "1/s", "higher"),
    ("expectation.recurrence.s", "s", "lower"),
    ("expectation.closed_form.s", "s", "lower"),
    ("series.egf.s", "s", "lower"),
    ("domination.batch.s", "s", "lower"),
    ("domination.batch.reveals_per_s", "1/s", "higher"),
    ("domination.scalar.s", "s", "lower"),
    ("montecarlo.sample.s", "s", "lower"),
    ("montecarlo.self_s", "s", "lower"),
    ("montecarlo.chunks", "count", "lower"),
    ("montecarlo.pool.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

SELF_METRICS = tuple(dict.fromkeys(SELF_TIME.values()))


def self_times(spans: Sequence[dict]) -> list[float]:
    """Each span's duration minus the durations of its children."""
    own = [span["end"] - span["start"] for span in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def pass_metrics(invocation_spans: Sequence[Sequence[dict]]) -> dict[str, float]:
    """Layer metrics of one traced pass, from the span lists of its invocations.

    Adds `cli.main_self_s`, the time inside `cli.main` but outside the
    public calls it made, which `cli.overhead_s` counts.
    """
    out = {name: 0.0 for name, _, _ in PER_LAYER if name not in ("cli.overhead_s", "trace.overhead_s")}
    work = {span: 0 for span, _ in RATES.values()}
    cli_self = 0.0
    for spans in invocation_spans:
        own = self_times(spans)
        for span, self_s in zip(spans, own):
            name = span["name"]
            duration = span["end"] - span["start"]
            if name == "cli.main":
                cli_self += self_s
                continue
            if name not in SELF_TIME:
                raise ValueError(f"span {name!r} belongs to no layer metric")
            out[SELF_TIME[name]] += self_s
            if name in work:
                work[name] += span["work"]
            if name.removeprefix("verification.") in CHECK_NAMES:
                out[f"{name}.s"] += duration
            elif name == "montecarlo.sample":
                out["montecarlo.sample.s"] += duration
            elif name == "domination.batch" and spans[span["parent"]]["name"] == "montecarlo.sample":
                out["montecarlo.chunks"] += 1
    for rate, (span, time_metric) in RATES.items():
        out[rate] = work[span] / out[time_metric] if out[time_metric] > 0 else 0.0
    out["cli.main_self_s"] = cli_self
    return out


def layer_report(
    untraced_walls: Sequence[float],
    traced_walls: Sequence[float],
    traced_passes: Sequence[dict[str, float]],
    setup_s: float,
    invocations: int,
) -> tuple[dict[str, float], float]:
    """Median per-layer metrics over traced passes, and the sum of layer self times.

    cli.overhead_s is `invocations` start-ups of `setup_s` each, measured
    by separate probes, plus the self time of `cli.main` in the traced
    pass.  Nothing here is derived from a wall time, so the returned sum
    can disagree with the untraced wall time it is checked against.
    trace.overhead_s is traced minus untraced wall time.
    """
    passes = [
        {**p, "cli.overhead_s": invocations * setup_s + p["cli.main_self_s"]}
        for p in traced_passes
    ]
    metrics = {
        name: statistics.median(p[name] for p in passes)
        for name, _, _ in PER_LAYER
        if name != "trace.overhead_s"
    }
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    self_sum = statistics.median(
        p["cli.overhead_s"] + sum(p[name] for name in SELF_METRICS) for p in passes
    )
    return metrics, self_sum
