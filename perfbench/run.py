"""The pathdom benchmark: one workload per call, correctness-gated.

    python3 perfbench/run.py --workload reproduce|sample|exact \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
src/.  Each call makes one untimed warm-up pass of the workload (for
reproduce, at quick depth), then repeats timed passes for about S seconds.
Start-up (`python -m pathdom --version`) is timed before, between and after
the passes.  With --trace 0 the run reports the end-to-end metrics; with
--trace 1 it alternates untraced and traced passes and reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object: correct, attempted, failed, metrics.

The sample workload draws with --seed.  Keep seed 9001 held out: a claimed
gain must also hold with --seed 9001, which no change should be tuned on.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import layers  # noqa: E402

# (name, unit, better, bound) of every end-to-end metric.  samples_per_s and
# error_rate are printed in the human-readable lines only: the JSON carries
# the same metrics on every workload, and error_rate is failed / attempted.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + layers.PER_LAYER}

SETUP_PROBES = 25  # at least: half before the passes, one after each, the rest at the end
RUN_BUDGET_S = 150.0  # stop adding passes past this, to end well inside 180 s


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(harness.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")
    return args


def repeat(step, seconds: float, started: float) -> list:
    """Call step() until the next call would end past `seconds`; at least once."""
    results = []
    began = time.perf_counter()
    while True:
        results.append(step())
        now = time.perf_counter()
        per_step = (now - began) / len(results)
        if now - began + per_step > seconds or now - started + per_step > RUN_BUDGET_S:
            return results


def setup_probe(env: dict[str, str]) -> float:
    inv = harness.invoke(harness.pathdom_argv(["--version"]), env)
    if inv.returncode != 0 or not inv.stdout.startswith("pathdom "):
        raise RuntimeError(f"`pathdom --version` failed: {inv.stderr.strip()[-300:]}")
    return inv.wall_s


def run_traced(workload, state, env, seconds, started, setup):
    """Alternate untraced and traced passes; return both lists and the span metrics.

    A start-up probe follows each pair and is appended to `setup`.
    """
    spans_dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=harness.ROOT))
    untraced, traced, span_metrics = [], [], []
    try:
        def step():
            untraced.append(harness.run_pass(workload, state, env))
            run_id = len(traced)
            paths = []

            def argv_for(args):
                paths.append(spans_dir / f"{run_id}-{len(paths)}.json")
                return harness.traced_argv(args, paths[-1], run_id)

            traced.append(harness.run_pass(workload, state, env, argv_for))
            span_metrics.append(
                layers.pass_metrics([json.loads(p.read_text(encoding="utf-8")) for p in paths])
            )
            setup.append(setup_probe(env))

        repeat(step, seconds, started)
    finally:
        shutil.rmtree(spans_dir, ignore_errors=True)
    return untraced, traced, span_metrics


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    # A terminated run unwinds through invoke(), which stops the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # The exact gate parses rationals of thousands of digits in this process.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = parse_args(argv)
    if not (harness.SRC / "pathdom" / "__init__.py").is_file():
        print(f"perfbench: no package at {harness.SRC / 'pathdom'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    env = harness.child_env()
    where = harness.invoke([sys.executable, "-c", "import pathdom; print(pathdom.__file__)"], env)
    if where.returncode != 0 or harness.SRC not in Path(where.stdout.strip()).resolve().parents:
        print(f"perfbench: pathdom does not import from {harness.SRC}: "
              f"{(where.stdout + where.stderr).strip()[-300:]}", file=sys.stderr)
        return 2

    workload = harness.WORKLOADS[args.workload]
    record = harness.environment_record()
    record["loadavg_start"] = list(os.getloadavg())
    print(f"perfbench workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    state = harness.GateState(seed=args.seed)
    warmup = harness.run_pass(workload, state, env, warmup=True)
    lines = []

    # Start-up probes are spread over the run, so their median is not
    # taken from a single moment of the machine's load.
    setup = [setup_probe(env) for _ in range((SETUP_PROBES + 1) // 2)]
    if args.trace:
        untraced, traced, span_metrics = run_traced(
            workload, state, env, args.seconds, started, setup
        )
        passes = untraced + traced
    else:
        def step():
            result = harness.run_pass(workload, state, env)
            setup.append(setup_probe(env))
            return result

        passes = repeat(step, args.seconds, started)
    setup += [setup_probe(env) for _ in range(SETUP_PROBES - len(setup))]

    if args.trace:
        metrics, self_sum = layers.layer_report(
            [p.wall_s for p in untraced], [p.wall_s for p in traced], span_metrics,
            statistics.median(setup), len(workload.commands(args.seed)),
        )
        for name, value in metrics.items():
            lines.append(f"{name:<40} {value:>12.6g} {UNITS[name]:<6} median, n={len(traced)}")
        wall = statistics.median([p.wall_s for p in untraced])
        within = abs(self_sum - wall) <= abs(metrics["trace.overhead_s"]) + 1e-6
        lines.append(f"cli.overhead_s and layer self times sum to {self_sum:.4f} s; untraced wall_s "
                     f"{wall:.4f} s; within trace overhead: {'yes' if within else 'no'}")
    else:
        series = {
            "setup_s": setup,
            "wall_s": [p.wall_s for p in passes],
            "cpu_s": [p.cpu_s for p in passes],
            "peak_rss_mb": [p.peak_rss_mb for p in passes],
        }
        metrics = {name: statistics.median(series[name]) for name, _, _, _ in END_TO_END}
        lines += [harness.describe(name, UNITS[name], series[name]) for name in metrics]
        if workload.name == "sample":
            rates = [harness.SAMPLE_COUNT / w for w in series["wall_s"]]
            lines.append(harness.describe("samples_per_s", "1/s", rates))

    attempted, failed, correct = harness.error_counts(passes)
    _, _, warmup_correct = harness.error_counts([warmup])
    correct = correct and warmup_correct
    lines.append(f"{'error_rate':<40} {failed / attempted:>12.6g} {'ratio':<6} "
                 f"= {failed} failed / {attempted} attempted")
    failures = Counter(
        (" ".join(command), inv.returncode, "; ".join(verdict.problems) or inv.stderr.strip()[-200:])
        for p in [warmup] + passes
        for command, inv, verdict in zip(p.commands, p.invocations, p.verdicts)
        if verdict.error
    )
    for (command, code, reason), times in failures.items():
        lines.append(f"  failed {times}x: pathdom {command} (exit {code}): {reason}")
    record["loadavg_end"] = list(os.getloadavg())
    print("\n".join(lines))
    print("  env: " + json.dumps(record, sort_keys=True))

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
