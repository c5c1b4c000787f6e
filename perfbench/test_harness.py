"""Tests of the benchmark harness itself: statistics, gates, error counting, spans.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def invocation(stdout: str = "", returncode: int = 0, stderr: str = "") -> harness.Invocation:
    return harness.Invocation(
        returncode=returncode, wall_s=1.0, cpu_s=1.0, max_rss_mb=50.0,
        stdout=stdout, stderr=stderr,
    )


def verify_output(fail: str | None = None) -> str:
    lines = [
        f"FAIL  {name}: diverged" if name == fail else f"PASS  {name}: ok"
        for name in harness.CHECK_NAMES
    ]
    return "\n".join(lines) + "\n"


def series_output(worst_at_order: int) -> str:
    worst = [1, *harness.WORST_CASE_REFERENCE] + [7] * (harness.SERIES_ORDER - 10)
    worst[harness.SERIES_ORDER] = worst_at_order
    rows = ["n,odd_config,worst_case"] + [f"{n},1,{w}" for n, w in enumerate(worst)]
    return "\n".join(rows) + "\n"


def extremal_output(count: int) -> str:
    return f"recurrence: {count} orders of length 400 hit the worst-case size 200\n"


def expect_value() -> str:
    """A rational close enough to E(4000) to pass the float check."""
    return str(Fraction(harness.expected_gamma_path_float(harness.EXPECT_N)).limit_denominator(10**6))


def sample_output(bins: dict[int, int], seed: int = 5) -> harness.Invocation:
    body = "gamma,count\n" + "\n".join(f"{g},{c}" for g, c in sorted(bins.items())) + "\n"
    return invocation(body, stderr=json.dumps({"seed": seed, "samples": sum(bins.values())}))


def plausible_bins(total: int = harness.SAMPLE_COUNT) -> dict[int, int]:
    """Two adjacent sizes weighted so the mean sits on E(n)."""
    mean = harness.expected_gamma_path_float(harness.SAMPLE_N)
    low = int(mean)
    upper = round((mean - low) * total)
    return {low: total - upper, low + 1: upper}


# -- statistics ------------------------------------------------------------


def test_reported_value_is_the_median():
    assert harness.describe("wall_s", "s", [3.0, 1.0, 2.0]).split()[1] == "2"
    line = harness.describe("wall_s", "s", [4.0, 1.0, 3.0, 2.0])
    assert line.split()[1] == "2.5" and line.endswith("p-tail n/a, n=4")
    line = harness.describe("wall_s", "s", [float(v) for v in range(1, 21)])
    assert line.split()[1] == "10.5" and "p50 10," in line


def test_tail_percentile_needs_ten_values_beyond_it():
    assert harness.tail_percentile([float(v) for v in range(10)]) is None
    assert harness.tail_percentile([float(v) for v in range(10, 0, -1)] + [0.0]) == (9, 0.0)
    assert harness.tail_percentile([float(v) for v in range(1, 21)]) == (50, 10.0)
    assert harness.tail_percentile([float(v) for v in range(1, 101)]) == (90, 90.0)


def test_tail_percentile_leaves_exactly_ten_values_above():
    values = [float(v * v % 37) + v / 1000 for v in range(57)]
    _, value = harness.tail_percentile(values)
    assert sum(v > value for v in values) == 10


def test_quartile_spread_is_iqr_over_median():
    assert harness.quartile_spread([10.0] * 5) == 0.0
    spread = harness.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert spread == pytest.approx((4.5 - 1.5) / 3.0)


def test_float_reference_matches_small_exact_expectations():
    exact = {1: 1.0, 2: 1.0, 3: 5 / 3, 4: 2.0}
    for n, value in exact.items():
        assert harness.expected_gamma_path_float(n) == pytest.approx(value)
    assert harness.expected_gamma_path_float(10_000) / 10_000 == pytest.approx(0.4323, abs=1e-3)


# -- gates -----------------------------------------------------------------

STATE = harness.GateState(seed=5)


def test_reproduce_gate_accepts_ten_passes():
    (verdict,) = harness.gate_reproduce([invocation(verify_output())], STATE)
    assert not verdict.error


def test_reproduce_gate_rejects_a_fail_line():
    output = verify_output(fail="monte-carlo")
    (verdict,) = harness.gate_reproduce([invocation(output, returncode=2)], STATE)
    assert verdict.failed and any("FAIL" in p for p in verdict.problems)
    (verdict,) = harness.gate_reproduce([invocation(output, returncode=0)], STATE)
    assert verdict.error and verdict.problems


def test_reproduce_gate_rejects_a_missing_check():
    output = "".join(verify_output().splitlines(keepends=True)[:9])
    (verdict,) = harness.gate_reproduce([invocation(output)], STATE)
    assert verdict.problems == ["expected 10 PASS lines, got 9"]


def test_sample_gate_accepts_a_plausible_histogram_and_repeats():
    state = harness.GateState(seed=5)
    for _ in range(2):
        (verdict,) = harness.gate_sample([sample_output(plausible_bins())], state)
        assert not verdict.error, verdict.problems


def test_sample_gate_rejects_a_wrong_total():
    state = harness.GateState(seed=5)
    bins = plausible_bins(harness.SAMPLE_COUNT - 4)
    (verdict,) = harness.gate_sample([sample_output(bins)], state)
    assert any("total" in p for p in verdict.problems)


def test_sample_gate_rejects_support_mean_seed_and_changed_bins():
    state = harness.GateState(seed=5)
    outside = {harness.SAMPLE_N // 2 + 1: harness.SAMPLE_COUNT}
    (verdict,) = harness.gate_sample([sample_output(outside)], state)
    assert any("support" in p for p in verdict.problems)
    assert any("5 SE" in p for p in verdict.problems)

    state = harness.GateState(seed=5)
    (verdict,) = harness.gate_sample([sample_output(plausible_bins(), seed=6)], state)
    assert any("seed" in p for p in verdict.problems)

    state = harness.GateState(seed=5)
    harness.gate_sample([sample_output(plausible_bins())], state)
    shifted = dict(plausible_bins())
    low, high = min(shifted), max(shifted)
    shifted[low] += 1
    shifted[high] -= 1
    (verdict,) = harness.gate_sample([sample_output(shifted)], state)
    assert any("different bins" in p for p in verdict.problems)


def exact_pass(worst: int, recurrence: int, expects: tuple[str, str]) -> list[harness.Invocation]:
    return [
        invocation(series_output(worst)),
        invocation(extremal_output(recurrence)),
        *(invocation(text) for text in expects),
    ]


def test_exact_gate_accepts_agreeing_outputs():
    value = expect_value()
    verdicts = harness.gate_exact(exact_pass(12345, 12345, (value, value)), STATE)
    assert not any(v.error for v in verdicts), [v.problems for v in verdicts]


def test_exact_gate_rejects_a_series_recurrence_mismatch():
    value = expect_value()
    verdicts = harness.gate_exact(exact_pass(12345, 12346, (value, value)), STATE)
    assert [bool(v.problems) for v in verdicts] == [True, True, False, False]


def test_exact_gate_rejects_disagreeing_rationals():
    value = Fraction(expect_value())
    other = str(value + Fraction(1, 10**15))
    verdicts = harness.gate_exact(exact_pass(1, 1, (str(value), other)), STATE)
    assert [bool(v.problems) for v in verdicts] == [False, False, True, True]


def test_failed_invocation_counts_in_error_rate_not_dropped():
    invocations = exact_pass(1, 1, ("", ""))
    for inv in invocations[2:]:
        inv.returncode = 1
        inv.stderr = "error: Exceeds the limit (4300 digits) for integer string conversion"
    passes = [harness.Pass([], invocations, harness.gate_exact(invocations, STATE)) for _ in range(2)]
    attempted, failed, correct = harness.error_counts(passes)
    assert (attempted, failed, correct) == (8, 4, True)
    assert passes[0].wall_s == 4.0  # the failed invocations' time is still timed


def test_wrong_output_makes_the_run_incorrect():
    invocations = exact_pass(1, 2, (expect_value(), expect_value()))
    passes = [harness.Pass([], invocations, harness.gate_exact(invocations, STATE))]
    assert harness.error_counts(passes) == (4, 2, False)


# -- invocation ------------------------------------------------------------


def test_invoke_drains_large_output_on_both_pipes():
    code = "import sys; sys.stdout.write('x' * 300000); sys.stderr.write('y' * 300000); sys.exit(3)"
    inv = harness.invoke([sys.executable, "-c", code], harness.child_env(), timeout=60)
    assert inv.returncode == 3
    assert len(inv.stdout) == 300000 and len(inv.stderr) == 300000
    assert inv.wall_s > 0 and inv.cpu_s > 0 and inv.max_rss_mb > 0


def test_child_env_drops_package_knobs(monkeypatch):
    monkeypatch.setenv("PATHDOM_WORKERS", "4")
    monkeypatch.setenv("PATHDOM_ACCEPT_CAP", "8")
    monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", "0")
    env = harness.child_env()
    assert not any(key.startswith("PATHDOM_") for key in env)
    assert "PYTHONINTMAXSTRDIGITS" not in env
    assert env["OMP_NUM_THREADS"] == env["OPENBLAS_NUM_THREADS"] == env["MKL_NUM_THREADS"] == "1"
    assert env["PYTHONPATH"] == str(harness.SRC)


# -- spans -----------------------------------------------------------------


def span(name, start, end, parent=None, work=0):
    return {"name": name, "start": start, "end": end, "parent": parent, "run": 0, "work": work}


def test_self_time_subtracts_children():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("montecarlo.sample", 1.0, 9.0, parent=0),
        span("domination.batch", 2.0, 4.0, parent=1, work=100),
        span("domination.batch", 5.0, 6.0, parent=1, work=50),
    ]
    assert layers.self_times(spans) == pytest.approx([2.0, 5.0, 2.0, 1.0])
    metrics = layers.pass_metrics([spans])
    assert metrics["cli.main_self_s"] == pytest.approx(2.0)
    assert metrics["montecarlo.sample.s"] == pytest.approx(8.0)
    assert metrics["montecarlo.self_s"] == pytest.approx(5.0)
    assert metrics["montecarlo.chunks"] == 2
    assert metrics["domination.batch.s"] == pytest.approx(3.0)
    assert metrics["domination.batch.reveals_per_s"] == pytest.approx(50.0)
    assert metrics["extremal.census.orders_per_s"] == 0.0


def test_cli_overhead_is_start_ups_plus_cli_self_time():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("verification.run", 0.5, 9.5, parent=0),
        span("verification.monte-carlo", 1.0, 8.0, parent=1),
        span("montecarlo.pool", 2.0, 7.0, parent=2),
    ]
    passes = [layers.pass_metrics([spans])]
    metrics, self_sum = layers.layer_report([10.5, 10.4, 10.6], [10.7], passes, 0.25, 1)
    assert list(metrics) == [name for name, _, _ in layers.PER_LAYER]
    assert metrics["verification.monte-carlo.s"] == pytest.approx(7.0)
    assert metrics["verification.self_s"] == pytest.approx(4.0)
    assert metrics["montecarlo.pool.s"] == pytest.approx(5.0)
    assert metrics["cli.overhead_s"] == pytest.approx(0.25 + 1.0)
    assert metrics["trace.overhead_s"] == pytest.approx(0.2)
    assert self_sum == pytest.approx(10.25)


def test_layer_sum_is_measured_not_derived_from_wall_time():
    spans = [span("cli.main", 0.0, 10.0), span("series.egf", 1.0, 9.0, parent=0)]
    passes = [layers.pass_metrics([spans])]
    _, close = layers.layer_report([10.5], [10.7], passes, 0.25, 2)
    _, far = layers.layer_report([10.5], [10.7], passes, 3.0, 2)
    assert close == pytest.approx(10.5)
    assert far == pytest.approx(16.0)
    assert abs(far - 10.5) > 0.2


def test_tracing_a_missing_function_is_an_error():
    module = types.ModuleType("pathdom.fake")
    module.present = lambda: 3
    recorder = tracer.Recorder(run_id=0)
    recorder.wrap(module, "present", "series.egf")
    assert module.present() == 3
    assert [s["name"] for s in recorder.spans] == ["series.egf"]
    with pytest.raises(AttributeError, match="renamed"):
        recorder.wrap(module, "renamed", "series.egf")


def test_tracer_finds_every_function_it_wraps():
    sys.path.insert(0, str(harness.SRC))
    try:
        tracer.install(tracer.Recorder(run_id=0))
    finally:
        sys.path.remove(str(harness.SRC))
        for name in [m for m in sys.modules if m == "pathdom" or m.startswith("pathdom.")]:
            del sys.modules[name]


def test_unknown_span_is_an_error():
    with pytest.raises(ValueError):
        layers.pass_metrics([[span("cli.main", 0.0, 1.0), span("graphs.path", 0.1, 0.2, parent=0)]])


# -- the benchmark definition -------------------------------------------------


def test_benchmark_json_matches_the_harness():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(metric) for metric in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(metric) for metric in layers.PER_LAYER
    ]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
