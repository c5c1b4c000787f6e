"""Workloads, invocation, correctness gates and statistics for the pathdom benchmark.

Every timed invocation is a fresh interpreter running ``python -m pathdom``,
so the package's in-process caches (the ``lru_cache``s in ``series`` and
``extremal``, the memo table in ``expectation``) never turn a repeat into a
lookup.  Invocations run one at a time; the only parallelism is the 2-worker
pool that ``verify --depth full`` starts itself.
"""

from __future__ import annotations

import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import metadata
from pathlib import Path
from typing import Callable, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"

# The ten checks of `verify`, as CheckResult.name spells them.
CHECK_NAMES = (
    "worst-case-counts",
    "best-case-counts",
    "expectation-oracle",
    "asymptotic-constant",
    "family-formulas",
    "structural-sets",
    "inverse-bijection",
    "convolution-identity",
    "monte-carlo",
    "caro-wei",
)

SAMPLE_N = 2000
SAMPLE_COUNT = 40_000
SERIES_ORDER = 400  # matches the recurrence n so the two can be cross-checked
EXPECT_N = 4000

# Worst-case order counts for n = 1..10 from the exhaustive census (the
# table `verify` checks against); the `series` output must start with them.
WORST_CASE_REFERENCE = (1, 2, 4, 24, 56, 640, 1632, 30464, 81664, 2251008)

INVOCATION_TIMEOUT_S = 170.0


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    commands: Callable[[int], list[list[str]]]  # seed -> pathdom argv of one pass
    gate: Callable[[list["Invocation"], "GateState"], list["Verdict"]]
    warmup: Callable[[int], list[list[str]]] | None = None  # default: one pass of `commands`


@dataclass
class GateState:
    """What the gate carries between passes of one benchmark run."""

    seed: int
    reference_bins: dict[int, int] | None = None


@dataclass
class Verdict:
    """failed: the invocation did not complete; problems: its output is wrong."""

    failed: bool = False
    problems: list[str] = field(default_factory=list)

    @property
    def error(self) -> bool:
        return self.failed or bool(self.problems)


def _reproduce_commands(seed: int) -> list[list[str]]:
    # `verify` always samples with its own seed (271828); the bench seed
    # cannot reach it without editing the package.
    return [["verify", "--depth", "full"]]


def _reproduce_warmup(seed: int) -> list[list[str]]:
    # Quick depth runs the same ten checks, pool included, at small sizes:
    # it warms what the full pass uses in 1 s instead of 20.
    return [["verify", "--depth", "quick"]]


def _sample_commands(seed: int) -> list[list[str]]:
    return [[
        "sample", "--n", str(SAMPLE_N), "--samples", str(SAMPLE_COUNT),
        "--seed", str(seed), "--workers", "1",
    ]]


def _exact_commands(seed: int) -> list[list[str]]:
    return [
        ["series", "--order", str(SERIES_ORDER)],
        ["extremal", "--n", str(SERIES_ORDER), "--bound", "worst", "--method", "recurrence"],
        ["expect", "--family", "path", "--n", str(EXPECT_N)],
        ["expect", "--family", "path", "--n", str(EXPECT_N), "--method", "closed-form"],
    ]


def gate_reproduce(invocations: list["Invocation"], state: GateState) -> list[Verdict]:
    (inv,) = invocations
    verdict = Verdict(failed=inv.returncode != 0)
    lines = inv.stdout.splitlines()
    passes = [line for line in lines if line.startswith("PASS")]
    verdict.problems += [f"verify reported {line!r}" for line in lines if line.startswith("FAIL")]
    if len(passes) != len(CHECK_NAMES):
        verdict.problems.append(f"expected {len(CHECK_NAMES)} PASS lines, got {len(passes)}")
    return [verdict]


def gate_sample(invocations: list["Invocation"], state: GateState) -> list[Verdict]:
    (inv,) = invocations
    verdict = Verdict(failed=inv.returncode != 0)
    if verdict.failed:
        return [verdict]
    try:
        bins = parse_histogram(inv.stdout)
    except ValueError as exc:
        verdict.problems.append(str(exc))
        return [verdict]
    verdict.problems += histogram_problems(bins, SAMPLE_N, SAMPLE_COUNT)
    try:
        sidecar = json.loads(inv.stderr)
    except ValueError:
        sidecar = {}
    if sidecar.get("seed") != state.seed:
        verdict.problems.append(f"sidecar seed is {sidecar.get('seed')!r}, not {state.seed}")
    if state.reference_bins is None:
        state.reference_bins = bins
    elif bins != state.reference_bins:
        verdict.problems.append(f"seed {state.seed} gave different bins in two runs")
    return [verdict]


def gate_exact(invocations: list["Invocation"], state: GateState) -> list[Verdict]:
    series_inv, extremal_inv, *expect_invs = invocations
    verdicts = [Verdict(failed=inv.returncode != 0) for inv in invocations]
    series_v, extremal_v, *expect_vs = verdicts

    worst = None
    if not series_v.failed:
        try:
            worst = parse_series_worst(series_inv.stdout, SERIES_ORDER)
        except ValueError as exc:
            series_v.problems.append(str(exc))
        else:
            if tuple(worst[1:11]) != WORST_CASE_REFERENCE:
                series_v.problems.append(f"worst_case for n=1..10 is {worst[1:11]}")
    recurrence = None
    if not extremal_v.failed:
        try:
            recurrence = parse_extremal_count(extremal_inv.stdout, "recurrence")
        except ValueError as exc:
            extremal_v.problems.append(str(exc))
    if worst is not None and recurrence is not None and worst[SERIES_ORDER] != recurrence:
        problem = f"series worst_case at n={SERIES_ORDER} differs from the recurrence count"
        series_v.problems.append(problem)
        extremal_v.problems.append(problem)

    values = []
    for inv, verdict in zip(expect_invs, expect_vs):
        if verdict.failed:
            continue
        try:
            value = Fraction(inv.stdout.strip())
        except ValueError:
            verdict.problems.append(f"expect printed {inv.stdout[:80]!r}, not a rational")
            continue
        gap = abs(float(value) - expected_gamma_path_float(EXPECT_N))
        if gap > 1e-9 * EXPECT_N:
            verdict.problems.append(f"E({EXPECT_N}) is {float(value)}, off by {gap:.3g}")
        values.append(value)
    if len(values) == len(expect_invs) and len(set(values)) > 1:
        for verdict in expect_vs:
            verdict.problems.append("recurrence and closed form print different rationals")
    return verdicts


WORKLOADS = {
    w.name: w
    for w in (
        Workload("reproduce", _reproduce_commands, gate_reproduce, _reproduce_warmup),
        Workload("sample", _sample_commands, gate_sample),
        Workload("exact", _exact_commands, gate_exact),
    )
}


# ---------------------------------------------------------------------------
# Output parsing and independent references
# ---------------------------------------------------------------------------


def parse_histogram(text: str) -> dict[int, int]:
    lines = text.split()
    if not lines or lines[0] != "gamma,count":
        raise ValueError("sample output lacks its 'gamma,count' header")
    bins = {}
    for line in lines[1:]:
        size, _, count = line.partition(",")
        try:
            bins[int(size)] = int(count)
        except ValueError:
            raise ValueError(f"bad histogram row {line!r}") from None
    if not bins:
        raise ValueError("sample output has no histogram rows")
    return bins


def histogram_problems(bins: dict[int, int], n: int, samples: int) -> list[str]:
    problems = []
    total = sum(bins.values())
    if total != samples:
        problems.append(f"histogram total {total} != {samples} samples")
        return problems
    lo, hi = math.ceil(n / 3), math.ceil(n / 2)
    if min(bins) < lo or max(bins) > hi:
        problems.append(f"support [{min(bins)}, {max(bins)}] outside [{lo}, {hi}]")
    mean = sum(size * c for size, c in bins.items()) / total
    variance = sum(c * (size - mean) ** 2 for size, c in bins.items()) / total
    bound = 5 * math.sqrt(variance / total)
    gap = abs(mean - expected_gamma_path_float(n))
    if gap > bound:
        problems.append(f"|mean - E(n)| = {gap:.4f} exceeds 5 SE = {bound:.4f}")
    return problems


def parse_series_worst(text: str, order: int) -> list[int]:
    lines = text.split()
    if not lines or lines[0] != "n,odd_config,worst_case":
        raise ValueError("series output lacks its header")
    worst = []
    for expected_n, line in enumerate(lines[1:]):
        fields = line.split(",")
        if len(fields) != 3 or fields[0] != str(expected_n):
            raise ValueError(f"bad series row {line[:80]!r}")
        worst.append(int(fields[2]))
    if len(worst) != order + 1:
        raise ValueError(f"series has {len(worst)} rows, expected {order + 1}")
    return worst


def parse_extremal_count(text: str, method: str) -> int:
    head, sep, _ = text.strip().partition(" orders of length")
    prefix = f"{method}: "
    if not sep or not head.startswith(prefix):
        raise ValueError(f"extremal output {text[:80]!r} lacks a {method} count")
    return int(head[len(prefix):])


def expected_gamma_path_float(n: int) -> float:
    """E(n) = 1 + (2/n) sum_{i<=n-2} E(i) in floats.

    Kept here, apart from the package, so the gate does not trust the code
    it checks.
    """
    values = [0.0, 1.0]
    below = 0.0  # E(1) + ... + E(m - 2)
    for m in range(2, n + 1):
        below += values[m - 2]
        values.append(1.0 + 2.0 * below / m)
    return values[n]


# ---------------------------------------------------------------------------
# Invocation
# ---------------------------------------------------------------------------


@dataclass
class Invocation:
    returncode: int
    wall_s: float
    cpu_s: float  # user + system, the child and every child it waited for
    max_rss_mb: float
    stdout: str
    stderr: str


def child_env() -> dict[str, str]:
    """The environment every invocation runs in.

    PATHDOM_* knobs would change worker counts or check ranges; the BLAS
    thread variables keep numpy to one thread; PYTHONINTMAXSTRDIGITS is
    dropped so the interpreter's default integer-string limit applies.
    """
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("PATHDOM_")
        and key not in ("PYTHONPATH", "PYTHONINTMAXSTRDIGITS")
    }
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=str(SRC),
    )
    return env


def _drain(stream, sink: list[bytes]) -> None:
    sink.append(stream.read())
    stream.close()


def invoke(argv: Sequence[str], env: dict[str, str], timeout: float = INVOCATION_TIMEOUT_S) -> Invocation:
    """Run one command to completion, reading both pipes while it runs.

    The child leads its own process group, so a timeout also stops the
    pool workers it may have started.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(
        list(argv), cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    out: list[bytes] = []
    err: list[bytes] = []
    readers = [
        threading.Thread(target=_drain, args=(proc.stdout, out)),
        threading.Thread(target=_drain, args=(proc.stderr, err)),
    ]
    for reader in readers:
        reader.start()
    killer = threading.Timer(timeout, _kill_group, args=(proc.pid,))
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: stop the child's whole group, reap it, re-raise
        _kill_group(proc.pid)
        os.wait4(proc.pid, 0)
        raise
    finally:
        killer.cancel()
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    for reader in readers:
        reader.join()
    return Invocation(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        max_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=b"".join(out).decode("utf-8", "replace"),
        stderr=b"".join(err).decode("utf-8", "replace"),
    )


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def pathdom_argv(args: Sequence[str]) -> list[str]:
    return [sys.executable, "-m", "pathdom", *args]


def traced_argv(args: Sequence[str], spans_path: Path, run_id: int) -> list[str]:
    return [sys.executable, str(TRACER), str(spans_path), str(run_id), "--", *args]


# ---------------------------------------------------------------------------
# Passes and statistics
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    """One run of a workload: its invocations in order, each with a verdict."""

    commands: list[list[str]]  # the pathdom arguments of each invocation
    invocations: list[Invocation]
    verdicts: list[Verdict]

    @property
    def wall_s(self) -> float:
        return sum(inv.wall_s for inv in self.invocations)

    @property
    def cpu_s(self) -> float:
        return sum(inv.cpu_s for inv in self.invocations)

    @property
    def peak_rss_mb(self) -> float:
        return max(inv.max_rss_mb for inv in self.invocations)


def run_pass(
    workload: Workload,
    state: GateState,
    env: dict[str, str],
    argv_for: Callable[[list[str]], list[str]] = pathdom_argv,
    warmup: bool = False,
) -> Pass:
    commands = (workload.warmup if warmup and workload.warmup else workload.commands)(state.seed)
    invocations = [invoke(argv_for(args), env) for args in commands]
    return Pass(commands, invocations, workload.gate(invocations, state))


def error_counts(passes: Sequence[Pass]) -> tuple[int, int, bool]:
    """(attempted, failed, correct) over the passes' invocations.

    An invocation that exits non-zero or prints a wrong answer counts as
    failed; `correct` is false only when some output was wrong.
    """
    verdicts = [v for p in passes for v in p.verdicts]
    failed = sum(v.error for v in verdicts)
    correct = not any(v.problems for v in verdicts)
    return len(verdicts), failed, correct


def tail_percentile(values: Sequence[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten values above it, and its value.

    With k values, the value of rank k - 10 has exactly ten above it, and it
    sits at percentile floor(100 (k - 10) / k).  Fewer than 11 values have
    no such percentile.
    """
    k = len(values)
    if k < 11:
        return None
    ordered = sorted(values)
    return (100 * (k - 10)) // k, ordered[k - 11]


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the run-to-run spread the bounds are set against."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def describe(name: str, unit: str, values: Sequence[float]) -> str:
    tail = tail_percentile(values)
    tail_text = f"p{tail[0]} {tail[1]:.6g}" if tail else "p-tail n/a"
    return f"{name:<40} {statistics.median(values):>12.6g} {unit:<6} median, {tail_text}, n={len(values)}"


def environment_record() -> dict:
    """The machine, versions and commit a run set ran on."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "unknown"
    commit = "unknown"  # a checkout without .git, or no git on the machine
    if (ROOT / ".git").exists():
        try:
            result = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            )
        except OSError:
            result = None
        if result is not None and result.returncode == 0:
            commit = result.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "commit": commit,
    }

