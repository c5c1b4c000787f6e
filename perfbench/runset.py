"""Run the benchmark over several seeds, interleaving workloads, and report spreads.

    python3 perfbench/runset.py --seeds 1 2 3 4 5 6 7 8 9 10 [--out runset.json]

Each seed runs every workload of BENCHMARK.json once, untraced, in an order
that rotates from seed to seed, so drift in the machine's speed reaches all
workloads alike.  Traced runs go through run.py --trace 1.  For each
end-to-end metric the report gives the median, the quartiles and the
quartile spread (Q3 - Q1) / median next to the metric's bound from
BENCHMARK.json, together with the machine, versions, commit, load average at
start and end, and the run count.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    result = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=harness.ROOT, capture_output=True, text=True,
    )
    if result.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {result.returncode}: {result.stderr[-500:]}")
    return json.loads(result.stdout.strip().splitlines()[-1])


def summarize(values: list[float], bound: float | None) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": harness.quartile_spread(values) if median else 0.0,
        "bound": bound, "runs": len(values), "values": values,
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = harness.environment_record()
    record["loadavg_start"] = list(os.getloadavg())
    workloads = [w["name"] for w in spec["workloads"]]
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for i, seed in enumerate(args.seeds):
        shift = i % len(workloads)
        for workload in workloads[shift:] + workloads[:shift]:
            runs[workload].append(run_once(workload, seed, spec["run_seconds"]))
    record["loadavg_end"] = list(os.getloadavg())

    report = {"env": record, "seeds": args.seeds, "workloads": {}}
    for workload, results in runs.items():
        names = results[0]["metrics"]
        report["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "correct": all(r["correct"] for r in results),
            "metrics": {
                name: summarize([r["metrics"][name]["value"] for r in results], bounds.get(name))
                for name in names
            },
        }
    for workload, summary in report["workloads"].items():
        print(f"{workload}: correct={summary['correct']} "
              f"failed {summary['failed']} / attempted {summary['attempted']}")
        for name, s in summary["metrics"].items():
            bound = f"bound {s['bound']:.2f}" if s["bound"] is not None else ""
            print(f"  {name:<38} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} {bound} n={s['runs']}")
    print("env: " + json.dumps(record, sort_keys=True))
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
