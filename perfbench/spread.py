"""Run the benchmark once per seed and print each metric's run-to-run spread.

    python3 perfbench/spread.py --workload vqe-serve --seeds 1-10 [--trace 1]

For every metric: the median over the runs and the quartile spread
``(Q3 - Q1) / median`` (``statistics.quantiles(values, n=4)``), next to
the metric's bound from BENCHMARK.json.  A benchmark is steady when
each spread stays well inside its bound.  Runs go one after another, so
they never compete for the CPU.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from stats import quartile_spread  # noqa: E402


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[kind]}
    values: Dict[str, List[float]] = {name: [] for name in bounds}
    for seed in parse_seeds(args.seeds):
        completed = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        if completed.returncode != 0:
            print(f"seed {seed}: exit {completed.returncode}\n{completed.stderr}")
            return 1
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{name}={m['value']:.6g}"
                         for name, m in result["metrics"].items()
                         if bounds[name] is not None or args.trace),
              flush=True)
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
    print(f"{'metric':<28} {'median':>14} {'spread':>8} {'bound':>6}")
    for name, series in values.items():
        median = statistics.median(series)
        spread = quartile_spread(series) if len(series) > 1 else 0.0
        bound = bounds[name]
        verdict = ""
        if bound is not None:
            verdict = "steady" if spread < bound / 3 else (
                "within bound" if spread <= bound else "TOO NOISY")
        print(f"{name:<28} {median:14.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
