"""Workload-build wall-clocks: ``workload_blocks`` per catalog cell.

Every molecule of Table I and every UCC-n benchmark is built under the
Jordan-Wigner and Bravyi-Kitaev encoders at smoke and full scale, the
way a compile request builds it (``repro.workloads.workload_blocks``:
spec resolution, the scale's block cap, UCCSD encoding).  Each cell
records the first build's seconds (encoder caches cold for smoke cells,
which run first), the best of 7 builds (3 with ``--quick``), and the
block and string counts.

``--gate`` fails when the first build of any smoke-scale cell takes
more than 0.5 s: a capped request must encode only the blocks it keeps,
never the whole operator.

Usage::

    PYTHONPATH=src python benchmarks/bench_workloads.py [--quick] [--gate] \
        [--out BENCH_workloads.json]
"""

from __future__ import annotations

import argparse
import json
import time

import repro.chem  # noqa: F401  (import cost is process set-up, not build)
from repro.pauli.block import total_strings
from repro.workloads import WORKLOADS, workload_blocks

ENCODERS = ("JW", "BK")
SCALES = ("smoke", "full")
SMOKE_CEILING_SECONDS = 0.5


def catalog_specs():
    return [f"{provider}:{name}" for provider in ("chem", "ucc")
            for name in WORKLOADS.get(provider).instance_names()]


def bench_cell(spec: str, encoder: str, scale: str, repeats: int) -> dict:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        blocks = workload_blocks(spec, encoder, scale)
        times.append(time.perf_counter() - start)
    return {
        "spec": spec,
        "encoder": encoder,
        "scale": scale,
        "blocks": len(blocks),
        "strings": total_strings(blocks),
        "first_seconds": times[0],
        "seconds": min(times),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer repeats (CI)")
    parser.add_argument("--gate", action="store_true",
                        help="exit non-zero when a smoke build is too slow")
    parser.add_argument("--out", default="BENCH_workloads.json")
    args = parser.parse_args(argv)
    repeats = 3 if args.quick else 7

    results = [
        bench_cell(spec, encoder, scale, repeats)
        for scale in SCALES
        for spec in catalog_specs()
        for encoder in ENCODERS
    ]
    payload = {
        "benchmark": "workload-builds",
        "quick": args.quick,
        "repeats": repeats,
        "results": results,
    }
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)

    header = (f"{'spec':<12} {'enc':<3} {'scale':<6} {'blocks':>6} "
              f"{'strings':>7} {'first s':>9} {'best s':>9}")
    print(header)
    print("-" * len(header))
    for row in results:
        print(f"{row['spec']:<12} {row['encoder']:<3} {row['scale']:<6} "
              f"{row['blocks']:>6} {row['strings']:>7} "
              f"{row['first_seconds']:>9.4f} {row['seconds']:>9.4f}")
    print(f"wrote {args.out}")

    if args.gate:
        failures = [
            f"{row['spec']} {row['encoder']} smoke: first build "
            f"{row['first_seconds']:.3f}s > {SMOKE_CEILING_SECONDS}s"
            for row in results
            if row["scale"] == "smoke"
            and row["first_seconds"] > SMOKE_CEILING_SECONDS
        ]
        for failure in failures:
            print(f"FAIL: {failure}")
        if failures:
            return 1
        print(f"gate ok: every smoke build under {SMOKE_CEILING_SECONDS}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
