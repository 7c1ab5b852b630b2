"""The repository's benchmark, one command per run::

    python3 perfbench/run.py --workload cold-compile|paper-sweep|vqe-serve \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  Each run builds nothing but bytecode:
before the first run in a checkout it compiles ``src/`` and this
directory into a benchmark-owned ``PYTHONPYCACHEPREFIX`` under
``.bench_build/``, so set-up time never depends on a ``__pycache__``
the checkout happens to have.  Every measurement then runs in a fresh
interpreter (``child.py``) with a private ``REPRO_CACHE_DIR``, tracing
off, one worker and one BLAS thread.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  The
seed's request list is run in three processes, one after another, each
paying its own set-up and making one timed pass of ``S / 3`` nominal
seconds; the last pass also runs the output checks.  Set-up is the
median of the three.  Throughput counts each request with its median
over the passes of its latency rescaled by the host reference kernel
timed around it, so that a shared host's drift in speed does not read
as a change of the program (see README.md).  ``--trace 1`` prints the
per-layer metrics: counts from one untraced pass, layer times from a
traced one that also writes a Perfetto trace.  The last stdout line is
the JSON result; the exit code is 0 only when every process finished.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
PYCACHE = os.path.join(BUILD, "pycache")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

sys.path.insert(0, HERE)

from layers import layer_table  # noqa: E402
from stats import (  # noqa: E402
    host_normalized,
    percentile,
    ratio,
    samples_beyond,
    supported_percentile,
    throughput,
)

#: Processes per end-to-end run: each sets up and makes one timed pass.
PASSES = 3
#: Every run, bytecode build included, ends within this many seconds.
RUN_DEADLINE_S = 170.0
#: Modules imported once to fill the bytecode prefix for the stdlib and
#: third-party code the children load.
WARM_IMPORTS = (
    "import pkgutil, importlib, asyncio, http.client, concurrent.futures, "
    "repro, workloads, layers, child\n"
    "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
    "    importlib.import_module(info.name)\n"
)


class BenchError(RuntimeError):
    """A run that cannot produce a result."""


def source_digest() -> str:
    """Fingerprint of the interpreter and every source file compiled."""
    digest = hashlib.sha256(sys.version.encode())
    for top in (SRC, HERE):
        for folder, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    stat = os.stat(path)
                    digest.update(
                        f"{os.path.relpath(path, ROOT)}:{stat.st_size}:"
                        f"{stat.st_mtime_ns}\n".encode()
                    )
    return digest.hexdigest()


def child_env(cache_dir: str, hash_seed: int = 0,
              write_bytecode: bool = False) -> Dict[str, str]:
    """The scrubbed environment every benchmark process runs in."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
        and not (key.startswith("PYTHON") and key != "PYTHONHOME")
    }
    env.update(
        PYTHONPATH=os.pathsep.join([SRC, HERE]),
        PYTHONPYCACHEPREFIX=PYCACHE,
        PYTHONHASHSEED=str(hash_seed),
        REPRO_CACHE="on",
        REPRO_CACHE_DIR=cache_dir,
        REPRO_JOBS="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    if not write_bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def prepare_bytecode(deadline: float) -> None:
    """Fill the benchmark's bytecode prefix once per source state."""
    stamp = os.path.join(BUILD, "pycache.stamp")
    digest = source_digest()
    try:
        with open(stamp) as handle:
            if handle.read() == digest:
                return
    except FileNotFoundError:
        pass
    shutil.rmtree(PYCACHE, ignore_errors=True)
    os.makedirs(PYCACHE, exist_ok=True)
    env = child_env(os.path.join(BUILD, "unused-cache"), write_bytecode=True)
    for command in (
        [sys.executable, "-m", "compileall", "-q", SRC, HERE],
        [sys.executable, "-c", WARM_IMPORTS],
    ):
        completed = subprocess.run(
            command, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if completed.returncode != 0:
            raise BenchError(f"bytecode build failed:\n{completed.stderr[-2000:]}")
    with open(stamp, "w") as handle:
        handle.write(digest)


def run_child(config: Dict[str, Any], workdir: str, deadline: float,
              hash_seed: int = 0) -> Dict[str, Any]:
    """One fresh interpreter with its own empty disk cache; returns its
    JSON result."""
    env = child_env(tempfile.mkdtemp(prefix="cache-", dir=workdir), hash_seed)
    config = dict(config, spawn=time.monotonic())
    try:
        completed = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(config)],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{config['mode']} process passed the run deadline")
    if completed.returncode != 0:
        raise BenchError(
            f"{config['mode']} process exited {completed.returncode}:\n"
            f"{completed.stderr[-3000:]}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

#: Output fields of a request that must repeat exactly in every pass.
EXACT_FIELDS = ("served", "cnot", "depth", "duration", "gates", "swap_cnots",
                "bridge_cnots", "canceled_cnots", "logical_cnots")
#: The tail percentile reported per layer: a 400-request vqe-serve pass
#: has at least 10 samples beyond it overall and among its binds.
TAIL_PCT = 95.0


def completed_ops(result: Dict[str, Any]) -> List[Dict[str, Any]]:
    failed = set(result["checks"]["failed_ops"])
    return [op for i, op in enumerate(result["ops"])
            if op["ok"] and i not in failed]


def failed_count(result: Dict[str, Any]) -> int:
    return len(result["ops"]) - len(completed_ops(result))


def timed_seconds(result: Dict[str, Any]) -> float:
    return sum(op["latency_s"] for op in result["ops"])


def fold_passes(results: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold passes over the same request list into one: each request
    keeps its median latency and its median latency on the reference
    host, and fails if any pass failed it or its outputs differ between
    passes."""
    first = results[0]["ops"]
    if any(len(result["ops"]) != len(first) for result in results):
        raise BenchError("passes ran request lists of different lengths")
    failed = set()
    for result in results:
        failed.update(result["checks"]["failed_ops"])
    ops = []
    for index, op in enumerate(first):
        runs = [result["ops"][index] for result in results]
        outputs = {tuple(run[k] for k in EXACT_FIELDS) for run in runs}
        if len(outputs) > 1:
            failed.add(index)
        ops.append(dict(
            op, ok=all(run["ok"] for run in runs),
            latency_s=statistics.median(run["latency_s"] for run in runs),
            normalized_s=statistics.median(normalized_s(run) for run in runs),
        ))
    return {"ops": ops, "checks": {"failed_ops": sorted(failed)}}


def failed_executions(results: List[Dict[str, Any]],
                      folded: Dict[str, Any]) -> int:
    """Request executions that failed: each one that raised or got a
    wrong reply, and every execution of a request whose output check
    failed or whose outputs differ between passes."""
    failed = set(folded["checks"]["failed_ops"])
    return sum(
        1 for result in results for index, op in enumerate(result["ops"])
        if not op["ok"] or index in failed
    )


def latency_ms(ops: List[Dict[str, Any]], kind: Optional[str] = None) -> List[float]:
    return [op["latency_s"] * 1e3 for op in ops
            if kind is None or op["kind"] == kind]


def pct_or_zero(values: List[float], pct: float) -> float:
    return percentile(values, pct) if values else 0.0


def normalized_s(op: Dict[str, Any]) -> float:
    """A request's latency on the reference host (see stats.py)."""
    return host_normalized(op["latency_s"], op["host_s"])


def normalized_seconds(result: Dict[str, Any]) -> float:
    """A pass's timed seconds on the reference host."""
    return sum(normalized_s(op) for op in result["ops"])


def folded_seconds(folded: Dict[str, Any]) -> float:
    """Folded passes' timed seconds on the reference host: each
    request's median over the passes."""
    return sum(op["normalized_s"] for op in folded["ops"])


def end_to_end(results: List[Dict[str, Any]]) -> Dict[str, float]:
    folded = fold_passes(results)
    ops = completed_ops(folded)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "throughput_per_s": throughput(len(ops), folded_seconds(folded)),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "cnot_total": sum(op["cnot"] for op in ops),
        "depth_total": sum(op["depth"] for op in ops),
        "duration_total": sum(op["duration"] for op in ops),
    }


def request_latency(result: Dict[str, Any]) -> Dict[str, float]:
    """Median and tail request latency (ungated: see README)."""
    latencies = latency_ms(completed_ops(result))
    return {
        "request.p50_ms": pct_or_zero(latencies, 50),
        f"request.p{TAIL_PCT:g}_ms": pct_or_zero(latencies, TAIL_PCT),
    }


def per_layer(counted: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, float]:
    """Counts and round trips from the untraced run, layer times from
    the traced one."""
    ops = completed_ops(counted)
    counters = counted["counters"]
    by_kind = {kind: latency_ms(ops, kind) for kind in ("bind", "hot", "fresh")}
    served = [op["served"] for op in counted["ops"]]
    compiles = served.count("hot") + served.count("fresh") + served.count("disk")
    attribution = traced["attribution"]
    checks = traced["checks"]
    bind_ms = pct_or_zero([s * 1e3 for s in checks["bind_s"]], 50)
    bound_measure_ms = pct_or_zero([s * 1e3 for s in checks["bound_measure_s"]], 50)
    bind_p50 = pct_or_zero(by_kind["bind"], 50)
    metrics = {
        **request_latency(counted),
        "workloads.build_s": attribution.get("workload:build", 0.0),
        "workloads.builds": counters.get("workload.builds", 0),
        "workloads.memo_hit_ratio": ratio(
            counters.get("workload.memo_hits", 0),
            counters.get("workload.memo_hits", 0)
            + counters.get("workload.memo_misses", 0),
        ),
        "opt.bridge_cnots": sum(op["bridge_cnots"] for op in ops),
        "opt.cancel_ratio": ratio(sum(op["canceled_cnots"] for op in ops),
                                  sum(op["logical_cnots"] for op in ops)),
        "opt.swap_cnots": sum(op["swap_cnots"] for op in ops),
        "circuit.measure_ms": pct_or_zero([s * 1e3 for s in checks["measure_s"]], 50),
        "job.remainder_s": attribution.get("job:run", 0.0)
        + attribution.get("pipeline:run", 0.0),
        "out.gates": sum(op["gates"] for op in ops),
        "template.bind_ms": bind_ms,
        "service.to_json_s": checks["serialize_s"],
        "service.result_bytes": counted["checks"]["result_bytes"],
        "cache.put_s": attribution.get("cache:put", 0.0),
        "cache.puts": counters.get("cache.puts", 0),
        "serve.bind.p50_ms": bind_p50,
        f"serve.bind.p{TAIL_PCT:g}_ms": pct_or_zero(by_kind["bind"], TAIL_PCT),
        "serve.compile-hot.p50_ms": pct_or_zero(by_kind["hot"], 50),
        "serve.compile-fresh.p50_ms": pct_or_zero(by_kind["fresh"], 50),
        "serve.protocol.p50_ms": (
            max(0.0, bind_p50 - bind_ms - bound_measure_ms) if bind_p50 else 0.0
        ),
        "serve.served.hot": served.count("hot"),
        "serve.served.fresh": served.count("fresh"),
        "serve.served.template": served.count("template"),
        "serve.hot_hit_ratio": ratio(served.count("hot"), compiles),
        "gc.gen0": counted["gc"][0],
        "gc.gen1": counted["gc"][1],
        "gc.gen2": counted["gc"][2],
        "host.ref_ms": statistics.median(counted["host_s"]) * 1e3,
        "throughput.wall_per_s": throughput(len(ops), timed_seconds(counted)),
        "obs.overhead_ratio": ratio(normalized_seconds(traced),
                                    normalized_seconds(counted)),
        "trace.unattributed_s": attribution.get("unattributed", 0.0),
    }
    for name, seconds in attribution.items():
        if name.startswith("pass:"):
            metrics[f"pass.{name[len('pass:'):]}_s"] = seconds
    return metrics


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------

def declared(kind: str) -> List[Dict[str, Any]]:
    with open(SPEC) as handle:
        return json.load(handle)[kind]


def emit(values: Dict[str, float], kind: str) -> Dict[str, Any]:
    """Exactly the metrics BENCHMARK.json declares, with their units;
    a declared pass no process ran reads 0."""
    out = {}
    for metric in declared(kind):
        name = metric["name"]
        if name not in values and not name.startswith("pass."):
            raise BenchError(f"metric {name!r} was not computed")
        out[name] = {"value": values.get(name, 0.0), "unit": metric["unit"]}
    return out


def print_checks(results: List[Dict[str, Any]]) -> None:
    for result in results:
        checks = result["checks"]
        for note in checks["notes"][:10]:
            print(f"  CHECK FAILED: {note}")
        for op in result["ops"]:
            if op["error"]:
                print(f"  REQUEST FAILED: {op['error']}")
                break


def print_end_to_end(args, results, metrics) -> None:
    folded = fold_passes(results)
    ops = completed_ops(folded)
    n = len(ops)
    kinds: Dict[str, int] = {}
    for op in folded["ops"]:
        kinds[op["kind"]] = kinds.get(op["kind"], 0) + 1
    mix = ", ".join(f"{count} {kind}" for kind, count in sorted(kinds.items()))
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds}: "
          f"{len(folded['ops'])} requests ({mix}) x {len(results)} passes, "
          f"{failed_executions(results, folded)} failed")
    print(f"  setup_s          {metrics['setup_s']:.4f} s  (median of "
          + " ".join(f"{r['setup_s']:.3f}" for r in results) + ")")
    print(f"  throughput_per_s {metrics['throughput_per_s']:.4f} 1/s  "
          f"({n} completed in {folded_seconds(folded):.3f} s on the "
          f"reference host, each request's median pass; passes "
          + " ".join(f"{normalized_seconds(r):.3f}" for r in results)
          + " s)")
    for name in ("peak_rss_mb", "cnot_total", "depth_total", "duration_total"):
        print(f"  {name:<16} {metrics[name]}")
    print("  raw timings, ungated:")
    for index, result in enumerate(results):
        host = result["host_s"]
        print(f"  pass {index + 1}: {timed_seconds(result):.3f} timed s, "
              f"{throughput(n, timed_seconds(result)):.4f} 1/s on this host; "
              f"host.ref_ms {statistics.median(host) * 1e3:.3f} (median of "
              f"{len(host)} samples)")
    latency = request_latency(folded)
    tail = supported_percentile(n)
    print(f"  request.p50_ms   {latency['request.p50_ms']:.3f} ms  (n={n}, "
          f"{samples_beyond(n, 50)} beyond; each request's median pass)")
    print(f"  request.p{TAIL_PCT:g}_ms   "
          f"{latency[f'request.p{TAIL_PCT:g}_ms']:.3f} ms  (n={n}, "
          f"{samples_beyond(n, TAIL_PCT)} beyond; highest percentile with "
          f">= 10 beyond: {'none' if tail is None else f'p{tail:g}'})")


def print_layers(counted, traced, metrics) -> None:
    attribution = traced["attribution"]
    total = sum(attribution.values())
    print(f"perfbench traced run: {total:.3f} s of request time "
          f"(untraced {timed_seconds(counted):.3f} s, obs.overhead_ratio "
          f"{metrics['obs.overhead_ratio']:.3f}); trace: "
          f"{os.path.relpath(traced['trace_out'], ROOT)}")
    print(f"  {'layer':<40} {'self s':>9} {'share':>7}")
    for layer, seconds in layer_table(attribution):
        print(f"  {layer:<40} {seconds:9.3f} {ratio(seconds, total):7.1%}")
    binds = metrics["serve.served.template"]
    if binds:
        measure_s = binds * statistics.median(traced["checks"]["bound_measure_s"])
        print(f"  of the remainder, measure_circuit on {binds} bound circuits "
              f"is about {measure_s:.3f} s ({ratio(measure_s, total):.1%}), "
              f"from the in-process replay")
    print("  by span:")
    for name, seconds in sorted(attribution.items(), key=lambda kv: -kv[1]):
        print(f"    {name:<38} {seconds:9.3f} {ratio(seconds, total):7.1%}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold-compile", "paper-sweep", "vqe-serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    try:
        prepare_bytecode(deadline)
        os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(BUILD, "tmp"))
        try:
            config = {"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds / PASSES, "start": 0.0}
            if args.trace:
                counted = run_child(dict(config, mode="measure", checks=True),
                                    workdir, deadline)
                trace_out = os.path.join(
                    BUILD, "traces", f"{args.workload}-seed{args.seed}.json")
                os.makedirs(os.path.dirname(trace_out), exist_ok=True)
                traced = run_child(dict(config, mode="trace", checks=True,
                                        trace_out=trace_out), workdir, deadline)
                metrics = per_layer(counted, traced)
                print_layers(counted, traced, metrics)
                results = [counted, traced]
                attempted = len(counted["ops"])
                failed = max(failed_count(r) for r in results)
                kind = "per_layer"
            else:
                # Each pass starts a third further into the request list,
                # so each request runs early, midway and late once.
                results = [
                    run_child(dict(config, mode="measure", start=index / PASSES,
                                   checks=index == PASSES - 1),
                              workdir, deadline)
                    for index in range(PASSES)
                ]
                metrics = end_to_end(results)
                print_end_to_end(args, results, metrics)
                attempted = sum(len(r["ops"]) for r in results)
                failed = failed_executions(results, fold_passes(results))
                kind = "end_to_end"
            print_checks(results)
            payload = {
                "correct": failed == 0 and all(r["checks"]["ok"]
                                               for r in results),
                "attempted": attempted,
                "failed": failed,
                "metrics": emit(metrics, kind),
            }
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
