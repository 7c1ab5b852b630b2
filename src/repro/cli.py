"""Command-line compilation tool.

Compile any built-in benchmark with any compiler onto any device and print
the metrics (optionally dumping OpenQASM).  Workloads, devices, and
compilers are registry spec strings — legacy names still work, and
compilers are full pipeline specs (variants, parameter assignments, or
custom pass lists)::

    python -m repro.cli --bench LiH --compiler tetris --device ithaca
    python -m repro.cli --bench chem:LiH --device grid:8x8
    python -m repro.cli --bench LiH --compiler tetris:no-gray --profile-passes
    python -m repro.cli --bench chem:LiH --parametric   # template + timed bind
    python -m repro.cli --bench qaoa:Rand-16 --compiler tetris-qaoa --qasm out.qasm
    python -m repro.cli --bench ucc:UCC-10 --compiler paulihedral --blocks 50

Batch mode submits a whole job matrix to the parallel compilation
service (cache-first, ``REPRO_JOBS`` workers) and streams results to
JSONL/CSV::

    python -m repro.cli batch --bench LiH,BeH2 --compiler tetris,paulihedral \
        --scale smoke --jobs 4 --jsonl results.jsonl --csv results.csv
    python -m repro.cli batch --bench chem:LiH --device grid:4x4,linear:16 \
        --scale smoke --jsonl results.jsonl
    python -m repro.cli batch --bench chem:LiH --compiler tetris \
        --profile-passes --csv profiled.csv
    python -m repro.cli batch --matrix jobs.json --jsonl results.jsonl

Report mode regenerates the unified experiment report (every paper
table/figure through the manifest, rendered to ``docs/RESULTS.md`` with
per-experiment CSVs and regression gating — see :mod:`repro.report`)::

    python -m repro.cli report --quick --check
    python -m repro.cli report --only table2,fig14 --scale small
    python -m repro.cli report --list

Trace mode runs single/batch compilation inside a tracing session
(:mod:`repro.obs`) and exports a Perfetto-loadable ``trace.json``, an
optional JSONL span log, and a terminal summary tree — including spans
collected inside worker processes::

    python -m repro.cli trace single --bench chem:LiH --profile-passes
    python -m repro.cli trace batch --out trace.json --bench LiH,BeH2 \
        --compiler tetris,paulihedral --scale smoke --jobs 2
    REPRO_TRACE=trace.json python -m repro.cli batch --bench LiH ...

Cache mode inspects and maintains the on-disk result cache::

    python -m repro.cli cache stats
    python -m repro.cli cache stats --json
    python -m repro.cli cache trim --max 500
    python -m repro.cli cache clear

Serve mode runs the persistent compile daemon (:mod:`repro.serve`):
a warm worker pool, an in-memory hot cache over the disk cache,
in-flight request dedup, and per-tenant quotas, over HTTP or stdio::

    python -m repro.cli serve --port 8421 --workers 4
    python -m repro.cli serve --stdio --workers 0

Discover the vocabulary (families, aliases, and the parameter grammar)
with ``--list-benchmarks``, ``--list-compilers``, and ``--list-devices``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import obs
from .analysis import format_table
from .circuit import to_qasm
from .hardware.families import DEVICE_FAMILIES
from .pipeline import (
    PASSES,
    PIPELINES,
    PipelineError,
    split_opt_suffix,
)
from .registry import RegistryError
from .service import (
    CompileJob,
    CsvSink,
    JsonlSink,
    ResultCache,
    cache_enabled,
    compile_job,
    execute_jobs,
    grid_jobs,
    worker_count,
)
from .service.cache import CACHE_DIR_ENV
from .service.jobs import SCALES
from .workloads import workload_specs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Compile a VQA benchmark (see also the 'batch' subcommand).",
    )
    parser.add_argument("--bench",
                        help="workload spec: LiH, chem:LiH, ucc:UCC-10, "
                             "qaoa:Rand-16, ... (see --list-benchmarks)")
    parser.add_argument("--compiler", default="tetris",
                        help="pipeline spec: a compiler name/alias, a variant "
                             "form like tetris:no-gray or tetris:w=0.1, or "
                             "a custom pass list (see --list-compilers)")
    parser.add_argument("--device", default="ithaca",
                        help="device spec: ithaca, grid:8x8, heavy-hex:5, "
                             "linear:72, ring:32, ... (see --list-devices)")
    parser.add_argument("--encoder", default="JW", choices=["JW", "BK"])
    parser.add_argument("--blocks", type=int, default=0,
                        help="truncate to the first N blocks (0 = all)")
    parser.add_argument("--opt-level", type=int, default=3, choices=[0, 1, 3])
    parser.add_argument("--calibration-seed", type=int, default=None,
                        metavar="N",
                        help="compile against the device's seeded synthetic "
                             "calibration and report estimated_fidelity "
                             "(noise-aware pipelines default to seed 0)")
    parser.add_argument("--profile-passes", action="store_true",
                        help="print the per-pass profile (wall time and "
                             "CNOT/1Q/depth deltas) after the metrics")
    parser.add_argument("--parametric", action="store_true",
                        help="compile the Pauli structure once against "
                             "symbolic theta[i] angles, print the template "
                             "summary, and time one angle rebind")
    parser.add_argument("--qasm", default="", help="write OpenQASM to this path")
    parser.add_argument("--list-benchmarks", action="store_true",
                        help="print every workload provider + instance and exit")
    parser.add_argument("--list-compilers", action="store_true",
                        help="print every compiler registry entry and exit")
    parser.add_argument("--list-pipelines", action="store_true",
                        help="print the PIPELINES registry with its spec "
                             "grammar, variants, and pass vocabulary, then exit")
    parser.add_argument("--list-devices", action="store_true",
                        help="print every device family + grammar and exit")
    return parser


def print_benchmarks() -> None:
    for provider, grammar, instances in workload_specs():
        print(f"{provider}: {grammar}")
        for name in instances:
            print(f"  {provider}:{name}")


def print_compilers() -> None:
    print("compiler pipelines (spec: <name>[:<variant>,...], or a "
          "comma-separated pass list; single mode also accepts a "
          "+o<level> suffix — batch jobs use --opt-level):")
    for entry in PIPELINES.entries():
        aliases = f" (aliases: {', '.join(entry.aliases)})" if entry.aliases else ""
        print(f"  {entry.grammar}{aliases}")
        print(f"      passes: {entry.description}")


def print_devices() -> None:
    print("device families (spec: <family>[:<params>]):")
    for entry in DEVICE_FAMILIES.entries():
        aliases = f" (aliases: {', '.join(entry.aliases)})" if entry.aliases else ""
        print(f"  {entry.grammar}{aliases}")
        print(f"      {entry.description}")


def print_pipelines() -> None:
    """The full PIPELINES registry: grammar, variants, and pass vocabulary."""
    print("pipeline spec grammar:")
    print("  <pipeline>[:<variant>|<param>=<value>,...][+o<level>]   "
          "(levels: 0, 1, 3)")
    print("  <pass>,<pass>,...   (custom pass list; cleanup tail appended)")
    print()
    print("registered pipelines:")
    for entry in PIPELINES.entries():
        aliases = f" (aliases: {', '.join(entry.aliases)})" if entry.aliases else ""
        print(f"  {entry.grammar}{aliases}")
        print(f"      passes: {entry.description}")
        definition = PIPELINES.get(entry.name)
        for variant, params in sorted(definition.variants.items()):
            overrides = ", ".join(f"{k}={v}" for k, v in sorted(params.items()))
            print(f"      variant {variant}: {overrides}")
        for short, full in sorted(definition.param_aliases.items()):
            print(f"      param alias {short} -> {full}")
    print()
    print("registered passes (for custom lists):")
    for entry in PASSES.entries():
        print(f"  {entry.name}: {entry.description}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "cache":
        return cache_main(argv[1:])
    if argv and argv[0] == "serve":
        # The daemon owns its whole lifecycle (signals, shutdown,
        # tracing) — dispatch before the env_trace session below.
        from .serve.cli import serve_main

        return serve_main(argv[1:])
    # REPRO_TRACE traces any plain invocation without changing its args;
    # `repro trace` manages its own session, so this is a no-op there.
    with obs.env_trace() as trace_path:
        if trace_path is not None:
            print(f"tracing to {trace_path} (REPRO_TRACE)")
        return _dispatch(argv)


def _dispatch(argv) -> int:
    if argv and argv[0] == "batch":
        return batch_main(argv[1:])
    if argv and argv[0] == "compile":
        return compile_main(argv[1:])
    if argv and argv[0] == "report":
        from .report.cli import report_main

        return report_main(argv[1:])
    return single_main(argv)


def compile_main(argv) -> int:
    """``repro compile <bench> [--pipeline SPEC] [...]`` — sugar over
    single mode: the first positional is the workload and ``--pipeline``
    is an alias for ``--compiler``, so fidelity-ranked compiles read
    naturally::

        repro compile chem:LiH --device heavy-hex:ibm-65 \\
            --pipeline tetris:noise-aware+select=20
    """
    out = []
    bench = None
    position = 0
    while position < len(argv):
        token = argv[position]
        if token == "--pipeline" and position + 1 < len(argv):
            out.extend(["--compiler", argv[position + 1]])
            position += 2
        elif token.startswith("--pipeline="):
            out.append("--compiler=" + token[len("--pipeline="):])
            position += 1
        elif not token.startswith("-") and bench is None:
            bench = token
            position += 1
        else:
            out.append(token)
            position += 1
    if bench is not None:
        out = ["--bench", bench] + out
    return single_main(out)


def single_main(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_benchmarks:
        print_benchmarks()
        return 0
    if args.list_compilers:
        print_compilers()
        return 0
    if args.list_pipelines:
        print_pipelines()
        return 0
    if args.list_devices:
        print_devices()
        return 0
    if not args.bench:
        parser.error("--bench is required (or use --list-benchmarks)")
    # Single mode is one CompileJob through the service's compile path;
    # it only differs from batch in compiling the untruncated workload
    # and accepting a +o<level> suffix on --compiler.
    try:
        base_spec, suffix_level = split_opt_suffix(args.compiler)
        job = CompileJob(
            bench=args.bench,
            compiler=base_spec,
            encoder=args.encoder,
            device=args.device,
            scale="full",
            blocks=args.blocks,
            optimization_level=(
                args.opt_level if suffix_level is None else suffix_level
            ),
            parametric=args.parametric,
            calibration=args.calibration_seed,
        )
    except (ValueError, KeyError) as exc:
        parser.error(str(exc))
    try:
        result, run = compile_job(job, profile=args.profile_passes)
    except (RegistryError, PipelineError, KeyError) as exc:
        parser.error(str(exc))
    metrics = result.metrics
    row = {
        "bench": args.bench,
        "compiler": run.result.compiler_name,
        "device": run.state.coupling.name,
        **metrics.as_row(),
    }
    if result.estimated_fidelity is not None:
        row["estimated_fidelity"] = f"{result.estimated_fidelity:.6g}"
    print(format_table([row]))
    if args.profile_passes:
        print()
        print(format_table(result.profile.rows()))
        totals = result.profile.totals()
        print(f"pass deltas reconcile: cnot={totals['cnot']} "
              f"oneq={totals['one_qubit']} depth={totals['depth']} "
              f"(metrics: {metrics.cnot_gates}/{metrics.one_qubit_gates}"
              f"/{metrics.depth})")
    template = result.template
    if template is not None:
        bind_start = time.perf_counter()
        bound = template.bind()
        bind_seconds = time.perf_counter() - bind_start
        print()
        print(f"template: {template.num_parameters} parameters, "
              f"{template.num_slots} angle slots, "
              f"structure {template.structure_hash()[:12]}")
        print(f"bind(defaults): {len(bound.gates)} gates in "
              f"{bind_seconds * 1e3:.3f} ms "
              f"(compile was {metrics.compile_seconds:.3f} s)")
    if args.qasm:
        # Parametric circuits carry symbolic angles; QASM needs numbers,
        # so dump the default-angle binding.
        circuit = template.bind() if template is not None else run.result.circuit
        with open(args.qasm, "w") as handle:
            handle.write(to_qasm(circuit))
        print(f"wrote {args.qasm}")
    return 0


# ---------------------------------------------------------------------------
# batch subcommand
# ---------------------------------------------------------------------------

def build_batch_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli batch",
        description="Compile a job matrix through the parallel service.",
    )
    parser.add_argument("--matrix", default="",
                        help="JSON file: a list of job specs, or {\"jobs\": [...]}")
    parser.add_argument("--bench", default="",
                        help="comma-separated workload specs (LiH, chem:LiH, ...)")
    parser.add_argument("--compiler", default="tetris",
                        help="comma-separated compiler names")
    parser.add_argument("--device", default="ithaca",
                        help="comma-separated device specs (ithaca, grid:4x4, ...)")
    parser.add_argument("--encoder", default="JW",
                        help="comma-separated encoders (JW,BK)")
    parser.add_argument("--scale", default="small", choices=SCALES)
    parser.add_argument("--blocks", type=int, default=0,
                        help="truncate every workload to the first N blocks")
    parser.add_argument("--opt-level", type=int, default=3, choices=[0, 1, 3])
    parser.add_argument("--calibration-seed", type=int, default=None,
                        metavar="N",
                        help="compile every cell against the device's seeded "
                             "synthetic calibration; rows gain "
                             "estimated_fidelity")
    parser.add_argument("--jobs", "-j", type=int, default=None,
                        help="worker processes (default: $REPRO_JOBS or 1)")
    parser.add_argument("--jsonl", default="", help="write JSONL results here")
    parser.add_argument("--csv", default="", help="write CSV results here")
    parser.add_argument("--profile-passes", action="store_true",
                        help="attach per-pass profiles: JSONL rows gain a "
                             "'profile' object, CSV rows gain pass_* columns "
                             "(unprofiled cache entries are recomputed)")
    parser.add_argument("--cache-dir", default="",
                        help=f"cache root (default: ${CACHE_DIR_ENV} or ~/.cache/repro)")
    parser.add_argument("--no-cache", action="store_true",
                        help="skip the result cache entirely")
    parser.add_argument("--clear-cache", action="store_true",
                        help="clear the cache before running")
    parser.add_argument("--quiet", "-q", action="store_true",
                        help="suppress per-cell progress lines")
    return parser


def load_matrix(path: str) -> list:
    with open(path) as handle:
        payload = json.load(handle)
    if isinstance(payload, dict):
        payload = payload.get("jobs", [])
    if not isinstance(payload, list):
        raise ValueError("matrix file must be a JSON list or {\"jobs\": [...]}")
    return [CompileJob.from_request(spec) for spec in payload]


def build_grid(args) -> list:
    """Cross product of the comma-separated flags, deduped by content."""
    return grid_jobs(
        [b for b in args.bench.split(",") if b],
        compilers=[c for c in args.compiler.split(",") if c],
        devices=[d for d in args.device.split(",") if d],
        encoders=[e for e in args.encoder.split(",") if e],
        scale=args.scale,
        blocks=args.blocks,
        optimization_level=args.opt_level,
        calibration=args.calibration_seed,
    )


def batch_main(argv=None) -> int:
    parser = build_batch_parser()
    args = parser.parse_args(argv)
    try:
        if args.matrix:
            jobs = load_matrix(args.matrix)
        elif args.bench:
            jobs = build_grid(args)
        else:
            parser.error("provide --matrix FILE or --bench NAMES")
    except (ValueError, OSError) as exc:
        parser.error(str(exc))
    if not jobs:
        parser.error("empty job matrix")

    if args.clear_cache:
        # Clearing is honored even when this run itself won't use the cache.
        scratch = ResultCache(args.cache_dir or None)
        removed = scratch.clear()
        print(f"cleared {removed} cache entries from {scratch.root}")
    cache = None
    if not args.no_cache and cache_enabled():
        cache = ResultCache(args.cache_dir or None)

    sinks = []
    if args.jsonl:
        sinks.append(JsonlSink(args.jsonl))
    if args.csv:
        sinks.append(CsvSink(args.csv, include_profile=args.profile_passes))

    workers = worker_count(args.jobs)
    total = len(jobs)
    print(f"batch: {total} jobs, {workers} worker(s), "
          f"cache={'off' if cache is None else cache.root}")
    start = time.perf_counter()
    failures = 0
    try:
        for done, result in enumerate(
            execute_jobs(jobs, max_workers=args.jobs, cache=cache,
                         use_cache=cache is not None,
                         profile=args.profile_passes),
            start=1,
        ):
            for sink in sinks:
                sink.write(result)
            if result.error is not None:
                failures += 1
                print(f"[{done}/{total}] {result.job.label()} "
                      f"ERROR: {result.error}")
            elif not args.quiet:
                tag = " (cached)" if result.cached else ""
                print(f"[{done}/{total}] {result.job.label()} "
                      f"cnot={result.metrics.cnot_gates} "
                      f"depth={result.metrics.depth} "
                      f"{result.metrics.compile_seconds:.2f}s{tag}")
    finally:
        for sink in sinks:
            sink.close()
    elapsed = time.perf_counter() - start
    summary = f"done: {total} jobs in {elapsed:.1f}s"
    if cache is not None:
        summary += f" ({cache.stats.summary()})"
    if failures:
        summary += f", {failures} FAILED"
    print(summary)
    for sink in sinks:
        print(f"wrote {sink.path} ({sink.count} rows)")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# trace subcommand
# ---------------------------------------------------------------------------

def build_trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli trace",
        description="Run a single/batch compilation inside a tracing "
                    "session and export the trace (see repro.obs). All "
                    "flags after the mode are forwarded to that mode, so "
                    "any 'repro' or 'repro batch' invocation can be traced "
                    "by prefixing it with 'trace single' / 'trace batch'.",
    )
    parser.add_argument("mode", choices=["single", "batch"],
                        help="which CLI mode to run under the tracer")
    parser.add_argument("--out", default="trace.json",
                        help="Chrome/Perfetto trace output path "
                             "(default: trace.json)")
    parser.add_argument("--span-log", default="",
                        help="also write a JSONL span log to this path")
    parser.add_argument("--no-summary", action="store_true",
                        help="suppress the terminal span-summary tree")
    parser.add_argument("--top", type=int, default=0, metavar="N",
                        help="also print the top-N span names by total "
                             "self-time (a flat hot-spot leaderboard)")
    return parser


def trace_main(argv=None) -> int:
    parser = build_trace_parser()
    args, rest = parser.parse_known_args(argv)
    with obs.trace(out=args.out, span_log=args.span_log or None) as tracer:
        with obs.span(f"cli:{args.mode}", "cli"):
            try:
                code = (
                    single_main(rest) if args.mode == "single"
                    else batch_main(rest)
                )
            except SystemExit as exc:  # argparse errors inside the session
                code = int(exc.code or 0)
    if not args.no_summary:
        print()
        print(obs.summary_tree(tracer.spans, main_pid=tracer.pid))
    if args.top > 0:
        print()
        print(obs.self_time_leaderboard(tracer.spans, top=args.top))
    print(f"wrote {args.out} ({len(tracer.spans)} spans; load in "
          f"chrome://tracing or ui.perfetto.dev)")
    if args.span_log:
        print(f"wrote {args.span_log}")
    return code


# ---------------------------------------------------------------------------
# cache subcommand
# ---------------------------------------------------------------------------

def build_cache_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli cache",
        description="Inspect and maintain the on-disk result cache.",
    )
    parser.add_argument("action", choices=["stats", "clear", "trim"])
    parser.add_argument("--cache-dir", default="",
                        help=f"cache root (default: ${CACHE_DIR_ENV} "
                             f"or ~/.cache/repro)")
    parser.add_argument("--max", type=int, default=1000,
                        help="trim: keep at most this many entries "
                             "(oldest evicted first; default 1000)")
    parser.add_argument("--json", action="store_true",
                        help="stats: machine-readable output (same shape "
                             "as the serve daemon's /stats disk_cache "
                             "section)")
    return parser


def cache_stats_payload(cache: ResultCache) -> dict:
    """Machine-readable cache stats — the serve daemon's ``/stats``
    reports its disk cache in this same shape (root/stats/disk), so
    dashboards can parse both identically."""
    return {
        "root": cache.root,
        "enabled": cache_enabled(),
        "stats": cache.stats.as_dict(),
        "disk": cache.disk_stats(),
    }


def cache_main(argv=None) -> int:
    parser = build_cache_parser()
    args = parser.parse_args(argv)
    cache = ResultCache(args.cache_dir or None)
    if args.action == "stats":
        if args.json:
            print(json.dumps(cache_stats_payload(cache), indent=2,
                             sort_keys=True))
            return 0
        disk = cache.disk_stats()
        print(f"cache root: {cache.root}")
        print(f"caching: {'enabled' if cache_enabled() else 'disabled (REPRO_CACHE)'}")
        print(f"entries: {disk['entries']}")
        print(f"size: {disk['bytes']} bytes ({disk['bytes'] / 1e6:.2f} MB)")
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} cache entries from {cache.root}")
        return 0
    removed = cache.trim(args.max)
    print(f"trimmed {removed} cache entries from {cache.root} "
          f"(kept at most {args.max})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
