"""Unified tracing and metrics for the whole stack (``repro.obs``).

One question this package answers: *where does the time actually go* —
across workload builds, cache lookups, pipeline passes, and worker
processes, in one coherent timeline.

Spans
-----
Instrumented callsites open nested spans through the module-level
:func:`span` helper::

    from repro import obs

    with obs.trace(out="trace.json") as tracer:
        with obs.span("my:stage", "example", detail="outer"):
            with obs.span("my:substage", "example"):
                ...
    # trace.json now loads in chrome://tracing or ui.perfetto.dev

Outside a :func:`trace` session every ``obs.span(...)`` call returns the
shared no-op span — the disabled path does no allocation and reads no
clocks, so instrumentation is always compiled in (CI gates the overhead
via ``benchmarks/bench_obs.py``).

The batch service forwards tracing into its worker processes and merges
their spans back, so a 2-worker ``repro trace batch`` run produces one
trace containing workload-build, cache-lookup, per-pass, and
worker-execution spans from every pid involved.

Metrics
-------
:data:`~repro.obs.metrics.METRICS` is an always-on process-local
registry of counters/gauges/histograms — cache hits/misses/evictions,
workload-build memoization, worker queue wait, per-pass wall-clocks —
merged across processes the same way spans are.

Exporters
---------
:func:`write_chrome_trace` (Perfetto/Chrome ``trace.json``),
:func:`write_span_log` (JSONL), and :func:`summary_tree` (terminal tree
with self-time percentages).  The ``repro trace`` CLI subcommand wires
all three behind one command; the ``REPRO_TRACE`` / ``REPRO_TRACE_DIR``
environment knobs trace any other CLI invocation without changing its
arguments.
"""

from .export import (
    chrome_trace_events,
    self_time_leaderboard,
    summary_tree,
    to_chrome_trace,
    write_chrome_trace,
    write_span_log,
)
from .metrics import METRICS, Counter, Gauge, Histogram, MetricsRegistry
from .tracer import (
    NULL_SPAN,
    TRACE_DIR_ENV,
    TRACE_ENV,
    Span,
    Tracer,
    add_worker_spans,
    env_trace,
    env_trace_path,
    set_tracer,
    span,
    trace,
    trace_env_configured,
    tracing_enabled,
)

__all__ = [
    "Span",
    "Tracer",
    "NULL_SPAN",
    "span",
    "trace",
    "set_tracer",
    "tracing_enabled",
    "add_worker_spans",
    "env_trace",
    "env_trace_path",
    "trace_env_configured",
    "TRACE_ENV",
    "TRACE_DIR_ENV",
    "METRICS",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "chrome_trace_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_span_log",
    "summary_tree",
    "self_time_leaderboard",
]
