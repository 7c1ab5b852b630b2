"""Process-local metrics registry: counters, gauges, histograms.

Unlike spans, metrics are *always on* — they are plain attribute
increments with no clock reads, cheap enough to leave enabled in every
run.  The well-known instruments (see the module constants below) count
cache hits/misses/evictions, workload-build memoization, worker
queue-wait, and per-pass wall-clocks.

Worker processes :meth:`MetricsRegistry.drain` their registry after
each payload and ship the snapshot back with the result; the parent
:meth:`MetricsRegistry.merge`-accumulates them, so a batch run ends
with one registry describing all processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping


@dataclass
class Counter:
    """A monotonically increasing integer."""

    value: int = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


@dataclass
class Gauge:
    """A point-in-time value (last write wins)."""

    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


@dataclass
class Histogram:
    """Streaming summary of observed values: count/sum/min/max."""

    count: int = 0
    total: float = 0.0
    min: float = field(default=float("inf"))
    max: float = field(default=float("-inf"))

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, float]:
        if not self.count:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Name-addressed instruments, created on first use."""

    def __init__(self):
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self.gauges.get(name)
        if instrument is None:
            instrument = self.gauges[name] = Gauge()
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self.histograms.get(name)
        if instrument is None:
            instrument = self.histograms[name] = Histogram()
        return instrument

    def snapshot(self) -> Dict[str, Any]:
        """Plain-JSON view of every instrument (for pickling/merging)."""
        return {
            "counters": {k: c.value for k, c in sorted(self.counters.items())},
            "gauges": {k: g.value for k, g in sorted(self.gauges.items())},
            "histograms": {
                k: h.as_dict() for k, h in sorted(self.histograms.items())
            },
        }

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Accumulate another registry's snapshot (worker → parent):
        counters add, gauges take the incoming value, histograms pool."""
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, payload in snapshot.get("histograms", {}).items():
            if not payload.get("count"):
                continue
            histogram = self.histogram(name)
            histogram.count += payload["count"]
            histogram.total += payload["total"]
            histogram.min = min(histogram.min, payload["min"])
            histogram.max = max(histogram.max, payload["max"])

    def drain(self) -> Dict[str, Any]:
        """Snapshot then reset — per-payload deltas for worker shipping."""
        snapshot = self.snapshot()
        self.reset()
        return snapshot

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()

    def summary_lines(self) -> List[str]:
        """Human-readable one-per-instrument lines (sorted by name)."""
        lines = []
        for name, counter in sorted(self.counters.items()):
            lines.append(f"{name} = {counter.value}")
        for name, gauge in sorted(self.gauges.items()):
            lines.append(f"{name} = {gauge.value:g}")
        for name, histogram in sorted(self.histograms.items()):
            if not histogram.count:
                continue
            lines.append(
                f"{name}: n={histogram.count} total={histogram.total:.4f}s"
                f" mean={histogram.mean:.4f}s min={histogram.min:.4f}s"
                f" max={histogram.max:.4f}s"
            )
        return lines


#: The process-global registry every instrumented callsite uses.
METRICS = MetricsRegistry()

# Well-known instrument names (one place, so dashboards/tests don't
# scatter string literals).
CACHE_HITS = "cache.hits"
CACHE_MISSES = "cache.misses"
CACHE_PUTS = "cache.puts"
CACHE_EVICTIONS = "cache.evictions"
WORKLOAD_BUILDS = "workload.builds"
WORKLOAD_MEMO_HITS = "workload.memo_hits"
WORKLOAD_MEMO_MISSES = "workload.memo_misses"
JOBS_EXECUTED = "jobs.executed"
JOBS_FAILED = "jobs.failed"
ESTIMATED_FIDELITY = "jobs.estimated_fidelity"
QUEUE_WAIT = "pool.queue_wait_seconds"
PASS_SECONDS = "pipeline.pass_seconds"
SERVE_REQUESTS = "serve.requests"
SERVE_REJECTED = "serve.rejected"
SERVE_DEDUP_HITS = "serve.dedup_hits"
SERVE_HOT_HITS = "serve.hot_hits"
SERVE_HOT_MISSES = "serve.hot_misses"
SERVE_HOT_EVICTIONS = "serve.hot_evictions"
SERVE_QUEUE_WAIT = "serve.queue_wait_seconds"
SERVE_TEMPLATE_BINDS = "serve.template_binds"
