"""Numeric helpers of the benchmark: percentiles, throughput, host speed.

Pure functions over plain numbers (no ``repro`` import), so the
selftest can pin their arithmetic without building any workload.
"""

from __future__ import annotations

import bisect
import gc
import math
import statistics
import time
from typing import Optional, Sequence, Tuple

import numpy as np

#: A percentile is reported only when at least this many samples lie
#: beyond it; fewer and the value is decided by one or two outliers.
MIN_BEYOND = 10

#: The reference host: one that runs the host reference kernel in this
#: many seconds.  Host-normalized times are expressed on it.
REFERENCE_HOST_S = 1e-3

#: Candidate tail percentiles, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie above the ``pct`` percentile."""
    below = math.ceil(round(n * pct / 100.0, 9))
    return n - below


def supported_percentile(
    n: int, candidates: Sequence[float] = TAIL_CANDIDATES
) -> Optional[float]:
    """The highest candidate percentile with at least :data:`MIN_BEYOND`
    samples beyond it, or None when ``n`` is too small for any."""
    for pct in candidates:
        if samples_beyond(n, pct) >= MIN_BEYOND:
            return pct
    return None


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=float), pct))


def throughput(completed: int, timed_seconds: float) -> float:
    """Completed operations per timed second."""
    if timed_seconds <= 0:
        raise ValueError(f"timed seconds must be positive, got {timed_seconds}")
    return completed / timed_seconds


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the run-to-run spread the bounds are set against."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def host_reference_kernel() -> float:
    """Fixed work on Python containers, a sort and a numpy op.

    It touches no benchmark or program state, so its time moves only
    with the host's speed.
    """
    table = {i: (i * 7919) % 10007 for i in range(4000)}
    order = sorted(table, key=table.__getitem__)
    values = np.arange(20000, dtype=np.float64)
    return len(order) + float(np.dot(values, values[::-1]))


def time_host_reference(repeats: int = 5) -> float:
    """Median seconds of ``repeats`` kernel runs after one untimed run,
    with the collector paused.  The untimed run brings the kernel's own
    data into cache, so the timed ones do not depend on what the program
    left there, and a large live heap cannot add a collection to them."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        host_reference_kernel()
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            host_reference_kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times)
    finally:
        if was_enabled:
            gc.enable()


def local_host_s(samples: Sequence[Tuple[float, float]], start: float,
                 end: float) -> float:
    """Median kernel seconds over the ``(moment, seconds)`` samples taken
    during ``[start, end]`` and the nearest one on each side of it.
    ``samples`` are sorted by moment."""
    moments = [moment for moment, _ in samples]
    low = bisect.bisect_left(moments, start)
    high = bisect.bisect_right(moments, end)
    return statistics.median(
        seconds for _, seconds in samples[max(0, low - 1):high + 1]
    )


def host_normalized(latency_s: float, host_s: float) -> float:
    """``latency_s`` on the reference host, given the kernel time
    ``host_s`` measured around it."""
    return latency_s * REFERENCE_HOST_S / host_s
