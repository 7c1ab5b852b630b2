"""One benchmark process: set up a workload, time its requests, check them.

``run.py`` starts this in a fresh interpreter with a scrubbed
environment and one JSON argument::

    {"workload": "vqe-serve", "seed": 3, "seconds": 10, "start": 0.33,
     "mode": "measure" | "trace", "checks": true,
     "spawn": <monotonic time>, "trace_out": "<path>"}

``seconds`` is the nominal length of this process's one pass over the
requests; the pass starts that far (as a share) into the seed's request
list and wraps around, and reports outcomes in list order.  ``measure`` times the requests with tracing off and records
the program's counters; ``trace`` runs the same requests inside
``repro.obs.trace()`` and attributes their time to layers.  With
``checks`` the output checks run after the timed requests.  The last
stdout line is one JSON object.
"""

from __future__ import annotations

import gc
import json
import resource
import signal
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict
from typing import Any, Dict, List, Optional, Tuple

from layers import request_attribution
from repro import obs
from repro.obs.metrics import METRICS
from stats import local_host_s, time_host_reference
from workloads import WORKLOADS, CheckReport, Outcome


class HostSampler:
    """Times the host reference kernel every :attr:`INTERVAL_S` while a
    request runs, from a SIGALRM handler on the main thread, so the
    samples cover long requests too and not only the gaps between them.
    Each sample's span is kept, to be taken off the request it
    interrupted.  Only for workloads whose requests run on the main
    thread alone (a handler holding the interpreter would stall a
    daemon thread)."""

    INTERVAL_S = 0.1

    def __init__(self) -> None:
        #: (start, end, kernel seconds) per sample.
        self.samples: List[Tuple[float, float, float]] = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        seconds = time_host_reference(repeats=1)
        self.samples.append((start, time.perf_counter(), seconds))

    def arm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def paused_s(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` the samples took."""
        return sum(max(0.0, min(e, end) - max(s, start))
                   for s, e, _ in self.samples)

    def close(self) -> None:
        self.disarm()
        signal.signal(signal.SIGALRM, self._previous)


def run_requests(workload, state, ops,
                 sampler: Optional[HostSampler] = None) -> Dict[str, Any]:
    """Time each request; a raised error or a wrong reply counts as a
    failed request and the run goes on.  The host kernel runs before the
    first request, after every ``host_every`` requests and, with a
    ``sampler``, during requests; its time is off the clock.  Each
    outcome carries the kernel time measured around its request."""
    outcomes, windows = [], []
    samples: List[Tuple[float, float]] = [
        (time.perf_counter(), time_host_reference())
    ]
    for index, op in enumerate(ops):
        with obs.span("bench:request", "bench"):
            if sampler:
                sampler.arm()
            start = time.perf_counter()
            try:
                reply = workload.call(state, op)
                error = None
            except Exception as exc:  # noqa: BLE001 — count it, keep going
                error = f"{type(exc).__name__}: {exc}"
            if sampler:
                sampler.disarm()
            end = time.perf_counter()
        latency = end - start - (sampler.paused_s(start, end) if sampler else 0.0)
        if error is None:
            outcome = workload.outcome(state, op, reply, latency)
        else:
            outcome = Outcome.failed("error", latency, error)
        outcomes.append(outcome)
        windows.append((start, end))
        if (index + 1) % workload.host_every == 0:
            samples.append((time.perf_counter(), time_host_reference()))
    if sampler:
        samples = sorted(samples + [(s, k) for s, _, k in sampler.samples])
    for outcome, (start, end) in zip(outcomes, windows):
        outcome.host_s = local_host_s(samples, start, end)
    return {"outcomes": outcomes,
            "host_s": [seconds for _, seconds in samples]}


def gc_collections() -> List[int]:
    return [generation["collections"] for generation in gc.get_stats()]


def counters() -> Dict[str, int]:
    return dict(METRICS.snapshot()["counters"])


def measure(config: Dict[str, Any]) -> Dict[str, Any]:
    workload = WORKLOADS[config["workload"]]
    seed, mode = config["seed"], config["mode"]
    ops = workload.plan(seed, config["seconds"])
    shift = round(config["start"] * len(ops))
    order = list(range(shift, len(ops))) + list(range(shift))
    traced = mode == "trace"
    session = obs.trace(out=config["trace_out"]) if traced else nullcontext()
    with session as tracer:
        state = workload.setup(ops, seed)
        setup_s = time.monotonic() - config["spawn"]
        counts_before, gc_before = counters(), gc_collections()
        # The traced pass samples only between requests, so no kernel
        # run lands inside a program span.
        sampler = (HostSampler() if workload.sample_during and not traced
                   else None)
        try:
            with obs.span("bench:timed", "bench") as timed_span:
                timed = run_requests(workload, state,
                                     [ops[i] for i in order], sampler)
        finally:
            if sampler:
                sampler.close()
        outcomes: List[Outcome] = [None] * len(ops)  # type: ignore[list-item]
        for position, index in enumerate(order):
            outcomes[index] = timed["outcomes"][position]
        gc_after, counts_after = gc_collections(), counters()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        report = CheckReport()
        try:
            if config["checks"]:
                workload.check(state, ops, outcomes, seed, report)
        except Exception as exc:  # noqa: BLE001 — a crashed check fails the run
            report.fail(f"check raised {type(exc).__name__}: {exc}")
        finally:
            workload.close(state)
        result = {
            "setup_s": setup_s,
            "ops": [asdict(o) for o in outcomes],
            "host_s": timed["host_s"],
            "peak_rss_mb": peak_rss_mb,
            "counters": {
                name: counts_after.get(name, 0) - counts_before.get(name, 0)
                for name in set(counts_after) | set(counts_before)
            },
            "gc": [a - b for a, b in zip(gc_after, gc_before)],
            "checks": {
                "ok": report.ok,
                "failed_ops": report.failed_ops,
                "notes": report.notes,
                "measure_s": report.measure_s,
                "bind_s": report.bind_s,
                "bound_measure_s": report.bound_measure_s,
                "serialize_s": report.serialize_s,
                "result_bytes": report.result_bytes,
            },
        }
        if traced:
            result["attribution"] = request_attribution(
                tracer.spans, timed_span.start, timed_span.end
            )
            result["trace_out"] = config["trace_out"]
    return result


def main(argv: List[str]) -> int:
    config = json.loads(argv[1])
    print(json.dumps(measure(config)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
