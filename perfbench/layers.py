"""Outside-in attribution of traced request time to the program's layers.

The benchmark wraps every timed request in a ``bench:request`` span.
The program's own spans (``workload:build``, ``pass:<name>``,
``job:run``, ``cache:put``, ``serve:request``, ``serve:bind``, ...) run
inside those windows, some on other threads: the serve daemon's event
loop and its inline executor.  Per-thread parent links cannot see that
a request on the client thread is waiting for a pass on the executor
thread, so attribution works on time alone:

    each instant inside a request window belongs to the span that
    started most recently among those open at that instant.

A nested span starts after its parent and an awaited span on another
thread starts after the request that waits for it, so in a closed loop
(one request in flight) this names the innermost busy layer.  Instants
that only the ``bench:request`` window covers are the unattributed
remainder: client, HTTP and JSON work, and program code no span names.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

REQUEST_SPAN = "bench:request"
UNATTRIBUTED = "unattributed"

#: Pass name -> layer, following the module that implements the pass.
PASS_LAYERS = {
    "lower-ir": "repro.compiler.tetris",
    "layout": "repro.compiler.tetris",
    "synth-tetris": "repro.compiler.tetris",
    "order-similarity": "baselines+repro.routing",
    "synth-spanning-tree": "baselines+repro.routing",
    "synth-single-leaf": "baselines+repro.routing",
    "synth-chain": "baselines+repro.routing",
    "cancel-logical": "baselines+repro.routing",
    "route": "baselines+repro.routing",
    "extract-edges": "baselines+repro.routing",
    "synth-2qan": "baselines+repro.routing",
    "synth-qaoa-reuse": "baselines+repro.routing",
    "decompose-swaps": "repro.passes",
    "cancel": "repro.passes",
    "consolidate-1q": "repro.passes",
}

#: Non-pass span name -> layer.
SPAN_LAYERS = {
    "workload:build": "repro.workloads",
    # Job time outside builds and passes: metrics, layout bookkeeping.
    "job:run": "job remainder (repro.circuit metrics)",
    "pipeline:run": "job remainder (repro.circuit metrics)",
    "batch:execute": "repro.service",
    "batch:cache-scan": "repro.service",
    "cache:get": "repro.service",
    "cache:put": "repro.service",
    "serve:request": "repro.serve",
    # serve:bind wraps only CompiledTemplate.bind on the daemon.
    "serve:bind": "repro.circuit.template",
}


def layer_of(name: str) -> str:
    if name == UNATTRIBUTED:
        return UNATTRIBUTED
    if name.startswith("pass:"):
        return PASS_LAYERS.get(name[len("pass:"):], "other passes")
    return SPAN_LAYERS.get(name, "other")


Interval = Tuple[float, float, str]


def attribute(
    intervals: Sequence[Interval], windows: Sequence[Tuple[float, float]]
) -> Dict[str, float]:
    """Seconds per span name inside ``windows``, latest-started span first.

    ``intervals`` are ``(start, end, name)`` program spans; ``windows``
    are the request spans.  Time a window covers with no program span
    open goes to :data:`UNATTRIBUTED`.  The values sum to the windows'
    union length.
    """
    spans: List[Interval] = list(intervals)
    spans += [(start, end, UNATTRIBUTED) for start, end in windows]
    first_window = len(intervals)
    events = []
    for index, (start, end, _name) in enumerate(spans):
        events.append((start, 1, index))
        events.append((end, 0, index))
    events.sort()
    totals: Dict[str, float] = defaultdict(float)
    open_heap: List[Tuple[float, float, int]] = []
    closed = set()
    open_windows = 0
    previous = None
    for moment, is_start, index in events:
        if previous is not None and moment > previous and open_windows:
            while open_heap and open_heap[0][2] in closed:
                heapq.heappop(open_heap)
            totals[spans[open_heap[0][2]][2]] += moment - previous
        previous = moment
        start, end, _name = spans[index]
        if is_start:
            # Latest start on top; among equal starts the shorter span
            # is the nested one.
            heapq.heappush(open_heap, (-start, end - start, index))
            if index >= first_window:
                open_windows += 1
        else:
            closed.add(index)
            if index >= first_window:
                open_windows -= 1
    return dict(totals)


def request_attribution(spans: Iterable, start: float, end: float) -> Dict[str, float]:
    """Attribute the timed window ``[start, end]`` of a traced run."""
    inside = [sp for sp in spans if sp.start >= start and sp.end <= end + 1e-9]
    windows = [(sp.start, sp.end) for sp in inside if sp.name == REQUEST_SPAN]
    program = [
        (sp.start, sp.end, sp.name)
        for sp in inside
        if not sp.name.startswith("bench:")
    ]
    return attribute(program, windows)


def layer_table(by_name: Mapping[str, float]) -> List[Tuple[str, float]]:
    """Seconds per layer, largest first, the remainder last."""
    layers: Dict[str, float] = defaultdict(float)
    for name, seconds in by_name.items():
        layers[layer_of(name)] += seconds
    remainder = layers.pop(UNATTRIBUTED, 0.0)
    rows = sorted(layers.items(), key=lambda row: -row[1])
    rows.append((UNATTRIBUTED, remainder))
    return rows
