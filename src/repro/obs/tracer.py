"""The span tracer: process-local, nestable, serializable.

A :class:`Span` is one timed region — a pass, a cache lookup, a worker
job — with a wall-clock start (``time.time()``, comparable across
processes), a high-resolution duration (``time.perf_counter()``), the
recording pid/tid, and free-form attributes.  A :class:`Tracer` owns a
per-thread span stack (so spans nest) and the flat list of finished
spans; worker processes serialize their spans back to the parent, which
:meth:`Tracer.add_serialized`-merges them into one coherent trace.

Tracing is off by default and the disabled path is a no-op: the
module-level :func:`span` helper returns one shared :data:`NULL_SPAN`
object when no tracer is installed — no allocation, no clock reads —
so instrumentation callsites can stay in hot-ish paths permanently
(gated by ``benchmarks/bench_obs.py`` in CI).

Environment knobs (read by :func:`env_trace` at CLI entry):

- ``REPRO_TRACE`` — ``off`` (default); ``on``/``1`` to trace to a
  default-named file; any other value is used as the output file name.
- ``REPRO_TRACE_DIR`` — directory for trace files (default ``.``).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional

TRACE_ENV = "REPRO_TRACE"
TRACE_DIR_ENV = "REPRO_TRACE_DIR"

#: Span ids are unique within one process (module-level, not per-tracer,
#: so several short-lived worker tracers in the same process never
#: collide once their spans are merged into the parent trace).
_IDS = itertools.count(1)

# All span timestamps come from perf_counter re-based onto the wall
# clock through this anchor pair.  Mixing time.time() starts with
# perf_counter durations would let a child span appear to outlive its
# parent by the jitter between the two clocks; a single clock keeps
# nesting exact.  Forked workers inherit the anchor (CLOCK_MONOTONIC is
# system-wide on Linux), so their spans land on the same timeline;
# spawned workers re-anchor at import, which is as aligned as their
# wall clocks are.
_WALL_ANCHOR = time.time()
_PERF_ANCHOR = time.perf_counter()


def _now() -> float:
    """Wall-clock-aligned timestamp driven by the monotonic clock."""
    return _WALL_ANCHOR + (time.perf_counter() - _PERF_ANCHOR)


@dataclass
class Span:
    """One finished (or in-flight) timed region."""

    name: str
    category: str = "repro"
    start: float = 0.0      #: wall-clock epoch seconds (cross-process)
    duration: float = 0.0   #: perf_counter seconds
    pid: int = 0
    tid: int = 0
    span_id: int = 0
    parent_id: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes (chainable; allowed after the span closed,
        since exporters only read spans at session end)."""
        self.attrs.update(attrs)
        return self

    @property
    def end(self) -> float:
        return self.start + self.duration

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "name": self.name,
            "cat": self.category,
            "start": self.start,
            "duration": self.duration,
            "pid": self.pid,
            "tid": self.tid,
            "id": self.span_id,
        }
        if self.parent_id is not None:
            payload["parent"] = self.parent_id
        if self.attrs:
            payload["attrs"] = self.attrs
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Span":
        return cls(
            name=payload["name"],
            category=payload.get("cat", "repro"),
            start=payload["start"],
            duration=payload["duration"],
            pid=payload.get("pid", 0),
            tid=payload.get("tid", 0),
            span_id=payload.get("id", 0),
            parent_id=payload.get("parent"),
            attrs=dict(payload.get("attrs", {})),
        )


class _NullSpan:
    """The shared do-nothing span returned when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


#: The singleton no-op span — every disabled callsite gets this object.
NULL_SPAN = _NullSpan()


class Tracer:
    """Process-local span collector with a per-thread nesting stack."""

    def __init__(self):
        self.spans: List[Span] = []
        self.pid = os.getpid()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    @contextmanager
    def span(self, name, category="repro", attrs=None):
        """Open a nested span; closes (and records) on context exit."""
        stack = self._stack()
        sp = Span(
            name=name,
            category=category,
            start=_now(),
            pid=os.getpid(),
            tid=threading.get_ident(),
            span_id=next(_IDS),
            parent_id=stack[-1].span_id if stack else None,
            attrs=dict(attrs or {}),
        )
        stack.append(sp)
        try:
            yield sp
        finally:
            # Same clock as ``start``, so a child's end can never exceed
            # its parent's — nesting stays exact by construction.
            sp.duration = _now() - sp.start
            stack.pop()
            self.spans.append(sp)

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def add_serialized(self, payloads: Iterable[Mapping[str, Any]]) -> int:
        """Merge spans that crossed a process boundary (worker → parent)."""
        added = 0
        for payload in payloads:
            self.spans.append(Span.from_dict(payload))
            added += 1
        return added

    def serialize(self) -> List[Dict[str, Any]]:
        return [span.to_dict() for span in self.spans]

    def __len__(self) -> int:
        return len(self.spans)


#: The installed tracer; ``None`` means tracing is disabled.
_TRACER: Optional[Tracer] = None


def set_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install ``tracer`` (or None to disable); returns the previous one."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


def tracing_enabled() -> bool:
    return _TRACER is not None


def span(name: str, category: str = "repro", **attrs: Any):
    """Context manager for one span under the installed tracer.

    The hot-path entry point: when tracing is disabled this returns the
    shared :data:`NULL_SPAN` immediately — no allocation, no syscalls.
    """
    tracer = _TRACER
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, category, attrs)


def add_worker_spans(payloads: Iterable[Mapping[str, Any]]) -> int:
    """Merge serialized worker spans into the installed tracer (no-op
    when tracing is disabled — workers only record when asked to)."""
    tracer = _TRACER
    if tracer is None:
        return 0
    return tracer.add_serialized(payloads)


@contextmanager
def trace(out: Optional[str] = None, span_log: Optional[str] = None):
    """One tracing session: install a fresh tracer, restore on exit.

    ``out`` writes a Chrome/Perfetto ``trace.json`` and ``span_log`` a
    JSONL span log when the session closes (even on error — a failing
    run's partial trace is exactly the one you want to look at).
    Sessions nest safely: the previous tracer is restored afterwards.
    """
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
        if out or span_log:
            from .export import write_chrome_trace, write_span_log

            if out:
                write_chrome_trace(out, tracer.spans, main_pid=tracer.pid)
            if span_log:
                write_span_log(span_log, tracer.spans)


def trace_env_configured() -> bool:
    """True when ``REPRO_TRACE`` asks for tracing."""
    return os.environ.get(TRACE_ENV, "off").lower() not in ("", "off", "0", "no")


def default_trace_dir() -> str:
    return os.environ.get(TRACE_DIR_ENV) or "."


def env_trace_path() -> str:
    """The output path ``REPRO_TRACE``/``REPRO_TRACE_DIR`` describe."""
    value = os.environ.get(TRACE_ENV, "")
    if value.lower() in ("on", "1", "true", "yes"):
        value = f"repro-trace-{os.getpid()}.json"
    return os.path.join(default_trace_dir(), value)


@contextmanager
def env_trace():
    """CLI-entry session honoring ``REPRO_TRACE``: yields the output
    path when it activated tracing, None otherwise (knob unset, or a
    session — e.g. ``repro trace`` — is already active)."""
    if not trace_env_configured() or tracing_enabled():
        yield None
        return
    path = env_trace_path()
    with trace(out=path):
        yield path
