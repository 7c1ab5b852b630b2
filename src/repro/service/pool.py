"""Parallel batch execution: fan jobs across workers, cache-first.

:func:`execute_jobs` is the heart of the service.  It consults the result
cache for every job, fans the misses across ``REPRO_JOBS`` worker
processes, and streams completed :class:`~repro.service.jobs.JobResult`
objects back **in submission order** — so consumers can zip results
against their job list without bookkeeping.  With one worker (the
default) everything runs in-process: no fork, no pickling, identical
results.

Observability: when a tracing session is active (:mod:`repro.obs`) the
dispatch payloads ask workers to record spans too; each worker runs its
payload under a fresh tracer and ships the finished spans (plus its
metrics deltas) back alongside the result, and the parent merges them —
so one batch run yields one coherent cross-process trace.  Queue wait
(dispatch to worker pickup) feeds the ``pool.queue_wait_seconds``
histogram and each worker-side ``job:run`` span.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import Future
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from ..obs import metrics as obs_metrics
from ..obs.metrics import METRICS
from ..obs.tracer import (
    Tracer,
    add_worker_spans,
    set_tracer,
    span as obs_span,
    tracing_enabled,
)
from .cache import ResultCache, default_cache
from .jobs import CompileJob, JobResult, run_job

JOBS_ENV = "REPRO_JOBS"

#: progress callback: (completed_count, total, result)
ProgressFn = Callable[[int, int, JobResult], None]


def worker_count(requested: Optional[int] = None) -> int:
    """Requested workers, else ``REPRO_JOBS``, else 1 (in-process)."""
    if requested is None:
        try:
            requested = int(os.environ.get(JOBS_ENV, "1"))
        except ValueError:
            raise ValueError(f"{JOBS_ENV} must be an integer") from None
    return max(1, requested)


def execute_job_safe(job: CompileJob, profile: bool = False) -> JobResult:
    """Run one job, capturing any exception as an errored result."""
    with obs_span("job:run", "service", label=job.label()) as sp:
        METRICS.counter(obs_metrics.JOBS_EXECUTED).inc()
        try:
            result = run_job(job, profile=profile)
        except Exception as exc:  # noqa: BLE001 — one bad cell must not kill the batch
            METRICS.counter(obs_metrics.JOBS_FAILED).inc()
            sp.set(error=type(exc).__name__)
            return JobResult(job=job, error=f"{type(exc).__name__}: {exc}")
        sp.set(cnot=result.metrics.cnot_gates if result.metrics else None)
        return result


def _execute_payload(payload: dict) -> dict:
    """Worker entry point — dict in, dict out, so pickling stays trivial.

    The returned envelope carries the serialized result plus the
    observability sidecar: the worker's spans for this payload (when the
    parent asked for tracing) and its metrics deltas (always — counters
    are drained per payload so the parent can merge without double
    counting).
    """
    job = CompileJob.from_dict(payload["job"])
    submitted = payload.get("submitted")
    wait = max(0.0, time.time() - submitted) if submitted else 0.0
    METRICS.histogram(obs_metrics.QUEUE_WAIT).observe(wait)
    if payload.get("trace"):
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            with tracer.span(
                "worker:payload", "service",
                {"queue_wait_s": round(wait, 6), "label": job.label()},
            ):
                result = execute_job_safe(job, profile=payload.get("profile", False))
        finally:
            set_tracer(previous)
        spans = tracer.serialize()
    else:
        result = execute_job_safe(job, profile=payload.get("profile", False))
        spans = []
    return {
        "result": result.to_dict(),
        "spans": spans,
        "metrics": METRICS.drain(),
    }


def _worker_init() -> None:
    """Reset per-process observability state in a fresh pool worker.

    Under the fork start method the child inherits the parent's metrics
    counts and open tracer; both must be cleared or the first drained
    envelope would re-ship (and double count) the parent's own numbers.
    """
    set_tracer(None)
    METRICS.reset()


def _mp_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # platforms without fork
        return multiprocessing.get_context("spawn")


def make_payload(
    job: CompileJob,
    profile: bool = False,
    trace: Optional[bool] = None,
    submitted: Optional[float] = None,
) -> dict:
    """The dispatch envelope a worker executes (see :func:`_execute_payload`).

    ``trace`` defaults to whether a tracing session is active in *this*
    process; ``submitted`` (epoch seconds) feeds the queue-wait metric.
    """
    return {
        "job": job.to_dict(),
        "profile": profile,
        "trace": tracing_enabled() if trace is None else trace,
        "submitted": time.time() if submitted is None else submitted,
    }


def merge_envelope(envelope: dict) -> JobResult:
    """Absorb one worker envelope: spans + metrics merge, result decodes."""
    add_worker_spans(envelope.get("spans", ()))
    METRICS.merge(envelope.get("metrics", {}))
    return JobResult.from_dict(envelope["result"])


class WorkerPool:
    """A worker pool whose lifetime the caller owns.

    The batch path opens one per call (the historical behavior); the
    ``repro serve`` daemon opens one at startup and keeps it warm across
    requests, so clients stop paying cold import + workload-build costs.
    Workers are fork-initialized to reset inherited observability state
    (:func:`_worker_init`), and every envelope they return must pass
    through :func:`merge_envelope` so spans/metrics land in the parent.
    """

    def __init__(self, processes: int = 1):
        self.processes = max(1, processes)
        self._pool = None

    @property
    def running(self) -> bool:
        return self._pool is not None

    def start(self) -> "WorkerPool":
        if self._pool is None:
            self._pool = _mp_context().Pool(
                processes=self.processes, initializer=_worker_init
            )
        return self

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close(drain=exc_info[0] is None)

    def imap_payloads(self, payloads: List[dict], chunksize: int = 1):
        """Ordered lazy iterator of raw envelopes for ``payloads``."""
        return self._pool.imap(_execute_payload, payloads, chunksize=chunksize)

    def submit(self, payload: dict) -> "Future[dict]":
        """Async dispatch of one payload: a future of its raw envelope,
        resolved (or failed) on a pool helper thread."""
        future: "Future[dict]" = Future()
        self._pool.apply_async(
            _execute_payload,
            (payload,),
            callback=future.set_result,
            error_callback=future.set_exception,
        )
        return future

    def close(self, drain: bool = True) -> None:
        """Shut the pool down: ``drain=True`` finishes dispatched work
        first, ``drain=False`` terminates workers immediately."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if drain:
            pool.close()
        else:
            pool.terminate()
        pool.join()


def _fresh_results(
    pending: List[Tuple[int, CompileJob]], workers: int, profile: bool = False
) -> Iterator[JobResult]:
    """Execute cache misses, yielding in ``pending`` order.

    Dispatch is grouped by workload so jobs sharing a (bench, encoder,
    scale) land on the same worker and hit its per-process block memo;
    results are buffered back into submission order.  Worker spans and
    metrics deltas are merged into this process as each envelope lands.
    """
    if workers <= 1 or len(pending) <= 1:
        for _index, job in pending:
            yield execute_job_safe(job, profile=profile)
        return
    order = sorted(
        range(len(pending)),
        key=lambda slot: (
            pending[slot][1].bench,
            pending[slot][1].encoder,
            pending[slot][1].scale,
        ),
    )
    trace_workers = tracing_enabled()
    submitted = time.time()
    payloads = [
        make_payload(
            pending[slot][1],
            profile=profile,
            trace=trace_workers,
            submitted=submitted,
        )
        for slot in order
    ]
    processes = min(workers, len(pending))
    chunksize = max(1, len(payloads) // (processes * 2))
    buffered = {}
    emit = 0
    with WorkerPool(processes) as pool:
        for dispatch_slot, envelope in enumerate(
            pool.imap_payloads(payloads, chunksize=chunksize)
        ):
            buffered[order[dispatch_slot]] = merge_envelope(envelope)
            while emit in buffered:
                yield buffered.pop(emit)
                emit += 1
    while emit in buffered:
        yield buffered.pop(emit)
        emit += 1


def execute_jobs(
    jobs: Iterable[CompileJob],
    max_workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    use_cache: bool = True,
    progress: Optional[ProgressFn] = None,
    strict: bool = False,
    profile: bool = False,
) -> Iterator[JobResult]:
    """Run a batch of jobs, yielding results in submission order.

    Cache hits resolve immediately; misses are fanned across
    ``max_workers`` processes (``REPRO_JOBS`` when None) and written back
    to the cache as they complete.  ``use_cache=False`` forces fresh
    execution regardless of environment configuration.  ``strict=True``
    raises on the first errored result instead of yielding it — for
    callers (the experiment harnesses) that dereference ``.metrics``.

    ``profile=True`` requests per-pass pipeline profiles; a cached entry
    without one is a miss (:meth:`ResultCache.get`), so the job re-runs
    and the entry is upgraded in place.
    """
    job_list = list(jobs)
    if cache is None and use_cache:
        cache = default_cache()
    elif not use_cache:
        cache = None

    with obs_span(
        "batch:execute", "service", jobs=len(job_list)
    ) as batch_span:
        results: List[Optional[JobResult]] = [None] * len(job_list)
        pending: List[Tuple[int, CompileJob]] = []
        with obs_span("batch:cache-scan", "service") as scan_span:
            for index, job in enumerate(job_list):
                hit = (cache.get(job, require_profile=profile)
                       if cache is not None else None)
                if hit is not None:
                    results[index] = hit
                else:
                    pending.append((index, job))
            scan_span.set(hits=len(job_list) - len(pending), misses=len(pending))

        fresh = _fresh_results(pending, worker_count(max_workers), profile=profile)
        completed = 0
        for index in range(len(job_list)):
            result = results[index]
            if result is None:
                result = next(fresh)
                if cache is not None:
                    cache.put(result)
            if strict and result.error is not None:
                raise RuntimeError(
                    f"compile job {result.job.label()} failed: {result.error}"
                )
            completed += 1
            if progress is not None:
                progress(completed, len(job_list), result)
            yield result
        batch_span.set(fresh=len(pending))


def run_batch(
    jobs: Iterable[CompileJob],
    max_workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    use_cache: bool = True,
    progress: Optional[ProgressFn] = None,
    strict: bool = False,
    profile: bool = False,
) -> List[JobResult]:
    """Eager form of :func:`execute_jobs` — the list of all results."""
    return list(
        execute_jobs(
            jobs,
            max_workers=max_workers,
            cache=cache,
            use_cache=use_cache,
            progress=progress,
            strict=strict,
            profile=profile,
        )
    )
