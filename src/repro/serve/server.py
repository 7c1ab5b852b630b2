"""The resident compile daemon: asyncio front-end over a warm pool.

:class:`ReproServer` is the long-running shape of the batch service.
Where ``repro batch`` forks a fresh pool per invocation and pays cold
import + workload-build costs every time, the daemon owns one
:class:`~repro.service.pool.WorkerPool` for its whole lifetime and
admits compile requests through four layers, cheapest first:

1. **Hot cache** — a byte-bounded in-memory LRU of serialized results
   (:mod:`repro.serve.hotcache`).  A hot hit never touches the pool or
   the disk (``jobs_executed`` does not move).
2. **Disk cache** — the content-addressed
   :class:`~repro.service.cache.ResultCache`; hits are promoted into
   the hot cache.
3. **In-flight dedup** — two clients requesting the same job hash
   share one execution: the second (and every later) request awaits
   the first's future and counts a ``serve.dedup_hits``.
4. **The worker pool** — genuinely new work enters a bounded priority
   queue (lower number = sooner) and is dispatched as slots free up.

Admission control: each tenant (named by the request body or the
``X-Repro-Tenant`` header) may hold at most ``tenant_quota`` concurrent
requests, and the pending queue is bounded by ``queue_depth`` — both
overflows are rejected with a 429 rather than queued without bound.
Graceful shutdown stops admitting (503), drains queued + in-flight
jobs, then closes the pool.

``workers=0`` runs jobs inline on a single server-process thread — no
fork, same semantics — which tests, the stdio mode, and fork-less
platforms use.

Both transports only frame: :meth:`ReproServer.dispatch` decodes, admits
and answers every op, and :func:`error_status` maps every error.

On top of the compile layers sits a fifth, bind-only layer: ``/bind``
requests pin the job's compiled :class:`~repro.circuit.template.
CompiledTemplate` in an LRU of ``template_slots`` live objects, so an
optimizer loop pays one compile and then per-iteration binds that never
touch the pool (``serve.template_binds`` counts them).  A bind reply
carries the template's structural metrics (measured once per template);
only a request for QASM builds the bound circuit.
"""

from __future__ import annotations

import asyncio
import functools
import heapq
import json
import os
import sys
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs import metrics as obs_metrics
from ..obs.metrics import METRICS
from ..obs.tracer import span as obs_span, tracing_enabled
from ..service.cache import ResultCache, cache_enabled
from ..service.jobs import CompileJob, JobResult
from ..service.pool import (
    WorkerPool,
    execute_job_safe,
    make_payload,
    merge_envelope,
)
from ..circuit.template import CompiledTemplate
from .hotcache import DEFAULT_HOT_BYTES, HotCache
from .protocol import (
    SERVED_DEDUP,
    SERVED_DISK,
    SERVED_FRESH,
    SERVED_HOT,
    SERVED_TEMPLATE,
    BindReply,
    HttpRequest,
    ProtocolError,
    ServeReply,
    chunk,
    error_response,
    http_response,
    last_chunk,
    ndjson_line,
    parse_batch_request,
    parse_bind_request,
    parse_compile_request,
    parse_shutdown_request,
    read_http_request,
    route,
)

HOST_ENV = "REPRO_SERVE_HOST"
PORT_ENV = "REPRO_SERVE_PORT"
WORKERS_ENV = "REPRO_SERVE_WORKERS"
HOT_BYTES_ENV = "REPRO_SERVE_HOT_BYTES"
QUEUE_DEPTH_ENV = "REPRO_SERVE_QUEUE_DEPTH"
TENANT_QUOTA_ENV = "REPRO_SERVE_TENANT_QUOTA"
TEMPLATE_SLOTS_ENV = "REPRO_SERVE_TEMPLATES"

DEFAULT_PORT = 8421


def _env_int(name: str, default: int) -> int:
    value = os.environ.get(name, "")
    if not value:
        return default
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass
class ServeConfig:
    """Daemon configuration; every field has a ``REPRO_SERVE_*`` knob."""

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT           #: 0 = ephemeral (read server.port)
    workers: int = 1                   #: worker processes; 0 = inline thread
    hot_bytes: int = DEFAULT_HOT_BYTES
    queue_depth: int = 256             #: max *pending* jobs before 429
    tenant_quota: int = 64             #: concurrent requests/tenant; 0 = off
    cache_dir: Optional[str] = None    #: disk cache root (None = default)
    use_disk_cache: bool = True        #: layer over the on-disk ResultCache
    template_slots: int = 16           #: resident bindable templates (LRU)

    @classmethod
    def from_env(cls, **overrides: Any) -> "ServeConfig":
        """Environment-configured defaults, overridden by non-None kwargs."""
        config = cls(
            host=os.environ.get(HOST_ENV, cls.host),
            port=_env_int(PORT_ENV, cls.port),
            workers=_env_int(WORKERS_ENV, cls.workers),
            hot_bytes=_env_int(HOT_BYTES_ENV, cls.hot_bytes),
            queue_depth=_env_int(QUEUE_DEPTH_ENV, cls.queue_depth),
            tenant_quota=_env_int(TENANT_QUOTA_ENV, cls.tenant_quota),
            template_slots=_env_int(TEMPLATE_SLOTS_ENV, cls.template_slots),
        )
        for name, value in overrides.items():
            if value is not None:
                setattr(config, name, value)
        return config


class ServeRejected(Exception):
    """Request refused at admission (quota, backpressure, draining)."""

    def __init__(self, status: int, reason: str):
        super().__init__(reason)
        self.status = status
        self.reason = reason


def error_status(exc: Exception) -> Tuple[int, str]:
    """(status, message) either transport answers ``exc`` with: a
    :class:`ProtocolError` or :class:`ServeRejected` carries its own
    status (400 for a malformed request), anything else is a 500."""
    if isinstance(exc, (ProtocolError, ServeRejected)):
        return exc.status, str(exc)
    return 500, f"{type(exc).__name__}: {exc}"


@dataclass
class TenantState:
    """Per-tenant accounting surfaced by ``/stats``."""

    requests: int = 0   #: total requests seen (accepted or not)
    rejected: int = 0   #: requests refused by quota/backpressure
    jobs: int = 0       #: fresh executions performed on this tenant's behalf
    inflight: int = 0   #: currently admitted requests (quota denominator)

    def as_dict(self) -> Dict[str, int]:
        return {
            "requests": self.requests,
            "rejected": self.rejected,
            "jobs": self.jobs,
            "inflight": self.inflight,
        }


@dataclass
class _PendingJob:
    """One queued/running fresh execution, shared by its dedup waiters."""

    job: CompileJob
    job_hash: str
    profile: bool
    tenant: TenantState
    future: "asyncio.Future[Tuple[str, float]]"
    enqueued: float = field(default_factory=time.monotonic)
    queue_wait: float = 0.0

    @property
    def key(self) -> Tuple[str, bool]:
        return (self.job_hash, self.profile)


class ReproServer:
    """The daemon: request admission, caches, dedup, pool dispatch.

    All state is event-loop-confined (no locks): transports call
    :meth:`dispatch` from the loop, and every job's future (pool or
    inline thread) completes it on the loop.
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        cache: Optional[ResultCache] = None,
    ):
        self.config = config or ServeConfig.from_env()
        self.hot = HotCache(self.config.hot_bytes)
        if cache is not None:
            self.cache: Optional[ResultCache] = cache
        elif self.config.use_disk_cache and cache_enabled():
            self.cache = ResultCache(self.config.cache_dir)
        else:
            self.cache = None
        self.tenants: Dict[str, TenantState] = {}
        #: Server-local tallies (the global METRICS registry is shared
        #: with everything else in the process; these are ours alone).
        self.counts: Dict[str, int] = {
            "requests": 0,
            "rejected": 0,
            "dedup_hits": 0,
            "jobs_executed": 0,
            "jobs_failed": 0,
            "template_binds": 0,
        }
        #: Deserialized, bind-ready templates keyed by (parametric) job
        #: hash.  Small by count, not bytes: entries are live Python
        #: objects, unlike the serialized hot cache below them.
        self._templates: "OrderedDict[str, CompiledTemplate]" = OrderedDict()
        self._slots = max(1, self.config.workers)
        self._pool: Optional[WorkerPool] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._queue: List[Tuple[int, int, _PendingJob]] = []
        self._seq = 0
        self._running = 0
        self._inflight: Dict[Tuple[str, bool], _PendingJob] = {}
        self._draining = False
        self._started = time.monotonic()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: set = set()
        self._stopping: Optional[asyncio.Future] = None
        self._idle = asyncio.Event()
        self._closed = asyncio.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self, listen: bool = True) -> "ReproServer":
        """Warm the pool and (unless ``listen=False``) bind the socket."""
        self._loop = asyncio.get_running_loop()
        self._started = time.monotonic()
        if self.config.workers >= 1:
            self._pool = WorkerPool(self.config.workers).start()
        else:
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serve-inline"
            )
        if listen:
            self._server = await asyncio.start_server(
                self._handle_connection, self.config.host, self.config.port
            )
        return self

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral choice)."""
        if self._server is None:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    @property
    def closed(self) -> bool:
        """True once :meth:`shutdown` has finished."""
        return self._closed.is_set()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop admitting, drain (or abort) work, release the pool."""
        if self._closed.is_set():
            return
        self._draining = True
        if drain:
            await self._wait_idle()
        else:
            self._abort_pending("server shut down before execution")
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for writer in list(self._writers):
            writer.close()
        pool, self._pool = self._pool, None
        if pool is not None:
            # close+join blocks; hop off the loop so late keep-alive
            # connections still get their EOF promptly.
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: pool.close(drain=drain)
            )
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=drain)
        self._closed.set()

    async def wait_closed(self) -> None:
        await self._closed.wait()

    async def _wait_idle(self) -> None:
        while self._queue or self._running or self._inflight:
            self._idle.clear()
            await self._idle.wait()

    def _abort_pending(self, reason: str) -> None:
        while self._queue:
            _prio, _seq, pending = heapq.heappop(self._queue)
            self._inflight.pop(pending.key, None)
            if not pending.future.done():
                result = JobResult(job=pending.job, error=reason)
                pending.future.set_result((result.to_json(), 0.0))

    # ------------------------------------------------------------------
    # admission + the four serving layers
    # ------------------------------------------------------------------

    def _count(self, tenant: str, requests: int = 1) -> TenantState:
        """Account ``requests`` new requests to ``tenant``; its state."""
        state = self.tenants.get(tenant)
        if state is None:
            state = self.tenants[tenant] = TenantState()
        state.requests += requests
        self.counts["requests"] += requests
        METRICS.counter(obs_metrics.SERVE_REQUESTS).inc(requests)
        return state

    def _reject(self, tenant: TenantState, status: int, reason: str) -> None:
        tenant.rejected += 1
        self.counts["rejected"] += 1
        METRICS.counter(obs_metrics.SERVE_REJECTED).inc()
        raise ServeRejected(status, reason)

    def _admit(self, tenant: TenantState, requests: int = 1) -> None:
        """Quota gate; on success the tenant holds ``requests`` slots."""
        if self._draining:
            self._reject(tenant, 503, "server is draining")
        quota = self.config.tenant_quota
        if quota and tenant.inflight + requests > quota:
            self._reject(
                tenant, 429,
                f"tenant quota exceeded ({tenant.inflight} in flight, "
                f"quota {quota})",
            )
        tenant.inflight += requests

    async def submit(
        self,
        job: CompileJob,
        tenant: str = "default",
        priority: int = 0,
        profile: bool = False,
    ) -> ServeReply:
        """Serve one job through hot cache -> disk -> dedup -> pool."""
        state = self._count(tenant)
        self._admit(state)
        try:
            with obs_span("serve:request", "serve", label=job.label()) as sp:
                reply = await self._resolve(job, state, priority, profile)
                sp.set(served=reply.served)
            return reply
        finally:
            state.inflight -= 1

    async def _resolve(
        self,
        job: CompileJob,
        tenant: TenantState,
        priority: int,
        profile: bool,
    ) -> ServeReply:
        job_hash = job.content_hash()
        text = self.hot.get(job_hash, require_profile=profile)
        if text is not None:
            result = JobResult.from_json(text)
            result.cached = True
            return ServeReply(result, SERVED_HOT)
        if self.cache is not None:
            hit = self.cache.get(job, require_profile=profile)
            if hit is not None:
                self.hot.put(
                    job_hash, hit.to_json(),
                    has_profile=hit.profile is not None,
                )
                return ServeReply(hit, SERVED_DISK)
        key = (job_hash, profile)
        pending = self._inflight.get(key)
        if pending is not None:
            self.counts["dedup_hits"] += 1
            METRICS.counter(obs_metrics.SERVE_DEDUP_HITS).inc()
            text, wait = await pending.future
            return ServeReply(JobResult.from_json(text), SERVED_DEDUP, wait)
        if len(self._queue) >= self.config.queue_depth:
            self._reject(
                tenant, 429,
                f"queue full ({len(self._queue)} pending, "
                f"depth {self.config.queue_depth})",
            )
        pending = _PendingJob(
            job=job,
            job_hash=job_hash,
            profile=profile,
            tenant=tenant,
            future=self._loop.create_future(),
        )
        self._inflight[key] = pending
        self._seq += 1
        heapq.heappush(self._queue, (priority, self._seq, pending))
        self._start_queued()
        text, wait = await pending.future
        return ServeReply(JobResult.from_json(text), SERVED_FRESH, wait)

    # -- template binding ----------------------------------------------

    def _remember_template(
        self, job_hash: str, template: CompiledTemplate
    ) -> None:
        self._templates[job_hash] = template
        self._templates.move_to_end(job_hash)
        while len(self._templates) > max(1, self.config.template_slots):
            self._templates.popitem(last=False)

    async def submit_bind(
        self,
        job: CompileJob,
        theta: Optional[Sequence[float]] = None,
        tenant: str = "default",
        priority: int = 0,
        include_qasm: bool = False,
    ) -> BindReply:
        """Serve one bind: resident template -> compile layers -> reply.

        The first request for a structure compiles it parametrically
        through the normal four layers (so a concurrent cold storm
        still executes exactly one pool job, via dedup); every later
        request finds the template resident and pays only the slot
        values — ``jobs_executed`` does not move.  The reply's metrics
        are the template's structural row, so only a request for QASM
        builds the bound circuit.
        """
        from ..service.templates import as_parametric

        job = as_parametric(job)
        with obs_span("serve:bind", "serve", label=job.label()):
            job_hash = job.content_hash()
            template = self._templates.get(job_hash)
            if template is not None:
                self._count(tenant)
                self._templates.move_to_end(job_hash)
                served, queue_wait = SERVED_TEMPLATE, 0.0
        if template is None:
            # Compiled outside ``serve:bind``: the tracer's span stack is
            # per thread, so a span held open across an await would
            # become the parent of every coroutine that runs meanwhile.
            reply = await self.submit(
                job, tenant=tenant, priority=priority, profile=False
            )
            if reply.result.error is not None:
                raise ServeRejected(
                    500, f"template compile failed: {reply.result.error}"
                )
            template = reply.result.template
            if template is None:
                raise ServeRejected(
                    500, "compile produced no template (not a parametric job?)"
                )
            self._remember_template(job_hash, template)
            served, queue_wait = reply.served, reply.queue_wait_s
        with obs_span("serve:bind", "serve", label=job.label()) as sp:
            start = time.perf_counter()
            try:
                template.slot_values(theta)  # a bad theta is a 400
                qasm = template.qasm(theta) if include_qasm else None
            except ValueError as exc:  # BindError included
                raise ProtocolError(str(exc)) from None
            bind_seconds = time.perf_counter() - start
            sp.set(served=served, parameters=template.num_parameters)
            self.counts["template_binds"] += 1
            METRICS.counter(obs_metrics.SERVE_TEMPLATE_BINDS).inc()
            return BindReply(
                served=served,
                job_hash=job_hash,
                parameters=template.num_parameters,
                bind_seconds=bind_seconds,
                queue_wait_s=queue_wait,
                metrics=template.metrics().as_row(),
                qasm=qasm,
            )

    async def submit_batch(
        self,
        jobs: Sequence[CompileJob],
        tenant: str = "default",
        priority: int = 0,
        profile: bool = False,
    ):
        """Async iterator of :class:`ServeReply` in submission order.

        The whole batch is admitted (or rejected) up front — quota and
        queue capacity are checked against ``len(jobs)`` — then every
        job resolves concurrently; identical jobs inside one batch
        dedup against each other like separate clients would.
        """
        state = self._count(tenant, len(jobs))
        if len(jobs) > self.config.queue_depth - len(self._queue):
            self._reject(
                state, 429,
                f"queue cannot hold the batch ({len(jobs)} jobs, "
                f"{self.config.queue_depth - len(self._queue)} slots free)",
            )
        self._admit(state, len(jobs))
        try:
            tasks = [
                asyncio.ensure_future(
                    self._resolve(job, state, priority, profile)
                )
                for job in jobs
            ]
            for task in tasks:
                yield await task
        finally:
            state.inflight -= len(jobs)

    # ------------------------------------------------------------------
    # pool slots + completion
    # ------------------------------------------------------------------

    def _start_queued(self) -> None:
        """Feed queued jobs into free pool slots (called on enqueue and
        on completion — no feeder task to keep alive)."""
        while self._queue and self._running < self._slots:
            _priority, _seq, pending = heapq.heappop(self._queue)
            self._running += 1
            pending.queue_wait = time.monotonic() - pending.enqueued
            METRICS.histogram(obs_metrics.SERVE_QUEUE_WAIT).observe(
                pending.queue_wait
            )
            if self._pool is not None:
                future = asyncio.wrap_future(self._pool.submit(make_payload(
                    pending.job, profile=pending.profile,
                    trace=tracing_enabled(),
                )), loop=self._loop)
            else:
                future = self._loop.run_in_executor(
                    self._executor, execute_job_safe,
                    pending.job, pending.profile,
                )
            future.add_done_callback(functools.partial(self._finish, pending))

    def _finish(self, pending: _PendingJob, future: asyncio.Future) -> None:
        """Complete ``pending`` from its worker envelope (pool) or its
        result (inline); a job that raised outside ``run_job`` fails."""
        try:
            result = future.result()
            if not isinstance(result, JobResult):
                result = merge_envelope(result)
        except Exception as exc:  # noqa: BLE001 — surface, don't wedge
            result = JobResult(
                job=pending.job, error=f"{type(exc).__name__}: {exc}"
            )
        self._running -= 1
        self.counts["jobs_executed"] += 1
        pending.tenant.jobs += 1
        if result.error is not None:
            self.counts["jobs_failed"] += 1
        text = result.to_json()
        if result.ok:
            self.hot.put(
                pending.job_hash, text,
                has_profile=result.profile is not None,
            )
            if self.cache is not None:
                self.cache.put(result)
        self._inflight.pop(pending.key, None)
        if not pending.future.done():
            pending.future.set_result((text, pending.queue_wait))
        self._start_queued()
        if not self._queue and not self._running and not self._inflight:
            self._idle.set()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def healthz_payload(self) -> Dict[str, Any]:
        return {
            "ok": True,
            "draining": self._draining,
            "pending": len(self._queue),
            "running": self._running,
            "uptime_s": round(time.monotonic() - self._started, 3),
        }

    def stats_payload(self) -> Dict[str, Any]:
        """Everything ``/stats`` reports, one JSON-ready dict."""
        if self.cache is not None:
            disk_cache: Optional[Dict[str, Any]] = {
                "root": self.cache.root,
                "stats": self.cache.stats.as_dict(),
                "disk": self.cache.disk_stats(),
            }
        else:
            disk_cache = None
        return {
            "server": {
                "host": self.config.host,
                "port": self.port,
                "workers": self.config.workers,
                "draining": self._draining,
                "uptime_s": round(time.monotonic() - self._started, 3),
                "queue": {
                    "pending": len(self._queue),
                    "running": self._running,
                    "depth": self.config.queue_depth,
                    "slots": self._slots,
                },
                "requests": dict(self.counts),
            },
            "hot_cache": self.hot.stats(),
            "templates": {
                "entries": len(self._templates),
                "slots": self.config.template_slots,
                "binds": self.counts["template_binds"],
            },
            "disk_cache": disk_cache,
            "tenants": {
                name: state.as_dict()
                for name, state in sorted(self.tenants.items())
            },
            "metrics": METRICS.snapshot(),
        }

    # ------------------------------------------------------------------
    # the request path both transports frame
    # ------------------------------------------------------------------

    async def dispatch(self, op: str, payload: Any, tenant: str = "default"):
        """Decode, admit and answer one request: yields its reply payloads.

        One payload per op, and for ``batch`` one per job (with its
        ``seq``) in submission order.  Errors raise, for
        :func:`error_status` to map; a batch's admission errors raise
        before its first payload.  ``tenant`` applies when the body names
        none.  A shutdown starts once its reply has been taken.
        """
        if op == "compile":
            job, tenant, priority, profile = parse_compile_request(
                payload, tenant
            )
            reply = await self.submit(job, tenant=tenant, priority=priority,
                                      profile=profile)
            yield reply.to_payload()
        elif op == "bind":
            job, theta, tenant, priority, include_qasm = parse_bind_request(
                payload, tenant
            )
            bind_reply = await self.submit_bind(
                job, theta=theta, tenant=tenant, priority=priority,
                include_qasm=include_qasm,
            )
            yield bind_reply.to_payload()
        elif op == "batch":
            jobs, tenant, priority, profile = parse_batch_request(
                payload, tenant
            )
            seq = 0
            async for reply in self.submit_batch(
                jobs, tenant=tenant, priority=priority, profile=profile
            ):
                yield {"seq": seq, **reply.to_payload()}
                seq += 1
        elif op == "stats":
            yield self.stats_payload()
        elif op == "healthz":
            yield self.healthz_payload()
        elif op == "shutdown":
            drain = parse_shutdown_request(payload)
            yield {"ok": True, "draining": True}
            self._stopping = asyncio.ensure_future(self.shutdown(drain=drain))
        else:
            raise ProtocolError(f"unknown op {op!r}")

    # ------------------------------------------------------------------
    # HTTP transport
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await read_http_request(reader)
                except ProtocolError as exc:
                    writer.write(error_response(400, str(exc),
                                                keep_alive=False))
                    await writer.drain()
                    break
                if request is None or not await self._route(request, writer):
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()

    async def _route(self, request: HttpRequest, writer) -> bool:
        """Frame one request's replies; False once the connection closes.

        A batch streams chunked NDJSON whose head goes out with its first
        payload, so its admission errors keep their status; an error
        after that closes the connection mid-stream.
        """
        keep = request.keep_alive
        streaming = False
        try:
            op = route(request.method, request.path)
            keep = keep and op != "shutdown"
            payload = request.json() if request.method == "POST" else {}
            replies = self.dispatch(
                op, payload, request.headers.get("x-repro-tenant", "default")
            )
            if op != "batch":
                async for reply in replies:
                    writer.write(http_response(200, reply, keep_alive=keep))
                    await writer.drain()
            else:
                head = http_response(200, content_type="application/x-ndjson",
                                     keep_alive=keep, chunked=True)
                async for reply in replies:
                    writer.write(head + chunk(ndjson_line(reply)))
                    head, streaming = b"", True
                    await writer.drain()
                writer.write(head + last_chunk())
        except Exception as exc:  # noqa: BLE001 — daemon must not die
            if streaming:
                return False
            status, message = error_status(exc)
            keep = keep and status != 500
            writer.write(error_response(status, message, keep_alive=keep))
        await writer.drain()
        return keep


# ----------------------------------------------------------------------
# stdio transport
# ----------------------------------------------------------------------

async def run_stdio(server: ReproServer, stdin=None, stdout=None) -> int:
    """Newline-delimited JSON transport over stdin/stdout.

    One request object per line (``op``: compile/batch/bind/stats/
    healthz/shutdown); responses echo the request ``id``.  EOF drains and shuts
    the server down, same as an explicit shutdown op.
    """
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    loop = asyncio.get_running_loop()

    def emit(payload: Dict[str, Any]) -> None:
        stdout.write(json.dumps(payload) + "\n")
        stdout.flush()

    while True:
        line = await loop.run_in_executor(None, stdin.readline)
        if not line:
            break
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
            if not isinstance(payload, dict):
                raise ValueError("request must be a JSON object")
        except ValueError as exc:
            emit({"error": f"bad request line: {exc}", "status": 400})
            continue
        request_id = payload.get("id")
        op = payload.get("op", "compile")
        try:
            replies = 0
            async for reply in server.dispatch(op, payload):
                if op == "stats":
                    reply = {"stats": reply}
                emit({"id": request_id, **reply})
                replies += 1
            if op == "batch":
                emit({"id": request_id, "done": True, "results": replies})
            elif op == "shutdown":
                await server.wait_closed()
                return 0
        except Exception as exc:  # noqa: BLE001 — daemon must not die
            status, message = error_status(exc)
            emit({"id": request_id, "error": message, "status": status})
    await server.shutdown(drain=True)
    return 0


# ----------------------------------------------------------------------
# background harness (tests, examples, smoke scripts)
# ----------------------------------------------------------------------

class BackgroundServer:
    """A ReproServer on a daemon thread with its own event loop.

    The blocking-world harness tests and examples use::

        with BackgroundServer(workers=0, use_disk_cache=False) as bg:
            reply = bg.client().compile(bench="LiH", scale="smoke")

    Exiting the context drains in-flight work and joins the thread.
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        cache: Optional[ResultCache] = None,
        **overrides: Any,
    ):
        if config is None:
            config = ServeConfig.from_env(port=0, **overrides)
        self._config = config
        self._cache = cache
        self.server: Optional[ReproServer] = None
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = None
        self._ready = None
        self._error: Optional[BaseException] = None

    def start(self) -> "BackgroundServer":
        import threading

        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._amain()),
            name="repro-serve", daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(timeout=60):
            raise RuntimeError("serve daemon did not start within 60s")
        if self._error is not None:
            raise RuntimeError(
                f"serve daemon failed to start: {self._error}"
            ) from self._error
        return self

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.server = ReproServer(self._config, cache=self._cache)
        try:
            await self.server.start()
            self.port = self.server.port
        except BaseException as exc:  # noqa: BLE001 — report to starter
            self._error = exc
            self._ready.set()
            return
        self._ready.set()
        await self.server.wait_closed()

    def client(self, **kwargs):
        from .client import ReproClient

        return ReproClient(host=self._config.host, port=self.port, **kwargs)

    def stop(self, drain: bool = True, timeout: float = 60.0) -> None:
        """Shut the daemon down (unless a client already did) and join it.

        A client ``/shutdown`` ends the daemon's loop on its own, so the
        shutdown coroutine is only scheduled onto a live server, and is
        closed unawaited if its loop is gone before it runs.
        """
        shutdown = None
        if (self._loop is not None and self.server is not None
                and not self.server.closed):
            shutdown = self.server.shutdown(drain=drain)
            try:
                asyncio.run_coroutine_threadsafe(shutdown, self._loop)
            except RuntimeError:  # the loop closed after the check
                pass
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            if self._thread.is_alive():
                return
        if shutdown is not None:
            shutdown.close()

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
