"""Wire protocol for the serve daemon: request shapes + HTTP/1.1 framing.

Both transports share one op vocabulary through the route table
:data:`ROUTES` (over HTTP an unknown path is a 404, a wrong method a
405, and GET ops ignore the body) and the same request fields.

**HTTP** (``asyncio.start_server`` + the minimal HTTP/1.1 subset here —
request line, headers, Content-Length bodies, keep-alive, chunked
streaming responses).  Endpoints::

    GET  /healthz              -> {"ok": true, ...}
    GET  /stats                -> server/cache/tenant/metrics snapshot
    POST /compile   {"job": {...}, "tenant": ..., "priority": ...,
                     "profile": ...}
                               -> {"served": ..., "result": {...}}
    POST /batch     {"jobs": [{...}, ...], ...}
                               -> chunked NDJSON, one result line per job
                                  in submission order
    POST /bind      {"job": {...}, "theta": [...], "qasm": false, ...}
                               -> {"served": ..., "parameters": ...,
                                   "bind_seconds": ..., "metrics": {...}}
                                  (compile-once/bind-many: the job is
                                  forced parametric and its template is
                                  pinned server-side; the reply carries
                                  the template's structural metrics, and
                                  its QASM at ``theta`` only when
                                  ``"qasm": true``)
    POST /shutdown  {"drain": true}
                               -> {"ok": true, "draining": true}; server
                                  drains and exits

**stdio** (``repro serve --stdio``): newline-delimited JSON, one
request object per line carrying ``{"op": "compile" | "batch" | "bind"
| "stats" | "healthz" | "shutdown", "id": ..., ...}`` with the same
fields as the HTTP bodies; responses echo the ``id`` beside HTTP's
payload (``stats`` nests it under ``"stats"``), so the shutdown reply
matches HTTP's.  Batch results stream as one line per job followed by
a ``{"id": ..., "done": true}`` terminator.

The flags ``profile``, ``qasm`` and ``drain`` are JSON booleans: a
non-boolean flag, like an unknown op, is a 400 on either transport.

``served`` in a compile/batch response names the channel that produced
the result: ``hot`` (in-memory cache), ``disk`` (on-disk cache,
promoted to hot), ``dedup`` (attached to an identical in-flight
request), or ``fresh`` (executed on the worker pool).  Bind responses
additionally use ``template`` — the structure was already resident in
the server's template slots, so no compile machinery ran at all.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..service.jobs import CompileJob, JobResult

#: Channels a result can be served from.
SERVED_HOT = "hot"
SERVED_DISK = "disk"
SERVED_DEDUP = "dedup"
SERVED_FRESH = "fresh"
SERVED_TEMPLATE = "template"

#: Framing limits — one oversized/malicious request must not balloon
#: the resident daemon.
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 32 * 1024 * 1024

STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ProtocolError(ValueError):
    """Malformed request framing or body (a 400), or an HTTP request
    outside :data:`ROUTES` (a 404 or 405)."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


#: Every HTTP path with its method and the op it runs; stdio names ops.
ROUTES: Dict[str, Tuple[str, str]] = {
    "/healthz": ("GET", "healthz"),
    "/stats": ("GET", "stats"),
    "/compile": ("POST", "compile"),
    "/batch": ("POST", "batch"),
    "/bind": ("POST", "bind"),
    "/shutdown": ("POST", "shutdown"),
}


def route(method: str, path: str) -> str:
    """The op an HTTP request runs, or a 404/405 :class:`ProtocolError`."""
    if path not in ROUTES:
        raise ProtocolError(f"unknown path {path}", status=404)
    allowed, op = ROUTES[path]
    if method != allowed:
        raise ProtocolError(f"{method} not allowed on {path}", status=405)
    return op


@dataclass
class ServeReply:
    """One served compile result plus how it was served."""

    result: JobResult
    served: str
    queue_wait_s: float = 0.0

    def to_payload(self) -> Dict[str, Any]:
        return {
            "served": self.served,
            "queue_wait_s": round(self.queue_wait_s, 6),
            "result": self.result.to_dict(),
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ServeReply":
        result = JobResult.from_dict(payload["result"])
        served = payload.get("served", SERVED_FRESH)
        # Anything short of a fresh (or shared-fresh) execution was a
        # cache hit from the caller's point of view.
        result.cached = served in (SERVED_HOT, SERVED_DISK)
        return cls(
            result=result,
            served=served,
            queue_wait_s=payload.get("queue_wait_s", 0.0),
        )


@dataclass
class BindReply:
    """One answered ``/bind`` request.

    ``served`` names where the *template* came from (``template`` for a
    resident one; otherwise the compile channel that produced it); the
    bind itself always runs in-process on the server.  ``metrics`` is
    the template's structural :class:`~repro.circuit.metrics.
    CircuitMetrics` row, equal to what measuring any bound circuit gives
    (binding changes no gate name or wire); ``qasm`` is attached only on
    request.
    """

    served: str
    job_hash: str
    parameters: int
    bind_seconds: float
    queue_wait_s: float = 0.0
    metrics: Optional[Dict[str, Any]] = None
    qasm: Optional[str] = None

    def to_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "served": self.served,
            "job_hash": self.job_hash,
            "parameters": self.parameters,
            "bind_seconds": round(self.bind_seconds, 9),
            "queue_wait_s": round(self.queue_wait_s, 6),
            "metrics": self.metrics,
        }
        if self.qasm is not None:
            payload["qasm"] = self.qasm
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "BindReply":
        return cls(
            served=payload.get("served", SERVED_TEMPLATE),
            job_hash=payload.get("job_hash", ""),
            parameters=int(payload.get("parameters", 0)),
            bind_seconds=float(payload.get("bind_seconds", 0.0)),
            queue_wait_s=float(payload.get("queue_wait_s", 0.0)),
            metrics=payload.get("metrics"),
            qasm=payload.get("qasm"),
        )


def parse_bind_request(
    payload: Mapping[str, Any], default_tenant: str = "default"
) -> Tuple[CompileJob, Optional[List[float]], str, int, bool]:
    """Decode one bind body -> (job, theta, tenant, priority, qasm).

    ``theta`` of null/absent means "bind the workload's own baked
    angles"; any other entry than a finite number is a
    :class:`ProtocolError` naming its index.
    """
    job, tenant, priority, _profile = parse_compile_request(
        payload, default_tenant
    )
    theta = payload.get("theta")
    if theta is not None:
        if not isinstance(theta, (list, tuple)):
            raise ProtocolError('"theta" must be a list of angles')
        for index, value in enumerate(theta):
            if not _finite_number(value):
                raise ProtocolError(
                    f"angles must be finite numbers: theta[{index}] is "
                    f"{value!r}"
                )
        theta = [float(value) for value in theta]
    return job, theta, tenant, priority, _flag(payload, "qasm", False)


def _finite_number(value: Any) -> bool:
    """A finite JSON number: an int or a float, never a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def parse_compile_request(
    payload: Mapping[str, Any], default_tenant: str = "default"
) -> Tuple[CompileJob, str, int, bool]:
    """Decode one compile request body -> (job, tenant, priority, profile).

    Raises :class:`ProtocolError` on missing/invalid fields so transports
    can map it to a 400 uniformly.
    """
    _require_object(payload)
    return (_parse_job(payload.get("job")),
            *_parse_options(payload, default_tenant))


def parse_batch_request(
    payload: Mapping[str, Any], default_tenant: str = "default"
) -> Tuple[List[CompileJob], str, int, bool]:
    """Decode one batch request body -> (jobs, tenant, priority, profile).

    The options mean what they mean on a compile request and apply to
    every job of the batch.
    """
    _require_object(payload)
    specs = payload.get("jobs")
    if not isinstance(specs, list):
        raise ProtocolError('batch request must carry a "jobs" list')
    return ([_parse_job(spec) for spec in specs],
            *_parse_options(payload, default_tenant))


def parse_shutdown_request(payload: Mapping[str, Any]) -> bool:
    """Decode one shutdown body -> drain (default true)."""
    _require_object(payload)
    return _flag(payload, "drain", True)


def _require_object(payload: Any) -> None:
    if not isinstance(payload, Mapping):
        raise ProtocolError("request body must be a JSON object")


def _parse_job(spec: Any) -> CompileJob:
    if not isinstance(spec, Mapping):
        raise ProtocolError('request must carry a "job" object')
    try:
        return CompileJob.from_request(spec)
    except (ValueError, TypeError) as exc:
        raise ProtocolError(f"bad job spec: {exc}") from None


def _parse_options(
    payload: Mapping[str, Any], default_tenant: str
) -> Tuple[str, int, bool]:
    """The tenant, priority and profile fields every request shares."""
    tenant = str(payload.get("tenant") or default_tenant)
    try:
        priority = int(payload.get("priority", 0))
    except (ValueError, TypeError):
        raise ProtocolError("priority must be an integer") from None
    return tenant, priority, _flag(payload, "profile", False)


def _flag(payload: Mapping[str, Any], name: str, default: bool) -> bool:
    """A boolean field: absent means ``default``; anything but a JSON
    ``true`` or ``false`` is a :class:`ProtocolError`."""
    value = payload.get(name, default)
    if not isinstance(value, bool):
        raise ProtocolError(f'"{name}" must be true or false, not {value!r}')
    return value


@dataclass
class HttpRequest:
    """One parsed HTTP/1.1 request."""

    method: str
    path: str
    headers: Dict[str, str]
    body: bytes

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "keep-alive").lower() != "close"

    def json(self) -> Any:
        if not self.body:
            return {}
        try:
            return json.loads(self.body)
        except ValueError as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}") from None


async def read_http_request(
    reader: asyncio.StreamReader,
) -> Optional[HttpRequest]:
    """Read one request off the stream; None on clean connection close."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # peer closed between requests
        raise ProtocolError("truncated request head") from None
    except asyncio.LimitOverrunError:
        raise ProtocolError("request head too large") from None
    if len(head) > MAX_HEADER_BYTES:
        raise ProtocolError("request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(f"malformed request line: {lines[0]!r}")
    method, path, _version = parts
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise ProtocolError("malformed Content-Length") from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise ProtocolError("request body too large")
    body = await reader.readexactly(length) if length else b""
    return HttpRequest(method=method.upper(), path=path,
                       headers=headers, body=body)


def http_response(
    status: int,
    payload: Any = None,
    body: Optional[bytes] = None,
    content_type: str = "application/json",
    keep_alive: bool = True,
    chunked: bool = False,
) -> bytes:
    """Serialize a response head (+ body unless ``chunked``).

    With ``chunked=True`` only the head is returned; the caller streams
    :func:`chunk` frames and finishes with :func:`last_chunk`.
    """
    if body is None and payload is not None:
        body = (json.dumps(payload) + "\n").encode("utf-8")
    head = [
        f"HTTP/1.1 {status} {STATUS_TEXT.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    if chunked:
        head.append("Transfer-Encoding: chunked")
    else:
        head.append(f"Content-Length: {len(body or b'')}")
    blob = ("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
    if not chunked and body:
        blob += body
    return blob


def error_response(status: int, message: str, keep_alive: bool = True) -> bytes:
    return http_response(
        status, {"error": message, "status": status}, keep_alive=keep_alive
    )


def chunk(data: bytes) -> bytes:
    """One HTTP/1.1 chunked-transfer frame."""
    return f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n"


def last_chunk() -> bytes:
    return b"0\r\n\r\n"


def ndjson_line(payload: Any) -> bytes:
    return (json.dumps(payload) + "\n").encode("utf-8")
