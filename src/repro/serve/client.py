"""Blocking client for the serve daemon (stdlib ``http.client`` only).

The daemon speaks plain HTTP/1.1, so any HTTP client works; this one
exists so tests, examples, and scripts don't hand-roll request bodies::

    from repro.serve import ReproClient

    with ReproClient(port=8421) as client:
        reply = client.compile(bench="chem:LiH", scale="smoke")
        print(reply.served, reply.result.metrics.cnot_gates)
        for reply in client.batch(jobs):      # streamed, submission order
            ...
        print(client.stats()["hot_cache"]["hits"])

Non-2xx responses raise :class:`ServeError` carrying the HTTP status —
429 for quota/backpressure rejections, 503 while draining.
"""

from __future__ import annotations

import http.client
import json
from typing import Any, Dict, Iterator, Optional, Sequence, Union

from ..service.jobs import CompileJob
from .protocol import BindReply, ServeReply

DEFAULT_TIMEOUT = 300.0


class ServeError(RuntimeError):
    """A non-2xx daemon response."""

    def __init__(self, status: int, reason: str):
        super().__init__(f"serve error {status}: {reason}")
        self.status = status
        self.reason = reason


def _as_job(job: Union[CompileJob, Dict[str, Any], None],
            spec: Dict[str, Any]) -> CompileJob:
    if job is None:
        return CompileJob(**spec)
    if isinstance(job, CompileJob):
        return job
    return CompileJob.from_dict(job)


class ReproClient:
    """One keep-alive connection to a running ``repro serve`` daemon."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8421,
        tenant: Optional[str] = None,
        timeout: float = DEFAULT_TIMEOUT,
    ):
        self.host = host
        self.port = port
        self.tenant = tenant
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    # -- plumbing ------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def _request(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> http.client.HTTPResponse:
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        headers = {"Content-Type": "application/json"}
        if self.tenant:
            headers["X-Repro-Tenant"] = self.tenant
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                return conn.getresponse()
            except (http.client.RemoteDisconnected, BrokenPipeError,
                    ConnectionResetError):
                # Stale keep-alive connection: reconnect once.
                self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")

    def _json(self, method: str, path: str,
              payload: Optional[dict] = None) -> Dict[str, Any]:
        response = self._request(method, path, payload)
        data = response.read()
        decoded = json.loads(data) if data else {}
        if response.status >= 400:
            raise ServeError(
                response.status,
                decoded.get("error", data.decode("utf-8", "replace")),
            )
        return decoded

    # -- the API -------------------------------------------------------

    def compile(
        self,
        job: Union[CompileJob, Dict[str, Any], None] = None,
        priority: int = 0,
        profile: bool = False,
        **spec: Any,
    ) -> ServeReply:
        """Compile one job (a ``CompileJob``, a spec dict, or keyword
        axes like ``bench=``/``device=``) and return its reply."""
        payload: Dict[str, Any] = {
            "job": _as_job(job, spec).to_dict(),
            "priority": priority,
            "profile": profile,
        }
        if self.tenant:
            payload["tenant"] = self.tenant
        return ServeReply.from_payload(self._json("POST", "/compile", payload))

    def batch(
        self,
        jobs: Sequence[Union[CompileJob, Dict[str, Any]]],
        priority: int = 0,
        profile: bool = False,
    ) -> Iterator[ServeReply]:
        """Stream a batch: yields replies in submission order as the
        daemon finishes them (NDJSON over chunked transfer)."""
        payload: Dict[str, Any] = {
            "jobs": [_as_job(job, {}).to_dict() for job in jobs],
            "priority": priority,
            "profile": profile,
        }
        if self.tenant:
            payload["tenant"] = self.tenant
        response = self._request("POST", "/batch", payload)
        if response.status >= 400:
            data = response.read()
            try:
                reason = json.loads(data).get("error", "")
            except ValueError:
                reason = data.decode("utf-8", "replace")
            raise ServeError(response.status, reason)
        while True:
            line = response.readline()
            if not line:
                break
            line = line.strip()
            if line:
                yield ServeReply.from_payload(json.loads(line))

    def bind(
        self,
        job: Union[CompileJob, Dict[str, Any], None] = None,
        theta: Optional[Sequence[float]] = None,
        priority: int = 0,
        qasm: bool = False,
        **spec: Any,
    ) -> BindReply:
        """Bind angles into the job's server-resident compiled template.

        The daemon forces the job parametric; the first call compiles the
        structure once, every later call (any ``theta``) is a cheap
        rebind.  ``theta=None`` binds the workload's own baked angles.
        """
        payload: Dict[str, Any] = {
            "job": _as_job(job, spec).to_dict(),
            "priority": priority,
            "qasm": qasm,
        }
        if theta is not None:
            payload["theta"] = [float(value) for value in theta]
        if self.tenant:
            payload["tenant"] = self.tenant
        return BindReply.from_payload(self._json("POST", "/bind", payload))

    def stats(self) -> Dict[str, Any]:
        return self._json("GET", "/stats")

    def healthz(self) -> Dict[str, Any]:
        return self._json("GET", "/healthz")

    def shutdown(self, drain: bool = True) -> Dict[str, Any]:
        """Ask the daemon to drain and exit."""
        reply = self._json("POST", "/shutdown", {"drain": drain})
        self.close()
        return reply

    def close(self) -> None:
        conn, self._conn = self._conn, None
        if conn is not None:
            conn.close()

    def __enter__(self) -> "ReproClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
