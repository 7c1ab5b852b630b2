"""Tests for the serve daemon: hot cache, dedup, quotas, HTTP, stdio.

The acceptance pair from the serving milestone lives here:

* a warm repeated request is served from the hot cache without touching
  the worker pool (``hot_cache.hits`` moves, ``jobs_executed`` does not)
  — :meth:`TestServeHttp.test_repeat_request_is_hot_and_skips_the_pool`;
* N concurrent identical cold requests execute the compile exactly once
  (``dedup_hits == N - 1``) —
  :meth:`TestServeHttp.test_concurrent_identical_requests_dedup`.

Most tests run the daemon inline (``workers=0``: same admission, cache,
dedup, and queue paths, no fork) on an ephemeral port via
:class:`BackgroundServer`; one test exercises the real multiprocessing
pool path end to end.
"""

import asyncio
import http.client
import io
import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.circuit.metrics import measure_circuit
from repro.circuit.qasm import to_qasm
from repro.serve import (
    BackgroundServer,
    HotCache,
    ProtocolError,
    ReproServer,
    SERVED_DEDUP,
    SERVED_DISK,
    SERVED_FRESH,
    SERVED_HOT,
    SERVED_TEMPLATE,
    ServeConfig,
    ServeError,
    ServeRejected,
    ServeReply,
    run_stdio,
)
from repro.serve.protocol import (
    chunk,
    http_response,
    last_chunk,
    parse_compile_request,
)
from repro.service import CompileJob, ResultCache, run_job

#: ~0.2 s inline — the bread-and-butter test job.
FAST = dict(bench="LiH", device="linear", scale="smoke", blocks=3)
#: The heaviest job in the file — long enough to observe "running" from
#: another thread even with every process-level compiler cache warm.
SLOW = dict(bench="BeH2", device="linear", scale="small")


def wait_until(predicate, timeout=30.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition not reached within timeout")


def inline_server(**overrides):
    overrides.setdefault("workers", 0)
    overrides.setdefault("use_disk_cache", False)
    return BackgroundServer(**overrides)


class TestHotCache:
    def test_put_get_round_trip(self):
        hot = HotCache(max_bytes=1024)
        assert hot.get("k") is None
        assert hot.put("k", "payload")
        assert hot.get("k") == "payload"
        assert "k" in hot and len(hot) == 1
        assert hot.bytes == len("payload")
        assert hot.stats()["hits"] == 1
        assert hot.stats()["misses"] == 1

    def test_lru_eviction_under_byte_budget(self):
        hot = HotCache(max_bytes=10)
        hot.put("a", "aaaa")
        hot.put("b", "bbbb")
        hot.get("a")                      # refresh a; b is now LRU
        hot.put("c", "cccc")              # 12 bytes > 10: evict b
        assert hot.get("b") is None
        assert hot.get("a") == "aaaa"
        assert hot.get("c") == "cccc"
        assert hot.evictions == 1
        assert hot.bytes <= hot.max_bytes

    def test_oversized_entry_not_stored(self):
        hot = HotCache(max_bytes=4)
        assert not hot.put("k", "too big to fit")
        assert len(hot) == 0 and hot.bytes == 0

    def test_zero_budget_disables_storage(self):
        hot = HotCache(max_bytes=0)
        assert not hot.put("k", "x")
        assert hot.get("k") is None

    def test_profiled_requests_skip_unprofiled_entries(self):
        hot = HotCache(max_bytes=1024)
        hot.put("k", "unprofiled", has_profile=False)
        assert hot.get("k", require_profile=True) is None
        hot.put("k", "profiled", has_profile=True)
        assert hot.get("k", require_profile=True) == "profiled"
        assert hot.get("k") == "profiled"

    def test_refresh_replaces_bytes_and_clear(self):
        hot = HotCache(max_bytes=1024)
        hot.put("k", "aaaa")
        hot.put("k", "bb")
        assert hot.bytes == 2 and len(hot) == 1
        assert hot.clear() == 1
        assert hot.bytes == 0 and len(hot) == 0


class TestProtocol:
    def test_serve_reply_round_trip_marks_cache_hits(self):
        result = run_job(CompileJob(**FAST))
        for served, cached in ((SERVED_HOT, True), (SERVED_DISK, True),
                               (SERVED_DEDUP, False), (SERVED_FRESH, False)):
            reply = ServeReply(result, served, queue_wait_s=0.25)
            back = ServeReply.from_payload(
                json.loads(json.dumps(reply.to_payload()))
            )
            assert back.served == served
            assert back.result.cached is cached
            assert back.queue_wait_s == 0.25
            assert back.result.metrics == result.metrics

    def test_parse_compile_request(self):
        job, tenant, priority, profile = parse_compile_request(
            {"job": dict(FAST), "tenant": "acme", "priority": 2,
             "profile": True}
        )
        assert job == CompileJob(**FAST)
        assert (tenant, priority, profile) == ("acme", 2, True)
        assert parse_compile_request({"job": dict(FAST)})[1] == "default"

    def test_parse_compile_request_rejects_bad_shapes(self):
        with pytest.raises(ProtocolError):
            parse_compile_request("not a dict")
        with pytest.raises(ProtocolError):
            parse_compile_request({"no": "job"})
        with pytest.raises(ProtocolError):
            parse_compile_request({"job": {"bench": "LiH", "banana": 1}})
        with pytest.raises(ProtocolError):
            parse_compile_request({"job": dict(FAST), "priority": "high"})

    def test_http_response_framing(self):
        blob = http_response(200, {"ok": True})
        head, _, body = blob.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert f"Content-Length: {len(body)}".encode() in head
        assert json.loads(body) == {"ok": True}
        chunked = http_response(200, chunked=True,
                                content_type="application/x-ndjson")
        assert b"Transfer-Encoding: chunked" in chunked
        assert chunked.endswith(b"\r\n\r\n")
        assert chunk(b"abc") == b"3\r\nabc\r\n"
        assert last_chunk() == b"0\r\n\r\n"

    def test_serve_config_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_PORT", "9999")
        monkeypatch.setenv("REPRO_SERVE_WORKERS", "3")
        monkeypatch.setenv("REPRO_SERVE_TENANT_QUOTA", "7")
        config = ServeConfig.from_env(workers=0)
        assert config.port == 9999
        assert config.workers == 0          # explicit override wins
        assert config.tenant_quota == 7
        monkeypatch.setenv("REPRO_SERVE_PORT", "not-a-port")
        with pytest.raises(ValueError):
            ServeConfig.from_env()


class TestServeHttp:
    def test_healthz(self):
        with inline_server() as bg:
            with bg.client() as client:
                health = client.healthz()
        assert health["ok"] is True
        assert health["draining"] is False

    def test_repeat_request_is_hot_and_skips_the_pool(self):
        with inline_server() as bg:
            with bg.client() as client:
                cold = client.compile(**FAST)
                assert cold.served == SERVED_FRESH
                assert cold.result.ok and not cold.result.cached
                warm = client.compile(**FAST)
                assert warm.served == SERVED_HOT
                assert warm.result.cached
                assert warm.result.to_json() == cold.result.to_json()
                stats = client.stats()
        requests = stats["server"]["requests"]
        # The acceptance pair: hot hit counted, pool untouched.
        assert requests["jobs_executed"] == 1
        assert stats["hot_cache"]["hits"] == 1
        assert stats["hot_cache"]["entries"] == 1
        assert stats["disk_cache"] is None

    def test_disk_cache_hit_is_promoted_to_hot(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(run_job(CompileJob(**FAST)))
        with BackgroundServer(workers=0, cache=cache) as bg:
            with bg.client() as client:
                first = client.compile(**FAST)
                second = client.compile(**FAST)
                stats = client.stats()
        assert first.served == SERVED_DISK and first.result.cached
        assert second.served == SERVED_HOT
        assert stats["server"]["requests"]["jobs_executed"] == 0
        assert stats["disk_cache"]["stats"]["hits"] == 1
        assert stats["disk_cache"]["disk"]["entries"] == 1

    def test_fresh_results_land_in_the_disk_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        with BackgroundServer(workers=0, cache=cache) as bg:
            with bg.client() as client:
                assert client.compile(**FAST).served == SERVED_FRESH
        assert cache.get(CompileJob(**FAST)) is not None

    def test_concurrent_identical_requests_dedup(self):
        with inline_server() as bg:
            probe = bg.client()
            replies = []

            def request():
                with bg.client() as client:
                    replies.append(client.compile(**SLOW))

            leader = threading.Thread(target=request)
            leader.start()
            # Wait until the leader's job is actually running so the
            # followers are genuinely concurrent with it.
            wait_until(
                lambda: probe.stats()["server"]["queue"]["running"] >= 1
            )
            followers = [threading.Thread(target=request) for _ in range(3)]
            for thread in followers:
                thread.start()
            for thread in [leader, *followers]:
                thread.join(timeout=60)
            stats = probe.stats()
            probe.close()

        assert sorted(reply.served for reply in replies) == [
            SERVED_DEDUP, SERVED_DEDUP, SERVED_DEDUP, SERVED_FRESH,
        ]
        texts = {reply.result.to_json() for reply in replies}
        assert len(texts) == 1  # every waiter got the same result
        requests = stats["server"]["requests"]
        # N concurrent identical requests -> one execution, N-1 dedups.
        assert requests["jobs_executed"] == 1
        assert requests["dedup_hits"] == 3

    def test_tenant_quota_rejects_with_429(self):
        with inline_server(tenant_quota=1) as bg:
            probe = bg.client()  # default tenant: unaffected by the quota
            done = threading.Event()

            def occupy():
                with bg.client(tenant="acme") as client:
                    client.compile(**SLOW)
                done.set()

            thread = threading.Thread(target=occupy)
            thread.start()
            wait_until(
                lambda: probe.stats()["server"]["queue"]["running"] >= 1
            )
            with bg.client(tenant="acme") as client:
                with pytest.raises(ServeError) as excinfo:
                    client.compile(**FAST)
            assert excinfo.value.status == 429
            assert "quota" in excinfo.value.reason
            # Other tenants are not throttled by acme's quota.
            assert probe.compile(**FAST).result.ok
            thread.join(timeout=60)
            assert done.is_set()
            stats = probe.stats()
            probe.close()
        assert stats["tenants"]["acme"]["rejected"] == 1
        assert stats["tenants"]["acme"]["jobs"] == 1
        assert stats["server"]["requests"]["rejected"] == 1

    def test_queue_backpressure_rejects_with_429(self):
        with inline_server(queue_depth=0) as bg:
            with bg.client() as client:
                with pytest.raises(ServeError) as excinfo:
                    client.compile(**FAST)
        assert excinfo.value.status == 429
        assert "queue" in excinfo.value.reason

    def test_batch_streams_in_submission_order(self):
        jobs = [
            CompileJob(**FAST),
            CompileJob(bench="LiH", device="linear", scale="smoke", blocks=4),
            CompileJob(**FAST),  # duplicate: dedups inside the batch
        ]
        with inline_server() as bg:
            with bg.client() as client:
                replies = list(client.batch(jobs))
                stats = client.stats()
        assert [reply.result.job for reply in replies] == jobs
        assert all(reply.result.ok for reply in replies)
        served = [reply.served for reply in replies]
        assert served.count(SERVED_FRESH) == 2
        assert served.count(SERVED_DEDUP) + served.count(SERVED_HOT) == 1
        assert stats["server"]["requests"]["jobs_executed"] == 2

    def test_batch_rejected_when_larger_than_queue(self):
        with inline_server(queue_depth=1) as bg:
            with bg.client() as client:
                with pytest.raises(ServeError) as excinfo:
                    list(client.batch([CompileJob(**FAST),
                                       CompileJob(**SLOW)]))
        assert excinfo.value.status == 429

    def test_priority_orders_the_queue(self):
        # The blocker holds the single slot on an explicit event rather
        # than compile wall-clock, so the choreography survives compiler
        # speedups and warm process-level caches.
        import repro.serve.server as serve_server
        from unittest import mock

        release = threading.Event()
        real_execute = serve_server.execute_job_safe

        def gated(job, profile=False):
            if job.bench == SLOW["bench"]:
                release.wait(timeout=30)
            return real_execute(job, profile=profile)

        async def scenario():
            config = ServeConfig(workers=0, use_disk_cache=False)
            server = await ReproServer(config).start(listen=False)
            finished = []

            async def submit(tag, job, priority):
                await server.submit(job, priority=priority)
                finished.append(tag)

            def queue_stats():
                return server.stats_payload()["server"]["queue"]

            async def settle(predicate):
                deadline = time.monotonic() + 30.0
                while not predicate() and time.monotonic() < deadline:
                    await asyncio.sleep(0.005)
                assert predicate()

            # Occupy the single slot with the gated blocker, then
            # enqueue low-priority before high-priority; the heap must
            # run the priority-0 job first anyway.
            blocker = asyncio.ensure_future(
                submit("blocker", CompileJob(**SLOW), 0)
            )
            await settle(lambda: queue_stats()["running"] == 1)
            low = asyncio.ensure_future(
                submit("low", CompileJob(**FAST), 9)
            )
            await settle(lambda: queue_stats()["pending"] == 1)
            high = asyncio.ensure_future(
                submit("high", CompileJob(bench="LiH", device="linear",
                                          scale="smoke", blocks=4), 0)
            )
            await settle(lambda: queue_stats()["pending"] == 2)
            release.set()
            await asyncio.gather(blocker, low, high)
            await server.shutdown()
            return finished

        with mock.patch.object(serve_server, "execute_job_safe", gated):
            assert asyncio.run(scenario()) == ["blocker", "high", "low"]

    def test_hot_eviction_forces_recompute(self):
        async def scenario():
            config = ServeConfig(workers=0, use_disk_cache=False)
            server = await ReproServer(config).start(listen=False)
            first = await server.submit(CompileJob(**FAST))
            # Shrink the budget to exactly the resident bytes: the next
            # (smaller) insert fits alone but not alongside, so it must
            # evict the LRU (our only) entry.
            server.hot.max_bytes = server.hot.bytes
            await server.submit(CompileJob(bench="LiH", device="linear",
                                           scale="smoke", blocks=2))
            evicted = await server.submit(CompileJob(**FAST))
            stats = server.stats_payload()
            await server.shutdown()
            return first, evicted, stats

        first, evicted, stats = asyncio.run(scenario())
        assert first.served == SERVED_FRESH
        assert evicted.served == SERVED_FRESH  # hot entry was evicted
        assert stats["hot_cache"]["evictions"] >= 1
        assert stats["server"]["requests"]["jobs_executed"] == 3

    def test_graceful_shutdown_drains_inflight_work(self):
        with inline_server() as bg:
            probe = bg.client()
            replies = []

            def request():
                with bg.client() as client:
                    replies.append(client.compile(**SLOW))

            thread = threading.Thread(target=request)
            thread.start()
            wait_until(
                lambda: probe.stats()["server"]["queue"]["running"] >= 1
            )
            probe.shutdown()        # drains: the in-flight job completes
            thread.join(timeout=60)
            assert len(replies) == 1
            assert replies[0].result.ok
            # The daemon is gone: new connections are refused.
            with pytest.raises(OSError):
                with bg.client() as client:
                    client.healthz()

    def test_stop_after_client_shutdown_is_quiet(self):
        import gc
        import warnings

        bg = inline_server().start()
        with bg.client() as client:
            client.shutdown()
        bg._thread.join(timeout=60)
        assert not bg._thread.is_alive()
        assert bg._loop.is_closed()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bg.stop()
            gc.collect()
        assert not [w for w in caught if w.category is RuntimeWarning]

    def test_draining_server_rejects_new_work_with_503(self):
        async def scenario():
            config = ServeConfig(workers=0, use_disk_cache=False)
            server = await ReproServer(config).start(listen=False)
            blocker = asyncio.ensure_future(server.submit(CompileJob(**FAST)))
            await asyncio.sleep(0.01)
            stopping = asyncio.ensure_future(server.shutdown(drain=True))
            await asyncio.sleep(0)
            with pytest.raises(ServeRejected) as excinfo:
                await server.submit(CompileJob(**SLOW))
            await asyncio.gather(blocker, stopping)
            return excinfo.value.status

        assert asyncio.run(scenario()) == 503

    def test_failed_jobs_report_errors_and_stay_uncached(self, monkeypatch):
        import repro.serve.server as serve_server

        def explode(job, profile=False):
            raise RuntimeError("compiler exploded")

        monkeypatch.setattr(serve_server, "execute_job_safe", explode)
        with inline_server() as bg:
            with bg.client() as client:
                reply = client.compile(**FAST)
                again = client.compile(**FAST)
                stats = client.stats()
        assert reply.result.error is not None
        assert "compiler exploded" in reply.result.error
        # Failures are never cached: the retry executes again.
        assert again.served == SERVED_FRESH
        assert stats["server"]["requests"]["jobs_failed"] == 2
        assert stats["hot_cache"]["entries"] == 0

    def test_http_error_statuses(self):
        with inline_server() as bg:
            conn = http.client.HTTPConnection("127.0.0.1", bg.port, timeout=30)
            try:
                conn.request("GET", "/nope")
                response = conn.getresponse()
                assert response.status == 404
                response.read()
                conn.request("GET", "/compile")
                response = conn.getresponse()
                assert response.status == 405
                response.read()
                conn.request("POST", "/compile", body=b"{not json",
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                assert response.status == 400
                payload = json.loads(response.read())
                assert "error" in payload
                conn.request("POST", "/compile",
                             body=json.dumps({"job": {"bench": "LiH",
                                                      "banana": 1}}).encode())
                response = conn.getresponse()
                assert response.status == 400
                response.read()
            finally:
                conn.close()

    @pytest.mark.parametrize(
        "path, body",
        [
            ("/batch", {"jobs": [], "priority": "high"}),
            ("/shutdown", []),
            ("/bind", {"job": CompileJob(parametric=True, **FAST).to_dict(),
                       "qasm": "no"}),
            ("/compile", {"job": dict(FAST), "profile": "false"}),
            ("/shutdown", {"drain": "false"}),
        ],
        ids=["batch-priority", "shutdown-list", "bind-qasm-string",
             "compile-profile-string", "shutdown-drain-string"],
    )
    def test_malformed_body_is_400_and_daemon_serves_on(self, path, body):
        with inline_server() as bg:
            with bg.client() as client:
                with pytest.raises(ServeError) as excinfo:
                    client._json("POST", path, body)
                health = client.healthz()
        assert excinfo.value.status == 400
        assert health["ok"] is True and health["draining"] is False

    @pytest.mark.parametrize("job, message", [
        (dict(FAST, compiler="tetris:no-bridge"), "named variants: ["),
        (dict(FAST, params={"enable_bridging": False}), "accepted: ["),
    ], ids=["removed-variant", "removed-parameter"])
    def test_unknown_variant_or_parameter_is_400(self, job, message):
        with inline_server() as bg:
            with bg.client() as client:
                with pytest.raises(ServeError) as excinfo:
                    client._json("POST", "/compile", {"job": job})
        assert excinfo.value.status == 400
        assert message in excinfo.value.reason

    def test_tenant_header_routes_accounting(self):
        with inline_server() as bg:
            with bg.client(tenant="team-a") as client:
                client.compile(**FAST)
                stats = client.stats()
        assert stats["tenants"]["team-a"]["requests"] == 1
        assert stats["tenants"]["team-a"]["jobs"] == 1


class TestServeBind:
    """The template-bind layer: one compile, then zero pool jobs ever."""

    def test_concurrent_bind_storm_executes_one_job(self):
        """A cold bind storm mirrors the compile-dedup invariant — one
        execution total — and every later bind is answered from the
        resident template without ``jobs_executed`` moving."""
        with inline_server() as bg:
            probe = bg.client()
            replies = []

            def request():
                with bg.client() as client:
                    replies.append(client.bind(**SLOW))

            leader = threading.Thread(target=request)
            leader.start()
            wait_until(
                lambda: probe.stats()["server"]["queue"]["running"] >= 1
            )
            followers = [threading.Thread(target=request) for _ in range(3)]
            for thread in followers:
                thread.start()
            for thread in [leader, *followers]:
                thread.join(timeout=60)
            assert sorted(reply.served for reply in replies) == [
                SERVED_DEDUP, SERVED_DEDUP, SERVED_DEDUP, SERVED_FRESH,
            ]
            parameters = replies[0].parameters
            assert parameters > 0
            # The optimizer-loop shape: every angle vector is new, so
            # no result cache can help — only the template layer can.
            for step in range(10):
                reply = probe.bind(**SLOW, theta=[0.1 * step] * parameters)
                assert reply.served == SERVED_TEMPLATE
            stats = probe.stats()
            probe.close()
        requests = stats["server"]["requests"]
        assert requests["jobs_executed"] == 1  # pinned: binds are free
        assert requests["dedup_hits"] == 3
        assert requests["template_binds"] == 14
        assert stats["templates"]["binds"] == 14
        assert stats["templates"]["entries"] == 1

    @pytest.mark.parametrize(
        "bad",
        [None, float("nan"), float("inf"), "1e999", True],
        ids=["wrong-length", "NaN", "Infinity", "string-1e999", "true"],
    )
    def test_bind_wrong_length_theta_is_400(self, bad):
        """A wrong-length vector, or an entry that is not a finite JSON
        number, is a 400 that never reaches the template's slots."""
        with inline_server() as bg:
            with bg.client() as client:
                warm = client.bind(**FAST)
                theta = [0.1] * warm.parameters
                if bad is None:
                    theta.append(0.1)
                else:
                    theta[2] = bad
                payload = {
                    "job": CompileJob(parametric=True, **FAST).to_dict(),
                    "theta": theta,
                }
                with pytest.raises(ServeError) as excinfo:
                    client._json("POST", "/bind", payload)
                stats = client.stats()
        assert excinfo.value.status == 400
        assert "angles" in excinfo.value.reason
        if bad is not None:
            assert "theta[2]" in excinfo.value.reason
        assert stats["server"]["requests"]["jobs_executed"] == 1

    def test_bind_reply_equals_the_bound_circuit(self):
        """The reply's metrics row (the template's, measured once) and
        its QASM are what the in-process bound circuit gives."""
        with inline_server() as bg:
            with bg.client() as client:
                warm = client.bind(**FAST)
                theta = np.random.default_rng(11).uniform(
                    -2.0, 2.0, warm.parameters
                )
                reply = client.bind(**FAST, theta=theta, qasm=True)
                stats = client.stats()
        bound = run_job(CompileJob(parametric=True, **FAST)).template.bind(theta)
        assert reply.served == SERVED_TEMPLATE
        assert reply.metrics == measure_circuit(bound).as_row()
        assert reply.qasm == to_qasm(bound)
        assert stats["server"]["requests"]["jobs_executed"] == 1

    def test_bind_and_compile_jobs_do_not_collide(self):
        """A parametric cell hashes differently from its baked twin, so
        the bind layer never poisons plain compile results."""
        with inline_server() as bg:
            with bg.client() as client:
                client.bind(**FAST)
                compiled = client.compile(**FAST)
                stats = client.stats()
        assert compiled.served == SERVED_FRESH  # its own execution
        assert stats["server"]["requests"]["jobs_executed"] == 2


class TestServePool:
    """The real multiprocessing pool path (one test: forks are slow)."""

    def test_pool_mode_executes_caches_and_merges_metrics(self):
        with BackgroundServer(workers=1, use_disk_cache=False) as bg:
            with bg.client() as client:
                cold = client.compile(**FAST)
                warm = client.compile(**FAST)
                stats = client.stats()
        assert cold.served == SERVED_FRESH and cold.result.ok
        assert warm.served == SERVED_HOT
        assert stats["server"]["requests"]["jobs_executed"] == 1
        assert stats["server"]["workers"] == 1
        # Worker envelopes merge their metrics into the server registry.
        counters = stats["metrics"]["counters"]
        assert counters.get("jobs.executed", 0) >= 1


class TestServeStdio:
    def test_stdio_round_trip(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_CACHE"] = "off"
        requests = [
            {"op": "healthz", "id": 0},
            {"op": "compile", "id": 1, "job": dict(FAST)},
            {"op": "compile", "id": 2, "job": dict(FAST)},
            {"op": "stats", "id": 3},
            {"op": "shutdown", "id": 4},
        ]
        # The context manager closes both pipes on the way out.
        with subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--stdio",
             "--workers", "0", "--no-cache"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env, cwd=os.path.dirname(os.path.dirname(__file__)),
        ) as proc:
            try:
                for request in requests:
                    proc.stdin.write(json.dumps(request) + "\n")
                proc.stdin.flush()
                lines = [json.loads(proc.stdout.readline())
                         for _ in range(len(requests))]
                assert proc.wait(timeout=60) == 0
            finally:
                proc.kill()
        assert lines[0]["ok"] is True
        assert lines[1]["served"] == SERVED_FRESH
        assert lines[1]["result"]["error"] is None
        assert lines[2]["served"] == SERVED_HOT
        stats = lines[3]["stats"]
        assert stats["server"]["requests"]["jobs_executed"] == 1
        assert stats["hot_cache"]["hits"] == 1
        assert lines[4]["ok"] is True

    def test_stdio_answers_the_lines_after_a_bad_one(self, monkeypatch):
        """A malformed batch or a string flag is a 400 line and an
        unexpected error a 500 line; none stops the daemon reading the
        next request."""
        requests = [
            {"op": "batch", "id": 2, "jobs": [], "priority": "high"},
            {"op": "shutdown", "id": 3, "drain": "false"},
            {"op": "stats", "id": 4},
            {"op": "healthz", "id": 5},
        ]
        stdin = io.StringIO("".join(json.dumps(r) + "\n" for r in requests))
        stdout = io.StringIO()

        def broken_stats():
            raise RuntimeError("stats exploded")

        async def scenario():
            config = ServeConfig(workers=0, use_disk_cache=False)
            server = await ReproServer(config).start(listen=False)
            monkeypatch.setattr(server, "stats_payload", broken_stats)
            return await run_stdio(server, stdin=stdin, stdout=stdout)

        assert asyncio.run(scenario()) == 0
        lines = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert [line["id"] for line in lines] == [2, 3, 4, 5]
        assert lines[0]["status"] == 400
        assert "priority" in lines[0]["error"]
        assert lines[1]["status"] == 400
        assert "drain" in lines[1]["error"]
        assert lines[2]["status"] == 500
        assert lines[2]["error"] == "RuntimeError: stats exploded"
        assert lines[3]["ok"] is True
