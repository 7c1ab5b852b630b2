"""Tests for the observability subsystem: spans, metrics, exporters,
cross-process trace merging, the `repro trace`/`repro cache` CLI, and
the check_trace validator."""

import json
import os
import subprocess
import sys

import pytest

from repro import cli, obs
from repro.obs.metrics import METRICS, MetricsRegistry
from repro.obs.tracer import Span
from repro.service import CompileJob, ResultCache, run_batch

TOOLS = os.path.join(os.path.dirname(__file__), "..", "tools")


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Each test starts with tracing off and an empty metrics registry."""
    previous = obs.set_tracer(None)
    saved = METRICS.snapshot()
    METRICS.reset()
    yield
    obs.set_tracer(previous)
    METRICS.reset()
    METRICS.merge(saved)


class TestSpans:
    def test_disabled_span_is_shared_noop(self):
        assert obs.span("anything") is obs.NULL_SPAN
        with obs.span("x", "cat", k=1) as sp:
            assert sp is obs.NULL_SPAN
            assert sp.set(more=2) is obs.NULL_SPAN
        assert not obs.tracing_enabled()

    def test_nesting_and_parent_ids(self):
        with obs.trace() as tracer:
            with obs.span("outer", "t") as outer:
                with obs.span("inner", "t") as inner:
                    pass
        assert len(tracer.spans) == 2
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.start >= outer.start
        assert inner.end <= outer.end
        assert outer.pid == os.getpid()

    def test_attrs_settable_after_close(self):
        with obs.trace() as tracer:
            with obs.span("s", "t", initial=1) as sp:
                pass
            sp.set(late=2)
        assert tracer.spans[0].attrs == {"initial": 1, "late": 2}

    def test_serialize_round_trip(self):
        with obs.trace() as tracer:
            with obs.span("s", "t", k="v"):
                pass
        payload = tracer.serialize()[0]
        restored = Span.from_dict(json.loads(json.dumps(payload)))
        assert restored == tracer.spans[0]

    def test_add_serialized_merges_foreign_spans(self):
        foreign = Span(name="w", category="t", start=1.0, duration=0.5,
                       pid=99999, tid=1, span_id=7)
        with obs.trace() as tracer:
            obs.add_worker_spans([foreign.to_dict()])
        assert [s.name for s in tracer.spans] == ["w"]
        assert tracer.spans[0].pid == 99999

    def test_sessions_nest_and_restore(self):
        with obs.trace() as outer_tracer:
            with obs.trace() as inner_tracer:
                with obs.span("inner-only", "t"):
                    pass
            with obs.span("outer-after", "t"):
                pass
        assert not obs.tracing_enabled()
        assert [s.name for s in inner_tracer.spans] == ["inner-only"]
        assert [s.name for s in outer_tracer.spans] == ["outer-after"]

    def test_trace_writes_exports_even_on_error(self, tmp_path):
        out = tmp_path / "t.json"
        log = tmp_path / "t.jsonl"
        with pytest.raises(RuntimeError):
            with obs.trace(out=str(out), span_log=str(log)):
                with obs.span("doomed", "t"):
                    raise RuntimeError("boom")
        document = json.loads(out.read_text())
        names = [e["name"] for e in document["traceEvents"] if e["ph"] == "X"]
        assert names == ["doomed"]
        assert json.loads(log.read_text().splitlines()[0])["name"] == "doomed"


class TestMetrics:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(2)
        registry.gauge("g").set(4.5)
        for value in (1.0, 3.0):
            registry.histogram("h").observe(value)
        assert registry.counter("c").value == 3
        assert registry.gauge("g").value == 4.5
        hist = registry.histogram("h")
        assert (hist.count, hist.total, hist.min, hist.max) == (2, 4.0, 1.0, 3.0)
        assert hist.mean == 2.0

    def test_snapshot_merge_drain(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(5)
        registry.histogram("h").observe(2.0)
        snapshot = registry.drain()
        assert registry.counter("c").value == 0  # drained
        other = MetricsRegistry()
        other.merge(snapshot)
        other.merge(snapshot)
        assert other.counter("c").value == 10
        assert other.histogram("h").count == 2
        assert other.histogram("h").min == 2.0

    def test_summary_lines_sorted_and_skip_empty_histograms(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc()
        registry.histogram("never")  # created but unobserved
        lines = registry.summary_lines()
        assert lines == ["a = 1", "b = 1"]


class TestExport:
    def _session(self):
        with obs.trace() as tracer:
            with obs.span("outer", "t"):
                with obs.span("inner", "t", detail="x"):
                    pass
        return tracer

    def test_chrome_trace_shape(self):
        tracer = self._session()
        document = obs.to_chrome_trace(tracer.spans, main_pid=tracer.pid)
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert any(e["name"] == "process_name" for e in metadata)
        assert [e["name"] for e in complete] == ["outer", "inner"]
        inner = complete[1]
        assert inner["args"]["detail"] == "x"
        assert inner["args"]["parent_id"] == complete[0]["args"]["span_id"]
        # Microsecond containment: inner within outer.
        assert inner["ts"] >= complete[0]["ts"]
        assert inner["ts"] + inner["dur"] <= (
            complete[0]["ts"] + complete[0]["dur"]
        )
        assert "metrics" in document["otherData"]

    def test_span_log_is_sorted_canonical_jsonl(self, tmp_path):
        tracer = self._session()
        path = tmp_path / "spans.jsonl"
        obs.write_span_log(str(path), tracer.spans)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        names = [json.loads(line)["name"] for line in lines]
        assert names == ["outer", "inner"]  # start-time order

    def test_summary_tree_mentions_names_and_self_time(self):
        tracer = self._session()
        text = obs.summary_tree(tracer.spans, main_pid=tracer.pid)
        assert "outer" in text and "inner" in text
        assert "self" in text and "process" in text

    def test_summary_tree_empty(self):
        assert "no spans" in obs.summary_tree([])


class TestEnvKnobs:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(obs.TRACE_ENV, raising=False)
        assert not obs.trace_env_configured()
        with obs.env_trace() as path:
            assert path is None

    def test_env_trace_writes_named_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv(obs.TRACE_ENV, "my-trace.json")
        monkeypatch.setenv(obs.TRACE_DIR_ENV, str(tmp_path))
        with obs.env_trace() as path:
            assert path == str(tmp_path / "my-trace.json")
            with obs.span("via-env", "t"):
                pass
        document = json.loads((tmp_path / "my-trace.json").read_text())
        assert any(
            e["name"] == "via-env"
            for e in document["traceEvents"] if e["ph"] == "X"
        )

    def test_env_trace_defers_to_active_session(self, monkeypatch):
        monkeypatch.setenv(obs.TRACE_ENV, "on")
        with obs.trace():
            with obs.env_trace() as path:
                assert path is None


SMOKE = dict(device="linear", scale="smoke", blocks=3)


class TestInstrumentation:
    def test_pipeline_pass_spans_reconcile_with_profile(self):
        from repro.pipeline import run_pipeline
        from repro.workloads import workload_blocks
        from repro.hardware.families import resolve_device

        blocks = workload_blocks("LiH", "JW", "smoke")[:3]
        coupling = resolve_device("linear", blocks[0].num_qubits)
        with obs.trace() as tracer:
            run = run_pipeline("tetris", blocks, coupling, profile=True)
        pass_spans = [s for s in tracer.spans if s.name.startswith("pass:")]
        assert len(pass_spans) == len(run.profile.passes)
        by_name = {s.name: s for s in pass_spans}
        for profile in run.profile.passes:
            span = by_name[f"pass:{profile.name}"]
            assert span.attrs["profile_seconds"] == profile.seconds
            assert span.attrs["cnot_delta"] == profile.cnot_delta
            # The span times the same interval with the same clock family.
            assert span.duration >= profile.seconds
            assert span.duration - profile.seconds < 0.05

    def test_cache_spans_and_counters(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        job = CompileJob(bench="LiH", **SMOKE)
        with obs.trace() as tracer:
            run_batch([job], cache=cache)
            run_batch([job], cache=cache)
        gets = [s for s in tracer.spans if s.name == "cache:get"]
        assert [s.attrs["hit"] for s in gets] == [False, True]
        assert any(s.name == "cache:put" for s in tracer.spans)
        counters = METRICS.snapshot()["counters"]
        assert counters["cache.hits"] == 1
        assert counters["cache.misses"] == 1
        assert counters["cache.puts"] == 1

    def test_hit_rate_in_stats_summary(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        job = CompileJob(bench="LiH", **SMOKE)
        run_batch([job], cache=cache)
        run_batch([job], cache=cache)
        assert cache.stats.hit_rate == 0.5
        assert "50.0% hit rate" in cache.stats.summary()
        assert ResultCache(str(tmp_path)).stats.hit_rate == 0.0

    def test_workload_memo_counters(self):
        jobs = [CompileJob(bench="LiH", compiler=c, **SMOKE)
                for c in ("tetris", "paulihedral")]
        run_batch(jobs, use_cache=False)
        counters = METRICS.snapshot()["counters"]
        # Two jobs share one workload: at most one build, at least one memo
        # hit (the memo may be warm from earlier tests, making builds 0).
        assert counters.get("workload.memo_hits", 0) >= 1
        assert counters["jobs.executed"] == 2

    def test_report_provenance_records_tracing(self):
        from repro.report.store import _provenance
        from repro.report.manifest import select_entries

        entry = select_entries()[0]
        assert "traced" not in _provenance(entry)
        with obs.trace():
            assert _provenance(entry)["traced"] is True


class TestWorkerSpans:
    """The multi-worker path: spans and metrics cross the pool boundary."""

    JOBS = [
        CompileJob(bench=bench, compiler=compiler, **SMOKE)
        for bench in ("LiH", "BeH2")
        for compiler in ("tetris", "paulihedral")
    ]

    def test_two_worker_batch_merges_worker_spans(self):
        with obs.trace() as tracer:
            results = run_batch(self.JOBS, max_workers=2, use_cache=False)
        assert [r.job.label() for r in results] == [
            j.label() for j in self.JOBS
        ]
        pids = {s.pid for s in tracer.spans}
        assert os.getpid() in pids
        assert len(pids) >= 2, "expected spans from worker processes"
        worker_spans = [s for s in tracer.spans if s.pid != os.getpid()]
        names = {s.name for s in worker_spans}
        assert "worker:payload" in names
        assert "job:run" in names
        assert "workload:build" in names
        assert any(n.startswith("pass:") for n in names)
        # Worker job spans carry their queue wait on the payload span.
        payloads = [s for s in worker_spans if s.name == "worker:payload"]
        assert all(s.attrs["queue_wait_s"] >= 0.0 for s in payloads)

    def test_worker_metrics_merge_without_double_counting(self):
        run_batch(self.JOBS, max_workers=2, use_cache=False)
        counters = METRICS.snapshot()["counters"]
        assert counters["jobs.executed"] == len(self.JOBS)
        wait = METRICS.snapshot()["histograms"]["pool.queue_wait_seconds"]
        assert wait["count"] == len(self.JOBS)

    def test_untraced_parallel_run_ships_no_spans(self):
        results = run_batch(self.JOBS, max_workers=2, use_cache=False)
        assert all(r.ok for r in results)
        assert not obs.tracing_enabled()

    def test_worker_error_streams_in_order(self):
        jobs = [
            CompileJob(bench="LiH", **SMOKE),
            CompileJob(bench="nonexistent-molecule", **SMOKE),
            CompileJob(bench="BeH2", **SMOKE),
        ]
        results = run_batch(jobs, max_workers=2, use_cache=False)
        assert [r.job.bench for r in results] == [j.bench for j in jobs]
        assert results[0].ok and results[2].ok
        assert not results[1].ok
        counters = METRICS.snapshot()["counters"]
        assert counters["jobs.failed"] == 1


class TestTraceCli:
    @pytest.fixture(autouse=True)
    def cold_workload_memo(self):
        """Single mode compiles through the service's per-process
        workload memo; start each trace cold, as a fresh ``repro trace
        single`` process does."""
        from repro.service.jobs import _resolved_blocks

        _resolved_blocks.cache_clear()

    def test_trace_single_writes_valid_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        log = tmp_path / "spans.jsonl"
        code = cli.main([
            "trace", "single", "--out", str(out), "--span-log", str(log),
            "--bench", "LiH", "--device", "linear", "--blocks", "3",
            "--profile-passes",
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "trace summary:" in stdout
        assert "wrote" in stdout
        document = json.loads(out.read_text())
        names = {e["name"] for e in document["traceEvents"] if e["ph"] == "X"}
        assert "workload:build" in names
        assert any(name.startswith("pass:") for name in names)
        assert log.exists()

    def test_trace_batch_uses_cache_and_summarizes(self, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "on")
        out = tmp_path / "trace.json"
        code = cli.main([
            "trace", "batch", "--out", str(out), "--no-summary",
            "--bench", "LiH", "--device", "linear", "--scale", "smoke",
            "--blocks", "3", "--cache-dir", str(tmp_path / "cache"),
            "--quiet",
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "trace summary:" not in stdout  # --no-summary
        names = {
            e["name"]
            for e in json.loads(out.read_text())["traceEvents"]
            if e["ph"] == "X"
        }
        assert "batch:execute" in names
        assert "cache:get" in names

    def test_check_trace_validates_cli_output(self, tmp_path):
        out = tmp_path / "trace.json"
        assert cli.main([
            "trace", "single", "--out", str(out), "--no-summary",
            "--bench", "LiH", "--device", "linear", "--blocks", "3",
            "--profile-passes",
        ]) == 0
        proc = subprocess.run(
            [sys.executable, os.path.join(TOOLS, "check_trace.py"), str(out),
             "--reconcile", "--require", "pass:",
             "--require", "workload:build"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout

    def test_check_trace_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"traceEvents\": []}")
        proc = subprocess.run(
            [sys.executable, os.path.join(TOOLS, "check_trace.py"), str(bad)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "FAIL" in proc.stderr

    def test_check_trace_rejects_partial_overlap(self, tmp_path):
        overlapping = {
            "traceEvents": [
                {"ph": "X", "name": "a", "cat": "t", "ts": 0.0,
                 "dur": 100.0, "pid": 1, "tid": 1, "args": {}},
                {"ph": "X", "name": "b", "cat": "t", "ts": 50.0,
                 "dur": 100.0, "pid": 1, "tid": 1, "args": {}},
            ]
        }
        bad = tmp_path / "overlap.json"
        bad.write_text(json.dumps(overlapping))
        proc = subprocess.run(
            [sys.executable, os.path.join(TOOLS, "check_trace.py"), str(bad)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "partially overlaps" in proc.stderr


class TestCacheCli:
    def test_stats_clear_trim(self, tmp_path, capsys):
        cache = ResultCache(str(tmp_path))
        jobs = [CompileJob(bench="LiH", compiler=c, **SMOKE)
                for c in ("tetris", "paulihedral", "max-cancel")]
        run_batch(jobs, cache=cache)
        assert cli.main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        stdout = capsys.readouterr().out
        assert "entries: 3" in stdout
        assert cli.main(["cache", "trim", "--cache-dir", str(tmp_path),
                         "--max", "1"]) == 0
        assert "trimmed 2" in capsys.readouterr().out
        assert METRICS.snapshot()["counters"]["cache.evictions"] == 2
        assert cli.main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "cleared 1" in capsys.readouterr().out
        assert len(ResultCache(str(tmp_path))) == 0

    def test_batch_summary_shows_hit_rate(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "on")
        args = ["batch", "--bench", "LiH", "--device", "linear",
                "--scale", "smoke", "--blocks", "3",
                "--cache-dir", str(tmp_path), "--quiet"]
        assert cli.main(args) == 0
        capsys.readouterr()
        assert cli.main(args) == 0
        assert "100.0% hit rate" in capsys.readouterr().out


class TestOverheadContract:
    def test_disabled_span_does_not_allocate_new_objects(self):
        first = obs.span("a", "b", attr=1)
        second = obs.span("c")
        assert first is second is obs.NULL_SPAN

    def test_bench_obs_quick_gate(self):
        """The CI overhead gate must hold under the test runner too."""
        bench = os.path.join(
            os.path.dirname(__file__), "..", "benchmarks", "bench_obs.py"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src"),
             env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        proc = subprocess.run(
            [sys.executable, bench, "--quick", "--gate"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "gates OK" in proc.stdout
