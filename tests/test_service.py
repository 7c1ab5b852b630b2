"""Tests for the batch-compilation service: jobs, cache, pool, sinks, CLI."""

import json
import os

import pytest

from repro import cli
from repro.service import (
    CompileJob,
    JobResult,
    ResultCache,
    run_batch,
    run_job,
    worker_count,
)

SMOKE_JOBS = [
    CompileJob(bench="LiH", compiler=compiler, device=device,
               scale="smoke", blocks=4)
    for device in ("linear", "full")
    for compiler in ("tetris", "paulihedral", "max-cancel")
]


class TestCompileJob:
    def test_hash_is_stable_and_hex(self):
        job = CompileJob(bench="LiH", compiler="tetris")
        assert job.content_hash() == job.content_hash()
        assert len(job.content_hash()) == 64
        int(job.content_hash(), 16)  # valid hex

    def test_hash_ignores_param_order(self):
        left = CompileJob(bench="LiH", params={"lookahead": 5, "swap_weight": 2.0})
        right = CompileJob(bench="LiH", params={"swap_weight": 2.0, "lookahead": 5})
        assert left == right
        assert left.content_hash() == right.content_hash()

    def test_hash_distinguishes_specs(self):
        base = CompileJob(bench="LiH")
        assert base.content_hash() != CompileJob(bench="BeH2").content_hash()
        assert base.content_hash() != CompileJob(
            bench="LiH", compiler="paulihedral"
        ).content_hash()
        assert base.content_hash() != CompileJob(
            bench="LiH", device="linear"
        ).content_hash()
        assert base.content_hash() != CompileJob(bench="LiH", blocks=3).content_hash()

    def test_dict_round_trip(self):
        job = CompileJob(bench="UCC-10", compiler="tetris",
                         params={"lookahead": 0}, device="sycamore", blocks=7)
        assert CompileJob.from_dict(job.to_dict()) == job

    def test_rejects_unknown_fields_and_values(self):
        with pytest.raises(ValueError):
            CompileJob.from_dict({"bench": "LiH", "banana": 1})
        with pytest.raises(ValueError):
            CompileJob(bench="LiH", compiler="nope")
        with pytest.raises(ValueError):
            CompileJob(bench="LiH", device="torus")
        with pytest.raises(ValueError):
            CompileJob(bench="LiH", scale="huge")


class TestJobResult:
    def test_json_round_trip(self):
        result = run_job(CompileJob(bench="LiH", device="linear",
                                    scale="smoke", blocks=3))
        restored = JobResult.from_json(result.to_json())
        assert restored.job == result.job
        assert restored.metrics == result.metrics
        assert restored.to_json() == result.to_json()

    def test_row_is_flat(self):
        result = run_job(CompileJob(bench="LiH", device="linear",
                                    scale="smoke", blocks=3))
        row = result.row()
        assert row["bench"] == "LiH"
        assert row["cnot"] == result.metrics.cnot_gates
        assert row["error"] == ""


class TestResultCache:
    def test_miss_then_hit_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        job = CompileJob(bench="LiH", device="linear", scale="smoke", blocks=3)
        assert cache.get(job) is None
        result = run_job(job)
        assert cache.put(result)
        hit = cache.get(job)
        assert hit is not None
        assert hit.cached
        assert hit.to_json() == result.to_json()
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert len(cache) == 1

    def test_profiled_lookup_of_unprofiled_entry_is_a_miss(self, tmp_path):
        # The hot cache's rule: an entry written without a profile can't
        # answer a profiled lookup, which counts as a miss and upgrades it.
        cache = ResultCache(str(tmp_path))
        job = CompileJob(bench="LiH", device="linear", scale="smoke", blocks=3)
        cache.put(run_job(job))
        [result] = run_batch([job], cache=cache, profile=True)
        assert result.profile is not None and not result.cached
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)
        assert cache.get(job, require_profile=True).profile is not None
        assert cache.stats.hits == 1

    def test_errored_results_not_cached(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        job = CompileJob(bench="LiH", scale="smoke", blocks=3)
        assert not cache.put(JobResult(job=job, error="boom"))
        assert len(cache) == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        job = CompileJob(bench="LiH", device="linear", scale="smoke", blocks=3)
        cache.put(run_job(job))
        path = cache._path(job.content_hash())
        with open(path, "w") as handle:
            handle.write("{not json")
        assert cache.get(job) is None
        assert not os.path.exists(path)

    def test_clear_and_trim(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        for blocks in (2, 3, 4):
            cache.put(run_job(CompileJob(bench="LiH", device="linear",
                                         scale="smoke", blocks=blocks)))
        assert len(cache) == 3
        assert cache.trim(max_entries=2) == 1
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_clear_and_trim_tolerate_concurrent_deletion(
        self, tmp_path, monkeypatch
    ):
        # Entries removed by another process between listing and unlink
        # (a concurrent trim/clear) are skipped, not errors — and don't
        # inflate the removal counts.
        cache = ResultCache(str(tmp_path))
        for blocks in (2, 3, 4):
            cache.put(run_job(CompileJob(bench="LiH", device="linear",
                                         scale="smoke", blocks=blocks)))
        real = cache._entries()
        ghosts = [os.path.join(str(tmp_path), "00", f"gone-{i}.json")
                  for i in range(2)]
        monkeypatch.setattr(cache, "_entries", lambda: ghosts + list(real))
        # Vanished entries stat to mtime 0.0, so they sort oldest and
        # trim targets them first: nothing real is removed.
        assert cache.trim(max_entries=3) == 0
        assert all(os.path.exists(path) for path in real)
        assert cache.clear() == 3  # the ghosts don't count

    def test_trim_survives_shard_dir_vanishing_mid_scan(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(run_job(CompileJob(bench="LiH", device="linear",
                                     scale="smoke", blocks=3)))
        (tmp_path / "zz").mkdir()            # empty shard, removable
        (tmp_path / "stray-file").touch()    # non-directory in the root
        assert len(cache) == 1               # neither confuses the scan

    def test_cache_stats_json_cli(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "on")
        cache = ResultCache(str(tmp_path))
        cache.put(run_job(CompileJob(bench="LiH", device="linear",
                                     scale="smoke", blocks=3)))
        assert cli.main(["cache", "stats", "--json",
                         "--cache-dir", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["root"] == str(tmp_path)
        assert payload["enabled"] is True
        assert payload["disk"]["entries"] == 1
        assert payload["disk"]["bytes"] > 0
        # Same shape as the serve daemon's /stats disk_cache section.
        assert set(payload["stats"]) == {"hits", "misses", "puts"}


class TestPool:
    def test_worker_count_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert worker_count() == 1
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert worker_count() == 3
        assert worker_count(2) == 2
        assert worker_count(0) == 1

    def test_worker_pool_stays_warm_across_submissions(self):
        # The serve daemon's contract: one pool, many rounds of work.
        from repro.service import WorkerPool, make_payload, merge_envelope

        jobs = SMOKE_JOBS[:2]
        with WorkerPool(processes=1) as pool:
            assert pool.running
            for _round in range(2):
                payloads = [make_payload(job) for job in jobs]
                results = [merge_envelope(envelope)
                           for envelope in pool.imap_payloads(payloads)]
                assert [r.job for r in results] == jobs
                assert all(r.ok for r in results)
        assert not pool.running

    def test_parallel_matches_serial(self):
        serial = run_batch(SMOKE_JOBS, max_workers=1, use_cache=False)
        parallel = run_batch(SMOKE_JOBS, max_workers=2, use_cache=False)
        assert len(serial) == len(parallel) == len(SMOKE_JOBS)
        for left, right in zip(serial, parallel):
            assert left.job == right.job
            assert left.ok and right.ok
            # Gate-level results are deterministic; only timings may differ.
            assert left.metrics.cnot_gates == right.metrics.cnot_gates
            assert left.metrics.total_gates == right.metrics.total_gates
            assert left.metrics.depth == right.metrics.depth
            assert left.metrics.swap_cnots == right.metrics.swap_cnots

    def test_batch_uses_cache_and_preserves_order(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        jobs = SMOKE_JOBS[:3]
        cold = run_batch(jobs, cache=cache)
        assert not any(result.cached for result in cold)
        warm = run_batch(jobs, cache=cache)
        assert all(result.cached for result in warm)
        assert [r.job for r in warm] == jobs
        assert [r.to_json() for r in warm] == [r.to_json() for r in cold]

    def test_bad_job_reports_error_not_crash(self):
        good = CompileJob(bench="LiH", device="linear", scale="smoke", blocks=2)
        bad = CompileJob(bench="NoSuchMolecule", scale="smoke")
        results = run_batch([good, bad], use_cache=False)
        assert results[0].ok
        assert not results[1].ok
        assert results[1].metrics is None
        # Errored rows still carry the metric columns (as empties) so CSV
        # headers built from them keep the full schema.
        assert "cnot" in results[1].row()
        assert results[1].row()["cnot"] == ""

    def test_strict_mode_raises_on_error(self):
        bad = CompileJob(bench="NoSuchMolecule", scale="smoke")
        with pytest.raises(RuntimeError, match="NoSuchMolecule"):
            run_batch([bad], use_cache=False, strict=True)


class TestMultiWorker:
    """execute_jobs with workers > 1: streaming order, cache mixing,
    error isolation, and worker-side observability."""

    def test_streams_in_submission_order(self):
        from repro.service import execute_jobs

        seen = []
        for result in execute_jobs(SMOKE_JOBS, max_workers=2, use_cache=False):
            seen.append(result.job)
        assert seen == [job for job in SMOKE_JOBS]

    def test_mixes_cache_hits_with_fresh_parallel_results(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        warm = SMOKE_JOBS[::2]
        run_batch(warm, cache=cache)
        results = run_batch(SMOKE_JOBS, max_workers=2, cache=cache)
        assert [r.job for r in results] == SMOKE_JOBS
        assert [r.cached for r in results] == [
            job in warm for job in SMOKE_JOBS
        ]
        assert all(r.ok for r in results)
        # The fresh half was written back: a rerun is all hits.
        assert all(r.cached for r in run_batch(SMOKE_JOBS, cache=cache))

    def test_worker_error_does_not_poison_the_pool(self):
        jobs = [
            CompileJob(bench="LiH", device="linear", scale="smoke", blocks=2),
            CompileJob(bench="NoSuchMolecule", scale="smoke"),
            CompileJob(bench="BeH2", device="linear", scale="smoke", blocks=2),
            CompileJob(bench="LiH", device="full", scale="smoke", blocks=2),
        ]
        results = run_batch(jobs, max_workers=2, use_cache=False)
        assert [r.job for r in results] == jobs
        assert [r.ok for r in results] == [True, False, True, True]
        assert "NoSuchMolecule" in results[1].error

    def test_profiles_survive_the_process_boundary(self):
        jobs = SMOKE_JOBS[:4]
        results = run_batch(jobs, max_workers=2, use_cache=False, profile=True)
        for result in results:
            assert result.profile is not None
            assert result.profile.passes

    def test_workers_ship_spans_when_tracing(self):
        from repro import obs

        previous = obs.set_tracer(None)
        try:
            with obs.trace() as tracer:
                results = run_batch(SMOKE_JOBS[:4], max_workers=2,
                                    use_cache=False)
            assert all(r.ok for r in results)
            pids = {span.pid for span in tracer.spans}
            assert len(pids) >= 2, "worker spans must merge into the parent"
            worker_names = {
                s.name for s in tracer.spans if s.pid != os.getpid()
            }
            assert {"worker:payload", "job:run"} <= worker_names
        finally:
            obs.set_tracer(previous)


class TestCliBatch:
    MATRIX_ARGS = ["batch", "--bench", "LiH", "--device", "linear,full",
                   "--compiler", "tetris,paulihedral,max-cancel",
                   "--scale", "smoke", "--blocks", "4"]

    def test_batch_writes_sinks_and_warm_rerun_is_identical(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE", "on")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        jsonl = str(tmp_path / "out.jsonl")
        csv_path = str(tmp_path / "out.csv")
        args = self.MATRIX_ARGS + ["--jsonl", jsonl, "--csv", csv_path]

        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert "6 jobs" in first
        with open(jsonl, "rb") as handle:
            cold_bytes = handle.read()
        rows = [json.loads(line) for line in cold_bytes.splitlines()]
        assert len(rows) == 6
        assert all(row["metrics"]["cnot_gates"] > 0 for row in rows)

        assert cli.main(args) == 0
        second = capsys.readouterr().out
        assert "6 hits" in second
        with open(jsonl, "rb") as handle:
            warm_bytes = handle.read()
        assert warm_bytes == cold_bytes
        with open(csv_path) as handle:
            header = handle.readline()
        assert header.startswith("bench,")

    def test_batch_matrix_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        matrix = tmp_path / "jobs.json"
        matrix.write_text(json.dumps({"jobs": [
            {"bench": "LiH", "compiler": "tetris", "device": "linear",
             "scale": "smoke", "blocks": 3},
            {"bench": "LiH", "compiler": "paulihedral", "device": "linear",
             "scale": "smoke", "blocks": 3},
        ]}))
        assert cli.main(["batch", "--matrix", str(matrix), "--quiet"]) == 0
        assert "2 jobs" in capsys.readouterr().out

    def test_list_flags(self, capsys):
        assert cli.main(["--list-benchmarks"]) == 0
        assert "LiH" in capsys.readouterr().out
        assert cli.main(["--list-compilers"]) == 0
        assert "tetris" in capsys.readouterr().out
        assert cli.main(["--list-devices"]) == 0
        assert "ithaca" in capsys.readouterr().out
