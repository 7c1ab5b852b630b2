"""Batch-compilation service: jobs, cache, worker pool, result sinks.

The paper's artifact is a compiler x workload x device sweep.  This
package turns each cell of that sweep into a declarative, content-hashed
:class:`CompileJob`, executes batches across ``REPRO_JOBS`` worker
processes with a content-addressed result cache underneath, and streams
:class:`JobResult` records to JSONL/CSV sinks.

Typical use::

    from repro.service import CompileJob, run_batch

    jobs = [
        CompileJob(bench="LiH", compiler=c, scale="smoke")
        for c in ("paulihedral", "tetris")
    ]
    for result in run_batch(jobs):
        print(result.job.label(), result.metrics.cnot_gates)

Environment knobs: ``REPRO_JOBS`` (workers, default 1), ``REPRO_CACHE_DIR``
(cache root, default ``~/.cache/repro``), ``REPRO_CACHE=off`` (disable).
"""

from .cache import (
    GLOBAL_STATS,
    CacheStats,
    ResultCache,
    cache_enabled,
    default_cache,
    default_cache_dir,
)
from .jobs import (
    SPEC_VERSION,
    CompileJob,
    JobResult,
    benchmark_names,
    compile_job,
    device_names,
    grid_jobs,
    job_blocks,
    resolve_device,
    run_job,
)
from .pool import (
    WorkerPool,
    execute_job_safe,
    execute_jobs,
    make_payload,
    merge_envelope,
    run_batch,
    worker_count,
)
from .sink import CsvSink, JsonlSink
from .templates import as_parametric, parametrize_blocks

__all__ = [
    "SPEC_VERSION",
    "CompileJob",
    "JobResult",
    "run_job",
    "compile_job",
    "job_blocks",
    "grid_jobs",
    "resolve_device",
    "benchmark_names",
    "device_names",
    "ResultCache",
    "CacheStats",
    "GLOBAL_STATS",
    "cache_enabled",
    "default_cache",
    "default_cache_dir",
    "execute_jobs",
    "execute_job_safe",
    "make_payload",
    "merge_envelope",
    "run_batch",
    "worker_count",
    "WorkerPool",
    "JsonlSink",
    "CsvSink",
    "as_parametric",
    "parametrize_blocks",
]
