"""Compile-job specs and the single-job executor.

A :class:`CompileJob` is a frozen, fully-declarative description of one
compilation cell — (workload, encoder, compiler + params, device, scale) —
with a deterministic content hash.  Because the hash covers every input
that can change the output circuit, it doubles as the cache key for
:mod:`repro.service.cache` and as the dedup key for batch submissions.

Every axis of the cell is registry-backed and spec-string addressable
(see :mod:`repro.registry`): compilers through
:data:`repro.pipeline.registry.PIPELINES`, devices through
:data:`repro.hardware.families.DEVICE_FAMILIES` (``grid:8x8``,
``linear:auto+2``, ...), and workloads through
:data:`repro.workloads.WORKLOADS` (``chem:LiH``, ``qaoa:Rand-16``, ...).

:class:`JobResult` carries the measured :class:`~repro.circuit.metrics.
CircuitMetrics` and serializes to/from JSON, so results can cross process
boundaries (the worker pool) and sessions (the on-disk cache) unchanged.

Execution goes through the pass-pipeline layer: ``compiler`` specs are
pipeline specs (``tetris``, ``tetris:no-gray``, ``ph``, or a custom
pass list — see :mod:`repro.pipeline.registry`), and :func:`run_job`
can attach per-pass profiles.  :func:`run_job` is the one compile path:
the worker pool, the serve daemon, the ``repro.compile`` facade and
``repro`` single mode all execute through it.  Plain compiler names
canonicalize exactly as before the pipeline refactor, so their content
hashes — and the caches keyed by them — are unchanged.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..circuit.metrics import CircuitMetrics
from ..circuit.template import CompiledTemplate
from ..hardware.families import (  # noqa: F401  (device_names re-exported)
    LEGACY_DEVICE_NAMES,
    canonical_device_spec,
    device_names,
    resolve_device,
)
from ..pipeline.manager import PipelineRun
from ..pipeline.profile import PipelineProfile, profile_columns
from ..pipeline.registry import check_compiler_params, resolve_compiler_spec
from ..workloads import (  # noqa: F401  (benchmark_names re-exported)
    SCALES,
    benchmark_names,
    canonical_bench,
    resolve_workload,
    uses_encoder,
    workload_blocks,
)

#: Schema version of the job/result spec.  Version 2 introduced the
#: registry vocabulary (parametric device specs, namespaced workloads).
#: Migration path: content hashes canonicalize each spec first, and any
#: spec still expressible in the version-1 vocabulary hashes under
#: version 1 — so caches warmed before the redesign keep hitting, for
#: both the old spellings and their new-grammar aliases.
SPEC_VERSION = 2

#: The metric columns of a flattened result row (see JobResult.row).
METRIC_COLUMNS = tuple(
    CircuitMetrics(
        num_qubits=0, total_gates=0, cnot_gates=0, one_qubit_gates=0, depth=0
    ).as_row()
)


@dataclass(frozen=True)
class CompileJob:
    """One cell of a compilation sweep, hashable by content.

    ``params`` accepts a mapping at construction and is normalized to a
    sorted tuple of pairs so two jobs built from differently-ordered dicts
    hash identically.  ``compiler`` and ``device`` are validated against
    their registries at construction; ``bench`` is validated only when
    namespaced (bare names stay lazy, erroring at run time, exactly as
    under SPEC_VERSION 1).

    ``parametric=True`` compiles the workload's *structure* only: each
    block's angle becomes a symbolic ``theta[i]`` and the result carries
    a :class:`~repro.circuit.template.CompiledTemplate` whose
    ``bind(theta)`` rewrites just the angle fields.  The content hash
    still covers only structural axes (the flag itself distinguishes
    parametric from baked cells; no angle value ever enters the hash).

    ``calibration`` is a calibration *seed* (an int): the job compiles
    against the device's seeded synthetic calibration snapshot and its
    result carries an ``estimated_fidelity``.  Noise-aware compiler
    specs (``tetris:noise-aware``, ``...+select=<k>``) default it to
    seed 0.  The calibration digest enters the content hash, so
    calibrated and uncalibrated cells — and different calibration
    days — never collide in the cache.
    """

    bench: str
    compiler: str = "tetris"
    encoder: str = "JW"
    device: str = "ithaca"
    scale: str = "small"
    blocks: int = 0
    optimization_level: int = 3
    params: Tuple[Tuple[str, Any], ...] = ()
    parametric: bool = False
    calibration: Optional[int] = None

    def __post_init__(self):
        if isinstance(self.params, Mapping):
            pairs = self.params.items()
        else:
            pairs = self.params
        object.__setattr__(
            self, "params", tuple(sorted((str(k), v) for k, v in pairs))
        )
        object.__setattr__(self, "parametric", bool(self.parametric))
        _, spec_params = resolve_compiler_spec(self.compiler)  # raises on unknown
        canonical_device_spec(self.device)  # raises on unknown/malformed specs
        if ":" in self.bench:
            resolve_workload(self.bench)  # namespaced benches validate eagerly
        if self.scale not in SCALES:
            raise ValueError(f"scale must be one of {SCALES}, got {self.scale!r}")
        if self.calibration is None:
            merged = {**spec_params, **dict(self.params)}
            if merged.get("noise_aware") or merged.get("select"):
                # Noise-aware pipelines need a calibration; default to
                # the seed-0 snapshot so the spec is self-contained.
                object.__setattr__(self, "calibration", 0)
        elif not isinstance(self.calibration, int) or isinstance(
            self.calibration, bool
        ) or self.calibration < 0:
            raise ValueError(
                f"calibration must be a non-negative seed, "
                f"got {self.calibration!r}"
            )

    def to_dict(self) -> Dict[str, Any]:
        spec = {
            "bench": self.bench,
            "compiler": self.compiler,
            "encoder": self.encoder,
            "device": self.device,
            "scale": self.scale,
            "blocks": self.blocks,
            "optimization_level": self.optimization_level,
            "params": {key: value for key, value in self.params},
        }
        # Emitted only when set: baked specs keep their pre-template
        # payload bytes and content hashes, and old payloads round-trip.
        if self.parametric:
            spec["parametric"] = True
        if self.calibration is not None:
            spec["calibration"] = self.calibration
        return spec

    @classmethod
    def from_dict(cls, spec: Mapping[str, Any]) -> "CompileJob":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416 (py3.8 compat)
        unknown = set(spec) - known
        if unknown:
            raise ValueError(f"unknown job fields: {sorted(unknown)}")
        return cls(**dict(spec))

    @classmethod
    def from_request(cls, spec: Mapping[str, Any]) -> "CompileJob":
        """:meth:`from_dict` for a job a client submits (a daemon
        request, a batch matrix): explicit ``params`` the pipeline does
        not take are refused here, naming the accepted ones, rather than
        when the pipeline is built.  Construction accepts any key, so
        the content hashes of older specs still compute."""
        job = cls.from_dict(spec)
        check_compiler_params(
            resolve_compiler_spec(job.compiler)[0], dict(job.params)
        )
        return job

    def canonical_spec(self) -> Dict[str, Any]:
        """The spec with every axis in registry-canonical form.

        Aliases and alternate spellings collapse here, so ``ph`` /
        ``paulihedral``, ``sycamore:8x8`` / ``sycamore`` and
        ``chem:LiH`` / ``LiH`` all describe — and hash as — the same
        cell.  Pipeline variant specs fold into plain parameters:
        ``tetris:no-gray`` canonicalizes to compiler ``tetris`` with
        ``params={"sort_strings": False}``, so both spellings hash
        identically (and can hit caches warmed under either).
        """
        spec = self.to_dict()
        compiler, variant_params = resolve_compiler_spec(self.compiler)
        spec["compiler"] = compiler
        if variant_params:
            spec["params"] = {**variant_params, **spec["params"]}
        spec["device"] = canonical_device_spec(self.device)
        spec["bench"] = canonical_bench(self.bench)
        if self.calibration is not None:
            # The digest pins the actual snapshot contents (device spec,
            # seed, distribution version), so a CALIBRATION_VERSION bump
            # re-keys calibrated cells instead of serving stale circuits.
            from ..hardware.calibration import calibration_digest

            spec["calibration"] = {
                "seed": self.calibration,
                "digest": calibration_digest(self.device, self.calibration),
            }
        return spec

    def content_hash(self) -> str:
        """Deterministic sha256 over the canonical JSON spec.

        Specs expressible in the pre-registry vocabulary hash under
        version 1, byte-identically to the original implementation, so
        existing on-disk caches stay warm; only genuinely new specs
        (parametric devices, namespace-only workloads) hash under
        version 2.
        """
        spec = self.canonical_spec()
        version = SPEC_VERSION
        if (
            spec["device"] in LEGACY_DEVICE_NAMES
            and ":" not in spec["bench"]
            and self.calibration is None
        ):
            version = 1
        payload = json.dumps(
            {"v": version, **spec},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def label(self) -> str:
        """Short human-readable cell id for progress lines."""
        tag = f"{self.bench}/{self.encoder}/{self.compiler}@{self.device}"
        if self.params:
            tag += "(" + ",".join(f"{k}={v}" for k, v in self.params) + ")"
        if self.parametric:
            tag += "[parametric]"
        if self.calibration is not None:
            tag += f"[cal:{self.calibration}]"
        return tag


def grid_jobs(
    benches: Sequence[str],
    compilers: Sequence[str] = ("tetris",),
    devices: Sequence[str] = ("ithaca",),
    encoders: Sequence[str] = ("JW",),
    scale: str = "small",
    blocks: int = 0,
    optimization_level: int = 3,
    params: Mapping[str, Any] = (),
    calibration: Optional[int] = None,
) -> List["CompileJob"]:
    """Cross product of the given axes, deduped by content hash.

    Workloads that ignore the fermionic encoder (QAOA) are normalized to
    JW so JW/BK sweeps don't create duplicate cells.
    """
    jobs: List[CompileJob] = []
    seen = set()
    for bench in benches:
        bench_uses_encoder = uses_encoder(bench)
        for compiler in compilers:
            for device in devices:
                for encoder in encoders:
                    if not bench_uses_encoder:
                        encoder = "JW"
                    job = CompileJob(
                        bench=bench,
                        compiler=compiler,
                        encoder=encoder,
                        device=device,
                        scale=scale,
                        blocks=blocks,
                        optimization_level=optimization_level,
                        params=dict(params),
                        calibration=calibration,
                    )
                    key = job.content_hash()
                    if key not in seen:
                        seen.add(key)
                        jobs.append(job)
    return jobs


@dataclass
class JobResult:
    """The measured outcome of one :class:`CompileJob`.

    ``cached`` is runtime bookkeeping only — it is deliberately excluded
    from serialization so a warm rerun emits byte-identical JSONL.
    ``profile`` is the optional per-pass instrumentation of a
    ``profile=True`` run; it serializes (and caches) when present and is
    omitted entirely otherwise, keeping unprofiled output bytes stable.
    ``template`` rides along the same way for parametric jobs: the
    compiled :class:`~repro.circuit.template.CompiledTemplate` serializes
    inside the result, so it crosses the worker pool and the on-disk
    cache and stays bindable on the other side.
    ``estimated_fidelity`` is the analytic mirror-circuit fidelity of a
    *calibrated* job (``sim.noise.calibrated_fidelity``); it serializes
    when present and is omitted otherwise.
    """

    job: CompileJob
    metrics: Optional[CircuitMetrics] = None
    optimize_seconds: float = 0.0
    error: Optional[str] = None
    cached: bool = False
    profile: Optional[PipelineProfile] = None
    template: Optional[CompiledTemplate] = None
    estimated_fidelity: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def row(self, include_profile: bool = False) -> Dict[str, Any]:
        """Flatten to one table/CSV row: the full job spec then metrics.

        Every ablation axis (``blocks``, ``optimization_level``,
        ``params``) is a column, so two cells differing only in an
        ablation knob stay distinguishable in CSV/JSONL output.  Metric
        columns are always present (empty when the job errored) so a CSV
        header built from an errored first row still carries them.  With
        ``include_profile=True`` the row also carries the aligned
        per-pass columns (``pass_names``, ``pass_seconds``,
        ``pass_cnot_delta``, ...) — empty when the result has no profile
        (errored, or served from an unprofiled cache entry).
        """
        row: Dict[str, Any] = {
            "bench": self.job.bench,
            "encoder": self.job.encoder,
            "compiler": self.job.compiler,
            "device": self.job.device,
            "scale": self.job.scale,
            "blocks": self.job.blocks,
            "optimization_level": self.job.optimization_level,
            "params": ";".join(f"{k}={v}" for k, v in self.job.params),
        }
        if self.metrics is not None:
            row.update(self.metrics.as_row())
        else:
            row.update({column: "" for column in METRIC_COLUMNS})
        # Always a column (empty for uncalibrated jobs) so one CSV
        # header serves mixed calibrated/uncalibrated batches.
        row["estimated_fidelity"] = (
            "" if self.estimated_fidelity is None else self.estimated_fidelity
        )
        if include_profile:
            row.update(profile_columns(self.profile))
        row["error"] = self.error or ""
        return row

    def to_dict(self) -> Dict[str, Any]:
        payload = {
            "schema": SPEC_VERSION,
            "job_hash": self.job.content_hash(),
            "job": self.job.to_dict(),
            "metrics": None if self.metrics is None else asdict(self.metrics),
            "optimize_seconds": self.optimize_seconds,
            "error": self.error,
        }
        if self.profile is not None:
            payload["profile"] = self.profile.to_dict()
        if self.template is not None:
            payload["template"] = self.template.to_dict()
        if self.estimated_fidelity is not None:
            payload["estimated_fidelity"] = self.estimated_fidelity
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "JobResult":
        metrics = payload.get("metrics")
        profile = payload.get("profile")
        template = payload.get("template")
        return cls(
            job=CompileJob.from_dict(payload["job"]),
            metrics=None if metrics is None else CircuitMetrics(**metrics),
            optimize_seconds=payload.get("optimize_seconds", 0.0),
            error=payload.get("error"),
            profile=None if profile is None else PipelineProfile.from_dict(profile),
            template=(
                None if template is None else CompiledTemplate.from_dict(template)
            ),
            estimated_fidelity=payload.get("estimated_fidelity"),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "JobResult":
        return cls.from_dict(json.loads(text))


@lru_cache(maxsize=64)
def _resolved_blocks(bench: str, encoder: str, scale: str) -> Tuple:
    """Per-process workload memo: blocks are expensive to build (molecular
    Hamiltonians) and shared read-only by every compiler in a batch."""
    return tuple(workload_blocks(bench, encoder, scale))


def job_blocks(job: CompileJob):
    """Resolve the job's workload to Pauli blocks (scale-truncated).

    The memo key is the canonical workload spec with the encoder
    normalized away for providers that ignore it, so ``chem:LiH`` and
    ``LiH`` (and a QAOA cell under either encoder label) share one
    entry.
    """
    from ..obs.metrics import (
        METRICS,
        WORKLOAD_MEMO_HITS,
        WORKLOAD_MEMO_MISSES,
    )

    bench = canonical_bench(job.bench)
    encoder = job.encoder if uses_encoder(bench) else "JW"
    memo_hits = _resolved_blocks.cache_info().hits
    blocks = list(_resolved_blocks(bench, encoder, job.scale))
    if _resolved_blocks.cache_info().hits > memo_hits:
        METRICS.counter(WORKLOAD_MEMO_HITS).inc()
    else:
        METRICS.counter(WORKLOAD_MEMO_MISSES).inc()
    if job.blocks > 0:
        blocks = blocks[: job.blocks]
    return blocks


def run_job(job: CompileJob, profile: bool = False) -> JobResult:
    """Execute one job in-process: resolve, build the pipeline, run.

    Every job — legacy compiler names included — runs through the
    pass-pipeline layer (:func:`repro.pipeline.registry.build_pipeline`),
    so ``profile=True`` attaches a per-pass
    :class:`~repro.pipeline.profile.PipelineProfile` to the result at
    the cost of one circuit scan per pass.

    Calibrated jobs (``job.calibration`` set) resolve their synthetic
    calibration snapshot, seed it into the pipeline's property set, and
    attach the analytic ``estimated_fidelity`` of the compiled circuit —
    also observed into the ``jobs.estimated_fidelity`` histogram, so it
    surfaces in the serve daemon's ``/stats``.
    """
    return compile_job(job, profile=profile)[0]


def compile_job(
    job: CompileJob, profile: bool = False
) -> Tuple[JobResult, PipelineRun]:
    """:func:`run_job`, also returning the pipeline run it came from.

    The :class:`~repro.pipeline.manager.PipelineRun` holds what a
    :class:`JobResult` does not serialize — the compiled circuit, its
    layouts and the resolved device — for in-process callers that need
    them (``repro`` single mode writes ``--qasm`` from it).
    """
    from ..pipeline.registry import build_pipeline

    blocks = job_blocks(job)
    coupling = resolve_device(job.device, blocks[0].num_qubits)
    calibration = None
    if job.calibration is not None:
        from ..hardware.calibration import resolve_calibration

        calibration = resolve_calibration(
            job.device, job.calibration, blocks[0].num_qubits
        )
    manager = build_pipeline(
        job.compiler,
        optimization_level=job.optimization_level,
        params=dict(job.params),
    )
    if job.parametric:
        # Lazy import: templates.py imports this module for run_job.
        from .templates import parametrize_blocks

        blocks, parameters, defaults = parametrize_blocks(blocks)
    run = manager.run(blocks, coupling, profile=profile,
                      calibration=calibration)
    template = None
    if job.parametric:
        template = CompiledTemplate(
            run.result.circuit,
            parameters=parameters,
            default_angles=defaults,
        )
    estimated_fidelity = None
    if calibration is not None:
        from ..obs.metrics import ESTIMATED_FIDELITY, METRICS
        from ..sim.noise import calibrated_fidelity

        estimated_fidelity = calibrated_fidelity(
            run.result.circuit, calibration
        )
        METRICS.histogram(ESTIMATED_FIDELITY).observe(estimated_fidelity)
    result = JobResult(
        job=job,
        metrics=run.metrics(),
        optimize_seconds=run.optimize_seconds,
        profile=run.profile,
        template=template,
        estimated_fidelity=estimated_fidelity,
    )
    return result, run
