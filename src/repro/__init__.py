"""Tetris: a compilation framework for VQA applications — full reproduction.

Public API highlights
---------------------
- :func:`repro.compile` / :func:`repro.sweep` — compile one cell or a
  whole (workload x compiler x device) grid through the batch service
  (``profile_passes=True`` attaches per-pass profiles).
- :mod:`repro.pipeline` — composable pass pipelines with per-pass
  profiling; every compiler is a registered pass sequence.
- :mod:`repro.registry` — generic registries behind every spec string.
- :mod:`repro.workloads` — workload providers (``chem:LiH``,
  ``ucc:UCC-30``, ``qaoa:Rand-16``).
- :mod:`repro.pauli` — Pauli strings, operators, blocks, similarity.
- :mod:`repro.circuit` — circuit IR and metrics.
- :mod:`repro.hardware` — coupling graphs, device catalog, and the
  device-family registry (``grid:8x8``, ``heavy-hex:5``, ...).
- :mod:`repro.chem` — UCCSD ansatz + Jordan-Wigner / Bravyi-Kitaev encoders.
- :mod:`repro.qaoa` — QAOA workloads.
- :mod:`repro.synthesis` — Pauli-exponential circuit synthesis.
- :mod:`repro.passes` — gate-cancellation optimizer (the Qiskit-O3 stand-in).
- :mod:`repro.compiler` — Tetris and all baseline compilers.
- :mod:`repro.service` — content-hashed jobs, result cache, worker pool.
- :mod:`repro.sim` — statevector simulator and noise/fidelity models.
- :mod:`repro.experiments` — one harness per paper table/figure.
"""

__version__ = "1.1.0"

from .circuit import QuantumCircuit
from .pauli import PauliBlock, PauliString, QubitOperator
from .verify import verify_compilation


def _as_names(value):
    if isinstance(value, str):
        return (value,)
    return tuple(value)


def compile(  # noqa: A001 — the facade intentionally owns this name
    bench,
    compiler="tetris",
    device="ithaca",
    encoder="JW",
    scale="small",
    blocks=0,
    optimization_level=3,
    params=None,
    use_cache=True,
    profile_passes=False,
    parametric=False,
    calibration=None,
):
    """Compile one (workload, compiler, device) cell and return its result.

    Every name is a registry spec string — ``bench="chem:LiH"``,
    ``device="grid:8x8"``, legacy spellings included — and ``compiler``
    accepts full pipeline specs (``"tetris:no-gray"``, a custom pass
    list)::

        import repro
        result = repro.compile(bench="chem:LiH", compiler="tetris",
                               device="grid:8x8", scale="smoke",
                               profile_passes=True)
        print(result.metrics.cnot_gates)
        print(result.profile.rows())   # per-pass time + metric deltas

    With ``parametric=True`` the structure is compiled once against
    symbolic ``theta[i]`` angles and the result carries a reusable
    :class:`~repro.circuit.template.CompiledTemplate`::

        result = repro.compile(bench="chem:LiH", scale="smoke",
                               parametric=True)
        for theta in optimizer:                 # 1 compile, N cheap binds
            circuit = result.template.bind(theta)

    ``calibration`` is a calibration seed: the job compiles against the
    device's seeded synthetic calibration and the result carries an
    analytic ``estimated_fidelity``.  Noise-aware compiler specs
    (``"tetris:noise-aware+select=20"``) imply seed 0 when omitted::

        result = repro.compile(bench="chem:LiH", scale="smoke",
                               device="heavy-hex:ibm-65",
                               compiler="tetris:noise-aware+select=20")
        print(result.estimated_fidelity)

    Runs cache-first through :mod:`repro.service` and returns a
    populated :class:`~repro.service.jobs.JobResult`.  Raises
    ``RuntimeError`` if the compilation fails and ``ValueError`` (or its
    :class:`~repro.registry.RegistryError` subclass) for unknown or
    malformed spec strings.
    """
    from .service import CompileJob, run_batch

    job = CompileJob(
        bench=bench,
        compiler=compiler,
        encoder=encoder,
        device=device,
        scale=scale,
        blocks=blocks,
        optimization_level=optimization_level,
        params=dict(params or {}),
        parametric=parametric,
        calibration=calibration,
    )
    return run_batch(
        [job], use_cache=use_cache, strict=True, profile=profile_passes
    )[0]


def sweep(
    bench,
    compiler="tetris",
    device="ithaca",
    encoder="JW",
    scale="small",
    blocks=0,
    optimization_level=3,
    params=None,
    max_workers=None,
    use_cache=True,
    progress=None,
    strict=True,
    profile_passes=False,
    calibration=None,
):
    """Compile the cross product of the given axes as one batch.

    Each of ``bench`` / ``compiler`` / ``device`` / ``encoder`` may be a
    single spec string or a sequence of them::

        results = repro.sweep(bench=("chem:LiH", "qaoa:Rand-16"),
                              compiler=("tetris", "paulihedral"),
                              device="heavy-hex:5", scale="smoke",
                              max_workers=4)

    Duplicate cells (by content hash) are submitted once, the batch is
    fanned across ``max_workers`` processes through
    :mod:`repro.service.pool` (cache-first), and results return in grid
    order as a list of :class:`~repro.service.jobs.JobResult`.
    """
    from .service import grid_jobs, run_batch

    jobs = grid_jobs(
        _as_names(bench),
        compilers=_as_names(compiler),
        devices=_as_names(device),
        encoders=_as_names(encoder),
        scale=scale,
        blocks=blocks,
        optimization_level=optimization_level,
        params=dict(params or {}),
        calibration=calibration,
    )
    return run_batch(
        jobs,
        max_workers=max_workers,
        use_cache=use_cache,
        progress=progress,
        strict=strict,
        profile=profile_passes,
    )


__all__ = [
    "QuantumCircuit",
    "PauliString",
    "PauliBlock",
    "QubitOperator",
    "verify_compilation",
    "compile",
    "sweep",
    "__version__",
]
