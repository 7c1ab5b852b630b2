"""Composable compilation pipelines with per-pass profiling.

Every compiler in this reproduction is a staged pipeline — block
grouping/ordering, synthesis, routing, peephole cancellation.  This
package makes those stages explicit and recombinable:

- :class:`~repro.pipeline.base.Pass` — the stage protocol
  (:class:`~repro.pipeline.base.AnalysisPass` records properties,
  :class:`~repro.pipeline.base.TransformationPass` rewrites the
  circuit), communicating through a shared
  :class:`~repro.pipeline.base.PropertySet`.
- :class:`~repro.pipeline.manager.PassManager` — runs a named pass
  sequence, validates composition, and times every pass; with
  ``profile=True`` it also snapshots CNOT/1Q/depth around each pass
  into a :class:`~repro.pipeline.profile.PipelineProfile` whose deltas
  telescope to the end-to-end metrics.
- :data:`~repro.pipeline.registry.PIPELINES` /
  :data:`~repro.pipeline.registry.PASSES` — registries behind the
  pipeline spec grammar: ``tetris``, ``tetris+o1``,
  ``tetris:no-gray``, ``tetris:w=0.1,k=5``, or a custom
  ``order-similarity,synth-single-leaf,layout,route`` pass list.

Quick start::

    from repro.chem import molecule_blocks
    from repro.hardware import resolve_device
    from repro.pipeline import run_pipeline

    blocks = molecule_blocks("LiH")[:8]
    run = run_pipeline("tetris", blocks, resolve_device("grid:4x4", 12),
                       profile=True)
    print(run.metrics().cnot_gates)
    for row in run.profile.rows():
        print(row)

Every compiler of the evaluation is one of these pass sequences, and
the batch service executes every :class:`~repro.service.jobs.CompileJob`
through this layer — so a profile is one ``profile_passes=True`` /
``--profile-passes`` away from any compilation.
"""

from .base import (
    AnalysisPass,
    Pass,
    PipelineError,
    PropertySet,
    TransformationPass,
)
from .manager import PassManager, PipelineRun
from .profile import (
    PROFILE_COLUMNS,
    GateSnapshot,
    PassProfile,
    PipelineProfile,
    profile_columns,
    snapshot,
)
from .registry import (
    DEFAULT_OPT_LEVEL,
    OPT_LEVELS,
    PASSES,
    PIPELINES,
    PipelineDef,
    build_pipeline,
    canonical_pipeline_spec,
    cleanup_passes,
    resolve_compiler_spec,
    run_pipeline,
    split_opt_suffix,
)

__all__ = [
    "Pass",
    "AnalysisPass",
    "TransformationPass",
    "PropertySet",
    "PipelineError",
    "PassManager",
    "PipelineRun",
    "PassProfile",
    "PipelineProfile",
    "GateSnapshot",
    "snapshot",
    "profile_columns",
    "PROFILE_COLUMNS",
    "PASSES",
    "PIPELINES",
    "PipelineDef",
    "build_pipeline",
    "run_pipeline",
    "cleanup_passes",
    "canonical_pipeline_spec",
    "resolve_compiler_spec",
    "split_opt_suffix",
    "OPT_LEVELS",
    "DEFAULT_OPT_LEVEL",
]
