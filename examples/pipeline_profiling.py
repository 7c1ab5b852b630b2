"""Compose pass pipelines and read per-pass profiles.

Three ways to drive the pipeline layer:

1. spec strings through :func:`repro.pipeline.run_pipeline` — named
   pipelines, variants (``tetris:no-gray``), cleanup levels (``+o1``);
2. a hand-built :class:`repro.pipeline.PassManager` mixing stages from
   different compilers;
3. the batch service with ``profile_passes=True`` — profiles attached
   to cached, CSV-flattenable :class:`~repro.service.jobs.JobResult`\\ s.

Each profiled run yields a :class:`~repro.pipeline.PipelineProfile`:
per-pass wall time and CNOT/1Q/depth deltas that telescope exactly to
the end-to-end metrics.

Run with::

    python examples/pipeline_profiling.py
"""

import repro
from repro.analysis import format_table
from repro.chem import molecule_blocks
from repro.hardware import resolve_device
from repro.pipeline import PassManager, run_pipeline
from repro.pipeline.passes import (
    CancelGatesPass,
    ChainSynthesisPass,
    DecomposeSwapsPass,
    InteractionLayoutPass,
    SwapRoutePass,
)


def profile_spec_variants() -> None:
    """Where does the time (and the CNOT win) come from, per variant?"""
    blocks = molecule_blocks("LiH")[:24]
    coupling = resolve_device("grid:4x4", blocks[0].num_qubits)
    for spec in ("tetris", "tetris:no-gray+o1", "paulihedral"):
        run = run_pipeline(spec, blocks, coupling, profile=True)
        metrics = run.metrics()
        print(f"\n{spec}: cnot={metrics.cnot_gates} depth={metrics.depth} "
              f"({run.profile.seconds:.3f}s total)")
        print(format_table(run.profile.rows()))
        assert run.profile.reconciles(
            metrics.cnot_gates, metrics.one_qubit_gates, metrics.depth
        )


def hand_built_manager() -> None:
    """Mix and match stages: T|Ket>-style synthesis, no logical cleanup,
    straight to routing — then cancellation only (an O1-style tail)."""
    blocks = molecule_blocks("LiH")[:24]
    coupling = resolve_device("grid:4x4", blocks[0].num_qubits)
    manager = PassManager(
        [
            ChainSynthesisPass(),
            InteractionLayoutPass(),
            SwapRoutePass(),
            DecomposeSwapsPass(),
            CancelGatesPass(),
        ],
        name="chain-routed-o1",
    )
    run = manager.run(blocks, coupling, profile=True)
    cancel = next(p for p in run.profile.passes if p.name == "cancel")
    print(f"\n{manager.name}: cnot={run.metrics().cnot_gates}, "
          f"cancellation removed {-cancel.cnot_delta} CNOTs "
          f"in {cancel.seconds:.3f}s")


def profile_through_the_service() -> None:
    """The same profiles, attached to batch-service results."""
    result = repro.compile(
        bench="chem:LiH", compiler="tetris", device="grid:4x4",
        scale="smoke", blocks=8, profile_passes=True,
    )
    row = result.row(include_profile=True)
    print(f"\nservice row pass_names:      {row['pass_names']}")
    print(f"service row pass_cnot_delta: {row['pass_cnot_delta']} "
          f"(sums to cnot={row['cnot']})")


if __name__ == "__main__":
    profile_spec_variants()
    hand_built_manager()
    profile_through_the_service()
