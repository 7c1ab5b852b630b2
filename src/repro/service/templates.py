"""Parametric jobs: compile a workload's structure once, bind per request.

Glue between the circuit-layer :class:`~repro.circuit.template.
CompiledTemplate` and the job service.  A *parametric* job
(``CompileJob(parametric=True)``) compiles the workload with each
block's angle replaced by a fresh ``theta[i]`` parameter
(:func:`parametrize_blocks`), so its result carries a reusable template
whose ``bind(theta)`` is orders of magnitude cheaper than a recompile.
The parametric job's content hash covers the *structure* axes only
(workload, compiler, device, scale, blocks, optimization level,
params) — never an angle value — so the result cache and the serve
daemon's resident template slots hold one template per structure.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Sequence, Tuple

from ..circuit.parameter import Parameter
from ..pauli.block import PauliBlock
from .jobs import CompileJob


def parametrize_blocks(
    blocks: Sequence[PauliBlock], prefix: str = "theta"
) -> Tuple[List[PauliBlock], Tuple[Parameter, ...], List[float]]:
    """Replace each block's angle with a fresh ``prefix[i]`` parameter.

    Returns ``(parametric_blocks, parameters, default_angles)`` where
    ``default_angles`` are the blocks' own baked angles — binding them
    into the compiled template must reproduce the baked compile exactly
    (the differential harness's core invariant).
    """
    parametric: List[PauliBlock] = []
    parameters: List[Parameter] = []
    defaults: List[float] = []
    for index, block in enumerate(blocks):
        parameter = Parameter(f"{prefix}[{index}]")
        parametric.append(
            PauliBlock(
                block.strings,
                block.weights,
                angle=parameter,
                label=block.label,
            )
        )
        parameters.append(parameter)
        defaults.append(float(block.angle))
    return parametric, tuple(parameters), defaults


def as_parametric(job: CompileJob) -> CompileJob:
    """The same cell with the parametric flag set (no-op when already)."""
    if job.parametric:
        return job
    return replace(job, parametric=True)
