"""The pass manager: run a pass sequence, instrument it, finalize.

:class:`PassManager` owns a named list of passes.  :meth:`PassManager.run`
seeds a :class:`~repro.pipeline.base.PropertySet` with the workload and
device, validates each pass's ``requires`` declaration, times every pass
(always), snapshots the circuit after every transformation pass (only
when ``profile=True`` — a snapshot is one column scan, see
:func:`~repro.pipeline.profile.snapshot`), and assembles
the final :class:`~repro.compiler.base.CompilationResult` from the
well-known state keys.

Wall-clock accounting mirrors the pre-pipeline architecture:
``compile_seconds`` is the summed time of ``stage="synthesis"`` passes
and ``optimize_seconds`` of ``stage="optimize"`` passes, so service rows
stay comparable across the refactor.

Observability: every run opens a ``pipeline:run`` span and every pass a
``pass:<name>`` span (see :mod:`repro.obs`); profiled runs additionally
attach the measured ``profile_seconds`` and metric deltas to each pass
span, so traces and :class:`PipelineProfile` rows reconcile.  Pass wall
clocks always feed the ``pipeline.pass_seconds`` histogram.  All of this
is a no-op outside a tracing session apart from the histogram update.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from ..circuit.metrics import CircuitMetrics
from ..compiler.base import (
    CompilationResult,
    blocks_num_qubits,
    logical_cnot_count,
)
from ..hardware.coupling import CouplingGraph
from ..obs.metrics import METRICS, PASS_SECONDS
from ..obs.tracer import span as obs_span
from ..pauli.block import PauliBlock
from .base import Pass, PipelineError, PropertySet
from .profile import PassProfile, PipelineProfile, snapshot


@dataclass
class PipelineRun:
    """Everything one :meth:`PassManager.run` produced."""

    state: PropertySet
    result: CompilationResult
    profile: Optional[PipelineProfile]
    compile_seconds: float
    optimize_seconds: float

    def metrics(self) -> CircuitMetrics:
        """Post-run metrics with the synthesis-stage wall time attached
        (the same shape a :class:`~repro.service.jobs.JobResult` carries)."""
        metrics = self.result.metrics()
        metrics.compile_seconds = self.compile_seconds
        return metrics


class PassManager:
    """A named, ordered pass sequence over one shared property set.

    Compose directly::

        from repro.pipeline import PassManager, passes as P

        manager = PassManager(
            [P.LowerTetrisIRPass(), P.InteractionLayoutPass(),
             P.TetrisSynthesisPass(), P.DecomposeSwapsPass(),
             P.CancelGatesPass()],
            name="tetris+o1",
        )
        run = manager.run(blocks, coupling, profile=True)
        print(run.metrics().cnot_gates, run.profile.rows())

    or build from a spec string via
    :func:`repro.pipeline.registry.build_pipeline`.
    """

    def __init__(self, passes: Iterable[Pass] = (), name: str = "custom"):
        self.passes: List[Pass] = list(passes)
        self.name = name

    def append(self, pass_: Pass) -> "PassManager":
        self.passes.append(pass_)
        return self

    def extend(self, passes: Iterable[Pass]) -> "PassManager":
        self.passes.extend(passes)
        return self

    def pass_names(self) -> List[str]:
        return [p.name for p in self.passes]

    def __len__(self) -> int:
        return len(self.passes)

    def __repr__(self) -> str:
        return f"PassManager({self.name!r}, {self.pass_names()})"

    def run(
        self,
        blocks: Sequence[PauliBlock],
        coupling: CouplingGraph,
        num_logical: Optional[int] = None,
        profile: bool = False,
        calibration=None,
    ) -> PipelineRun:
        """Execute the sequence over ``blocks`` on ``coupling``.

        ``calibration`` (a :class:`~repro.hardware.calibration.
        Calibration`) seeds the property set for noise-aware passes;
        omitting it while running such a pass raises the usual
        missing-property :class:`~repro.pipeline.base.PipelineError`.

        Raises :class:`~repro.pipeline.base.PipelineError` when a pass's
        required property is missing or the sequence never produced a
        circuit.
        """
        if not self.passes:
            raise PipelineError(f"pipeline {self.name!r} has no passes")
        state = PropertySet(
            blocks=list(blocks),
            coupling=coupling,
            num_logical=num_logical or blocks_num_qubits(blocks),
            extra={},
        )
        if calibration is not None:
            state["calibration"] = calibration
        profiles: List[PassProfile] = []
        compile_seconds = 0.0
        optimize_seconds = 0.0
        # The circuit only changes inside passes, so pass i+1's "before"
        # snapshot is pass i's "after" — carry it forward instead of
        # re-scanning.
        carried = snapshot(state.get("circuit")) if profile else None
        with obs_span(
            "pipeline:run", "pipeline", pipeline=self.name
        ) as pipeline_span:
            for pass_ in self.passes:
                for key in pass_.requires:
                    state.require(key, pass_.name)
                before = carried
                with obs_span(
                    f"pass:{pass_.name}",
                    "pipeline",
                    stage=pass_.stage,
                    kind=pass_.kind,
                ) as pass_span:
                    start = time.perf_counter()
                    pass_.run(state)
                    elapsed = time.perf_counter() - start
                METRICS.histogram(PASS_SECONDS).observe(elapsed)
                if pass_.stage == "optimize":
                    optimize_seconds += elapsed
                else:
                    compile_seconds += elapsed
                if profile:
                    # Analysis passes never touch the circuit.
                    after = (
                        before if pass_.is_analysis
                        else snapshot(state.get("circuit"))
                    )
                    carried = after
                    # Spans are live objects until the session exports, so
                    # the profile deltas (computed after the span closed)
                    # still land on the pass span in the trace.
                    pass_span.set(
                        profile_seconds=elapsed,
                        cnot_delta=after.cnot - before.cnot,
                        oneq_delta=after.one_qubit - before.one_qubit,
                        depth_delta=after.depth - before.depth,
                    )
                    profiles.append(
                        PassProfile(
                            name=pass_.name,
                            kind=pass_.kind,
                            stage=pass_.stage,
                            seconds=elapsed,
                            cnot_before=before.cnot,
                            cnot_after=after.cnot,
                            one_qubit_before=before.one_qubit,
                            one_qubit_after=after.one_qubit,
                            depth_before=before.depth,
                            depth_after=after.depth,
                        )
                    )
            pipeline_span.set(passes=len(self.passes))
        if state.get("circuit") is None:
            raise PipelineError(
                f"pipeline {self.name!r} produced no circuit — it needs at "
                f"least one synthesis pass (ran: {self.pass_names()})"
            )
        result = CompilationResult(
            circuit=state["circuit"],
            initial_layout=state.get("initial_layout"),
            final_layout=state.get("layout"),
            num_swaps=state.get("num_swaps", 0),
            bridge_overhead_cnots=state.get("bridge_overhead_cnots", 0),
            logical_cnots=logical_cnot_count(state["blocks"]),
            compile_seconds=compile_seconds,
            compiler_name=self.name,
            extra=state.get("extra", {}),
        )
        return PipelineRun(
            state=state,
            result=result,
            profile=(
                PipelineProfile(pipeline=self.name, passes=profiles)
                if profile
                else None
            ),
            compile_seconds=compile_seconds,
            optimize_seconds=optimize_seconds,
        )
