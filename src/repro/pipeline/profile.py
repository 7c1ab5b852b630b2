"""Per-pass instrumentation records.

Every profiled :class:`~repro.pipeline.manager.PassManager` run produces
a :class:`PipelineProfile`: one :class:`PassProfile` per executed pass
with its wall time and the CNOT / 1Q-gate / depth snapshot on either
side.  Snapshots count SWAPs as 3 CNOTs (and weight them as 3 depth
layers), exactly like the final :class:`~repro.circuit.metrics.
CircuitMetrics`, so the per-pass deltas telescope: the sum of every
pass's delta equals the end-to-end metric of the finished circuit
(:meth:`PipelineProfile.reconciles` checks this).

Profiles serialize to plain JSON dicts so they can cross process
boundaries (the worker pool) and sessions (the result cache) attached to
a :class:`~repro.service.jobs.JobResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from ..circuit.circuit import QuantumCircuit
from ..circuit.metrics import critical_paths, gate_counts


@dataclass(frozen=True)
class GateSnapshot:
    """Cheap circuit size triple taken between passes."""

    cnot: int = 0
    one_qubit: int = 0
    depth: int = 0


def snapshot(circuit: Optional[QuantumCircuit]) -> GateSnapshot:
    """Measure ``circuit`` with the metric scan (SWAP = 3 CNOTs/layers).

    Reads only the ``(code, q0, q1)`` columns, so a tape-backed circuit
    is never decoded between passes."""
    if circuit is None:
        return GateSnapshot()
    codes, qubits = circuit.structure()
    cnot, one_qubit = gate_counts(codes)
    return GateSnapshot(
        cnot=cnot,
        one_qubit=one_qubit,
        depth=critical_paths(codes, qubits, circuit.num_qubits)[0],
    )


@dataclass
class PassProfile:
    """One pass's wall time and before/after circuit snapshot."""

    name: str
    kind: str      # "analysis" | "transformation"
    stage: str     # "synthesis" | "optimize"
    seconds: float
    cnot_before: int = 0
    cnot_after: int = 0
    one_qubit_before: int = 0
    one_qubit_after: int = 0
    depth_before: int = 0
    depth_after: int = 0

    @property
    def cnot_delta(self) -> int:
        return self.cnot_after - self.cnot_before

    @property
    def one_qubit_delta(self) -> int:
        return self.one_qubit_after - self.one_qubit_before

    @property
    def depth_delta(self) -> int:
        return self.depth_after - self.depth_before

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "stage": self.stage,
            "seconds": self.seconds,
            "cnot": [self.cnot_before, self.cnot_after],
            "one_qubit": [self.one_qubit_before, self.one_qubit_after],
            "depth": [self.depth_before, self.depth_after],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "PassProfile":
        return cls(
            name=payload["name"],
            kind=payload["kind"],
            stage=payload["stage"],
            seconds=payload["seconds"],
            cnot_before=payload["cnot"][0],
            cnot_after=payload["cnot"][1],
            one_qubit_before=payload["one_qubit"][0],
            one_qubit_after=payload["one_qubit"][1],
            depth_before=payload["depth"][0],
            depth_after=payload["depth"][1],
        )


@dataclass
class PipelineProfile:
    """The ordered per-pass profiles of one pipeline run."""

    pipeline: str
    passes: List[PassProfile]

    @property
    def seconds(self) -> float:
        return sum(p.seconds for p in self.passes)

    def totals(self) -> Dict[str, int]:
        """Summed deltas — equal to the final circuit's metrics because
        the first snapshot is the empty circuit."""
        return {
            "cnot": sum(p.cnot_delta for p in self.passes),
            "one_qubit": sum(p.one_qubit_delta for p in self.passes),
            "depth": sum(p.depth_delta for p in self.passes),
        }

    def reconciles(self, cnot: int, one_qubit: int, depth: int) -> bool:
        """True when snapshots chain (after[i] == before[i+1]) and the
        summed deltas equal the given end-to-end metrics."""
        for left, right in zip(self.passes, self.passes[1:]):
            if (left.cnot_after, left.one_qubit_after, left.depth_after) != (
                right.cnot_before, right.one_qubit_before, right.depth_before
            ):
                return False
        totals = self.totals()
        return totals == {"cnot": cnot, "one_qubit": one_qubit, "depth": depth}

    def columns(self) -> Dict[str, str]:
        """Flatten to aligned, ``;``-joined CSV/JSONL row columns."""
        return {
            "pass_names": ";".join(p.name for p in self.passes),
            "pass_seconds": ";".join(f"{p.seconds:.6f}" for p in self.passes),
            "pass_cnot_delta": ";".join(str(p.cnot_delta) for p in self.passes),
            "pass_oneq_delta": ";".join(
                str(p.one_qubit_delta) for p in self.passes
            ),
            "pass_depth_delta": ";".join(
                str(p.depth_delta) for p in self.passes
            ),
        }

    def rows(self) -> List[Dict]:
        """One printable dict per pass (for table rendering)."""
        return [
            {
                "pass": p.name,
                "kind": p.kind,
                "stage": p.stage,
                "seconds": round(p.seconds, 6),
                "cnot_delta": p.cnot_delta,
                "oneq_delta": p.one_qubit_delta,
                "depth_delta": p.depth_delta,
            }
            for p in self.passes
        ]

    def to_dict(self) -> Dict:
        return {
            "pipeline": self.pipeline,
            "passes": [p.to_dict() for p in self.passes],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "PipelineProfile":
        return cls(
            pipeline=payload["pipeline"],
            passes=[PassProfile.from_dict(p) for p in payload["passes"]],
        )


#: Column names contributed by :meth:`PipelineProfile.columns` — kept in
#: one place so result rows can emit empty cells for unprofiled runs.
PROFILE_COLUMNS = (
    "pass_names",
    "pass_seconds",
    "pass_cnot_delta",
    "pass_oneq_delta",
    "pass_depth_delta",
)


def profile_columns(profile: Optional["PipelineProfile"]) -> Dict[str, str]:
    """``profile.columns()`` or all-empty cells when not profiled."""
    if profile is None:
        return {column: "" for column in PROFILE_COLUMNS}
    return profile.columns()
