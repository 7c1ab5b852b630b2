"""Logical gate accounting and the shared compilation-result record.

Two things live here, shared by every compiler pipeline in
:data:`repro.pipeline.registry.PIPELINES`:

- the paper's logical gate accounting
  (:func:`logical_cnot_count`, :func:`logical_one_qubit_count`) — the
  "original circuit" baselines that cancellation ratios are measured
  against;
- :class:`CompilationResult` — the uniform record every pipeline run
  produces: the physical circuit plus layout and SWAP/bridge accounting,
  with :meth:`CompilationResult.metrics` deriving the paper's metric
  set from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..circuit.circuit import QuantumCircuit
from ..circuit.metrics import CircuitMetrics, critical_paths, gate_counts
from ..pauli.bits import popcount, unpack_bits
from ..pauli.block import PauliBlock, block_planes
from ..routing.layout import Layout


def logical_cnot_count(blocks: Sequence[PauliBlock]) -> int:
    """The paper's "original circuit CNOT" count: ``sum 2*(weight - 1)``,
    from one popcount of the blocks' stacked support planes."""
    x, z, _ = block_planes(blocks)
    weights = popcount(x | z).sum(axis=1, dtype=np.int64)
    return 2 * int(np.maximum(weights - 1, 0).sum())


def logical_one_qubit_count(blocks: Sequence[PauliBlock]) -> int:
    """The paper's Table-I 1Q accounting: two basis gates per non-Z operator.

    RZ rotations are virtual on IBM hardware and excluded — this rule
    reproduces Table I exactly (e.g. LiH: 4992).  An X or Y operator is
    exactly a set x bit, so the count is one popcount of the blocks'
    stacked x planes.
    """
    x, _, _ = block_planes(blocks)
    return 2 * int(popcount(x).sum(dtype=np.int64))


@dataclass
class CompilationResult:
    """Everything an experiment needs about one compiled workload."""

    circuit: QuantumCircuit
    initial_layout: Optional[Layout] = None
    final_layout: Optional[Layout] = None
    num_swaps: int = 0
    bridge_overhead_cnots: int = 0
    logical_cnots: int = 0
    compile_seconds: float = 0.0
    compiler_name: str = ""
    extra: Dict[str, float] = field(default_factory=dict)

    def metrics(self) -> CircuitMetrics:
        """The paper's metric set from one column scan of the circuit
        (see :mod:`repro.circuit.metrics`)."""
        codes, qubits = self.circuit.structure()
        cnots, oneq = gate_counts(codes)
        depth, duration = critical_paths(
            codes, qubits, self.circuit.num_qubits
        )
        swap_cnots = 3 * self.num_swaps
        emitted_logical = cnots - swap_cnots - self.bridge_overhead_cnots
        return CircuitMetrics(
            num_qubits=self.circuit.num_qubits,
            total_gates=cnots + oneq,
            cnot_gates=cnots,
            one_qubit_gates=oneq,
            depth=depth,
            duration=duration,
            swap_cnots=swap_cnots,
            bridge_cnots=self.bridge_overhead_cnots,
            logical_cnots=self.logical_cnots,
            canceled_cnots=max(0, self.logical_cnots - emitted_logical),
            compile_seconds=self.compile_seconds,
            extra=dict(self.extra),
        )


def blocks_num_qubits(blocks: Sequence[PauliBlock]) -> int:
    if not blocks:
        raise ValueError("no blocks to compile")
    return blocks[0].num_qubits


def interaction_pairs(blocks: Sequence[PauliBlock]) -> List:
    """Logical 2Q interaction pairs (consecutive support qubits per string).

    Block by block and string by string, each string's pairs in
    ascending qubit order: one unpack of every block's support plane,
    whose nonzero entries come row-major, so consecutive entries of one
    row are the pairs."""
    if not blocks:
        return []
    x, z, _ = block_planes(blocks)
    rows, qubits = np.nonzero(unpack_bits(x | z, blocks[0].num_qubits))
    same_row = rows[1:] == rows[:-1]
    left = qubits[:-1][same_row].tolist()
    right = qubits[1:][same_row].tolist()
    return list(zip(left, right))
