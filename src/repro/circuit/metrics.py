"""Circuit metrics: depth, gate counts, and the summary record.

Definitions follow Sec. VI-A of the paper:

- *Depth* is the critical-path length with SWAPs decomposed into 3 CNOTs.
  Barriers are transparent; measures and resets occupy one layer.
- *CNOT gate count* includes CNOTs decomposed from SWAPs.
- *Total gate count* is 1Q + CNOT after SWAP decomposition.

Every metric is one scan over the circuit's ``(code, q0, q1)`` columns
(:meth:`QuantumCircuit.structure
<repro.circuit.circuit.QuantumCircuit.structure>`): gate counts are an
``np.bincount`` of the code column, and depth and duration come from one
as-soon-as-possible pass with per-code layer and ``dt`` tables in which a
SWAP weighs what its 3 CNOTs do.  No SWAP is ever decomposed to measure
a circuit, and since the scan ignores angles it measures symbolic
templates exactly as it measures their bindings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from . import gate as g
from .circuit import QuantumCircuit
from .gate import DEFAULT_DURATIONS
from .tape import CODE_CX, CODE_NAMES, CODE_SWAP, GATE_CODES, IS_ONE_QUBIT

#: Depth layers per gate code: a SWAP is its 3 CNOTs, a barrier only
#: synchronizes its wires.
LAYERS = [1] * len(CODE_NAMES)
LAYERS[CODE_SWAP] = 3
LAYERS[GATE_CODES[g.BARRIER]] = 0


def dt_table(durations: Optional[Mapping[str, int]] = None) -> List[int]:
    """Per-code durations in ``dt`` from a gate-name table.

    Names missing from ``durations`` take 160 dt; barriers take none,
    and a SWAP lasts its 3 CNOTs.
    """
    durations = durations or DEFAULT_DURATIONS
    table = [durations.get(name, 160) for name in CODE_NAMES]
    table[GATE_CODES[g.BARRIER]] = 0
    table[CODE_SWAP] = 3 * table[CODE_CX]
    return table


#: Per-code ``dt`` under :data:`~repro.circuit.gate.DEFAULT_DURATIONS`.
DEFAULT_DT = dt_table()


def critical_paths(
    codes: np.ndarray,
    qubits: np.ndarray,
    num_qubits: int,
    dt: List[int] = DEFAULT_DT,
) -> Tuple[int, int]:
    """``(depth, duration)`` of the rows in one ASAP pass.

    Each row starts when the latest of its wires is free and occupies
    them for its ``LAYERS[code]`` layers and ``dt[code]`` dt; a barrier
    (zero of both) thus aligns its wires without occupying them.
    """
    layers = LAYERS
    # One spare slot absorbs the -1 padding of zero-wire barriers.
    level = [0] * (num_qubits + 1)
    ready = [0] * (num_qubits + 1)
    # Weights are read from the tables per row: a per-row list of them
    # would allocate one int object per row for every dt above 256.
    for code, a, b in zip(
        codes.tolist(), qubits[:, 0].tolist(), qubits[:, 1].tolist()
    ):
        if b < 0:
            level[a] += layers[code]
            ready[a] += dt[code]
            continue
        top = level[a]
        other = level[b]
        if other > top:
            top = other
        level[a] = level[b] = top + layers[code]
        start = ready[a]
        other = ready[b]
        if other > start:
            start = other
        ready[a] = ready[b] = start + dt[code]
    return max(level), max(ready)


def gate_counts(codes: np.ndarray) -> Tuple[int, int]:
    """``(cnots, one_qubit)`` of a code column, SWAP counted as 3 CNOTs."""
    counts = np.bincount(codes, minlength=len(CODE_NAMES))
    cnots = int(counts[CODE_CX]) + 3 * int(counts[CODE_SWAP])
    return cnots, int(counts[IS_ONE_QUBIT].sum())


def depth(circuit: QuantumCircuit) -> int:
    """Critical-path depth with SWAP counted as 3 CNOT layers."""
    codes, qubits = circuit.structure()
    return critical_paths(codes, qubits, circuit.num_qubits)[0]


@dataclass
class CircuitMetrics:
    """Summary record used by every experiment harness."""

    num_qubits: int
    total_gates: int
    cnot_gates: int
    one_qubit_gates: int
    depth: int
    duration: int = 0
    swap_cnots: int = 0          # CNOTs attributable to inserted SWAPs
    bridge_cnots: int = 0        # CNOTs attributable to fast bridging
    canceled_cnots: int = 0      # logical CNOTs removed by cancellation
    logical_cnots: int = 0       # logical CNOTs before cancellation
    compile_seconds: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def cancel_ratio(self) -> float:
        """Eq. (2): canceled / original logical CNOT count."""
        if self.logical_cnots == 0:
            return 0.0
        return self.canceled_cnots / self.logical_cnots

    def as_row(self) -> Dict[str, float]:
        """Flatten to a dict for table printing."""
        return {
            "qubits": self.num_qubits,
            "total": self.total_gates,
            "cnot": self.cnot_gates,
            "oneq": self.one_qubit_gates,
            "depth": self.depth,
            "duration": self.duration,
            "swap_cnots": self.swap_cnots,
            "bridge_cnots": self.bridge_cnots,
            "cancel_ratio": round(self.cancel_ratio, 4),
            "compile_s": round(self.compile_seconds, 3),
        }


def measure_circuit(circuit: QuantumCircuit) -> CircuitMetrics:
    """Compute the basic metrics of ``circuit`` (no accounting fields)."""
    codes, qubits = circuit.structure()
    cnots, oneq = gate_counts(codes)
    return CircuitMetrics(
        num_qubits=circuit.num_qubits,
        total_gates=cnots + oneq,
        cnot_gates=cnots,
        one_qubit_gates=oneq,
        depth=critical_paths(codes, qubits, circuit.num_qubits)[0],
    )
