"""Circuit duration under ASAP scheduling.

The paper reports *circuit duration* in ``dt`` units from the Qiskit pulse
model.  We reproduce the metric with an as-soon-as-possible scheduler: each
gate starts at the latest ready time of its qubits and occupies them for its
duration.  The circuit duration is the maximum finish time over all qubits.

Gate durations default to :data:`repro.circuit.gate.DEFAULT_DURATIONS`
(IBM-like: RZ/S/Z are virtual and free, 1Q pulses ~160 dt, CNOT ~1800 dt).
Both functions scan the circuit's ``(code, q0, q1)`` columns
(:mod:`repro.circuit.metrics`); neither decomposes a SWAP.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from . import gate as g
from .circuit import QuantumCircuit
from .gate import Gate
from .metrics import LAYERS, critical_paths, dt_table
from .tape import GATE_CODES


def schedule_asap(
    circuit: QuantumCircuit,
    durations: Optional[Dict[str, int]] = None,
) -> List[Tuple[int, Gate]]:
    """Return ``(start_time, gate)`` pairs under ASAP scheduling.

    Barriers align their wires and are left out of the schedule; a SWAP
    is scheduled as one gate of its own table duration.
    """
    codes, qubits = circuit.structure()
    span_of = dt_table(durations, swap_as_cnots=False)
    ready = [0] * (circuit.num_qubits + 1)
    starts: List[int] = []
    for code, a, b in zip(
        codes.tolist(), qubits[:, 0].tolist(), qubits[:, 1].tolist()
    ):
        start = ready[a] if b < 0 else max(ready[a], ready[b])
        starts.append(start)
        ready[a] = start + span_of[code]
        if b >= 0:
            ready[b] = start + span_of[code]
    # Rows and gates agree once barriers (the only gates that may span
    # several rows) are left out.
    scheduled = (codes != GATE_CODES[g.BARRIER]).tolist()
    return list(zip(
        [start for start, keep in zip(starts, scheduled) if keep],
        [gate for gate in circuit.gates if gate.name != g.BARRIER],
    ))


def circuit_duration(
    circuit: QuantumCircuit,
    durations: Optional[Dict[str, int]] = None,
) -> int:
    """Total duration in dt units (a SWAP lasts its 3 CNOTs)."""
    codes, qubits = circuit.structure()
    return critical_paths(
        codes, qubits, circuit.num_qubits, LAYERS, dt_table(durations)
    )[1]
