"""Circuit duration under ASAP scheduling.

The paper reports *circuit duration* in ``dt`` units from the Qiskit pulse
model.  We reproduce the metric with an as-soon-as-possible scheduler: each
gate starts at the latest ready time of its qubits and occupies them for its
duration.  The circuit duration is the maximum finish time over all qubits.

Gate durations default to :data:`repro.circuit.gate.DEFAULT_DURATIONS`
(IBM-like: RZ/S/Z are virtual and free, 1Q pulses ~160 dt, CNOT ~1800 dt).
The duration is one scan of the circuit's ``(code, q0, q1)`` columns
(:mod:`repro.circuit.metrics`); no SWAP is decomposed.
"""

from __future__ import annotations

from typing import Dict, Optional

from .circuit import QuantumCircuit
from .metrics import critical_paths, dt_table


def circuit_duration(
    circuit: QuantumCircuit,
    durations: Optional[Dict[str, int]] = None,
) -> int:
    """Total duration in dt units (a SWAP lasts its 3 CNOTs)."""
    codes, qubits = circuit.structure()
    return critical_paths(
        codes, qubits, circuit.num_qubits, dt_table(durations)
    )[1]
