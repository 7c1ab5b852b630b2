"""Gate-list metric loops: the reference for the column scan.

These are the depth, duration and gate-count loops that measured every
circuit before the metrics moved onto ``(code, q0, q1)`` columns
(:mod:`repro.circuit.metrics`).  They walk :class:`Gate` objects and
decompose SWAPs into CNOTs first, exactly as the paper's accounting
reads; ``tests/test_metrics_scan.py`` asserts the scan matches them.
Do not optimize this module.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.circuit import gate as g
from repro.circuit.gate import DEFAULT_DURATIONS, Gate


def decompose_swaps(gates: List[Gate]) -> List[Gate]:
    """Every SWAP rewritten as its 3 CNOTs."""
    out: List[Gate] = []
    for gate in gates:
        if gate.name == g.SWAP:
            a, b = gate.qubits
            out.extend(
                (Gate(g.CX, (a, b)), Gate(g.CX, (b, a)), Gate(g.CX, (a, b)))
            )
        else:
            out.append(gate)
    return out


def depth(gates: List[Gate]) -> int:
    """Critical-path depth with SWAP counted as 3 CNOT layers."""
    level: Dict[int, int] = {}
    for gate in gates:
        if gate.name == g.BARRIER:
            if gate.qubits:
                top = max(level.get(q, 0) for q in gate.qubits)
                for q in gate.qubits:
                    level[q] = top
            continue
        weight = 3 if gate.name == g.SWAP else 1
        top = max(level.get(q, 0) for q in gate.qubits)
        for q in gate.qubits:
            level[q] = top + weight
    return max(level.values(), default=0)


def circuit_duration(
    gates: List[Gate], durations: Optional[Dict[str, int]] = None
) -> int:
    """ASAP duration in dt with SWAPs decomposed to 3 CNOTs first."""
    durations = durations or DEFAULT_DURATIONS
    ready: Dict[int, int] = {}
    for gate in decompose_swaps(gates):
        if gate.name == g.BARRIER:
            if gate.qubits:
                top = max(ready.get(q, 0) for q in gate.qubits)
                for q in gate.qubits:
                    ready[q] = top
            continue
        start = max((ready.get(q, 0) for q in gate.qubits), default=0)
        span = durations.get(gate.name, 160)
        for q in gate.qubits:
            ready[q] = start + span
    return max(ready.values(), default=0)


def counts(gates: List[Gate]) -> Dict[str, int]:
    """CNOT, 1Q and total counts after SWAP decomposition."""
    decomposed = decompose_swaps(gates)
    cnots = sum(1 for gate in decomposed if gate.name == g.CX)
    oneq = sum(1 for gate in decomposed if gate.is_one_qubit())
    return {"cnot_gates": cnots, "one_qubit_gates": oneq,
            "total_gates": cnots + oneq}


def result_metrics(result) -> Dict[str, int]:
    """What ``CompilationResult.metrics()`` reported from gate lists."""
    gates = list(result.circuit.gates)
    row = counts(gates)
    emitted_logical = (
        row["cnot_gates"] - 3 * result.num_swaps - result.bridge_overhead_cnots
    )
    row.update(
        depth=depth(gates),
        duration=circuit_duration(gates),
        swap_cnots=3 * result.num_swaps,
        canceled_cnots=max(0, result.logical_cnots - emitted_logical),
    )
    return row
