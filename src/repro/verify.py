"""Compiled-circuit verification utilities (public API).

These promote the repository's strongest internal checks to library
functions a downstream user can run on their own workloads:

- :func:`check_hardware_compliance` — every CX and SWAP on a coupled pair;
- :func:`check_equivalence` — the compiled physical circuit implements the
  logical ansatz, modulo the layout permutation, checked on random states
  through the statevector simulator (small devices only);
- :func:`verify_compilation` — both, with a readable report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .circuit.circuit import QuantumCircuit
from .compiler.base import CompilationResult
from .hardware.coupling import CouplingGraph
from .pauli.block import PauliBlock
from .routing.router import verify_hardware_compliant
from .sim.statevector import Statevector
from .synthesis.chain import synthesize_chain

MAX_VERIFIABLE_QUBITS = 12


def reference_ansatz_circuit(
    blocks: Sequence[PauliBlock],
    block_order: Optional[Sequence[int]] = None,
) -> QuantumCircuit:
    """The naive (ladder-synthesis) logical circuit for ``blocks``."""
    order = list(block_order) if block_order is not None else list(range(len(blocks)))
    circuit = QuantumCircuit(blocks[0].num_qubits)
    for index in order:
        block = blocks[index]
        for string, weight in zip(block.strings, block.weights):
            if not string.is_identity():
                synthesize_chain(string, block.angle * weight, circuit)
    return circuit


def _embed(state: np.ndarray, positions: Sequence[int], num_physical: int) -> np.ndarray:
    expanded = state.reshape([2] * len(positions))
    for _ in range(num_physical - len(positions)):
        expanded = np.stack([expanded, np.zeros_like(expanded)], axis=-1)
    order = list(positions) + [p for p in range(num_physical) if p not in positions]
    return np.ascontiguousarray(
        np.moveaxis(expanded, range(num_physical), order)
    ).reshape(-1)


def check_hardware_compliance(
    result: CompilationResult, coupling: CouplingGraph
) -> bool:
    """True iff every CX and SWAP of the compiled circuit is on an edge."""
    return verify_hardware_compliant(result.circuit, coupling)


def check_equivalence(
    result: CompilationResult,
    blocks: Sequence[PauliBlock],
    trials: int = 3,
    seed: int = 0,
    tolerance: float = 1e-7,
) -> float:
    """Minimum overlap between compiled and reference evolution.

    Returns the worst overlap across ``trials`` random logical input
    states; 1.0 means exact equivalence (up to global phase).  Requires a
    device small enough to simulate and recorded initial/final layouts.
    """
    num_physical = result.circuit.num_qubits
    if num_physical > MAX_VERIFIABLE_QUBITS:
        raise ValueError(
            f"equivalence checking is limited to {MAX_VERIFIABLE_QUBITS} "
            f"physical qubits (got {num_physical})"
        )
    if result.initial_layout is None or result.final_layout is None:
        raise ValueError("the compilation result must carry its layouts")
    num_logical = blocks[0].num_qubits
    order = result.extra.get("block_order")
    reference = reference_ansatz_circuit(blocks, order)
    initial = [result.initial_layout.physical(q) for q in range(num_logical)]
    final = [result.final_layout.physical(q) for q in range(num_logical)]

    rng = np.random.default_rng(seed)
    worst = 1.0
    for _ in range(trials):
        state = rng.normal(size=2**num_logical) + 1j * rng.normal(size=2**num_logical)
        state /= np.linalg.norm(state)

        sim_ref = Statevector(num_logical)
        sim_ref.state = state.copy()
        sim_ref.run(reference)
        expected = _embed(sim_ref.state, final, num_physical)

        sim_phys = Statevector(num_physical)
        sim_phys.state = _embed(state, initial, num_physical)
        sim_phys.run(result.circuit)

        worst = min(worst, float(abs(np.vdot(expected, sim_phys.state))))
    return worst


@dataclass
class VerificationReport:
    compliant: bool
    equivalence_overlap: Optional[float]
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        overlap_ok = self.equivalence_overlap is None or (
            self.equivalence_overlap > 1 - 1e-6
        )
        return self.compliant and overlap_ok


def verify_compilation(
    result: CompilationResult,
    blocks: Sequence[PauliBlock],
    coupling: CouplingGraph,
    trials: int = 3,
    seed: int = 0,
) -> VerificationReport:
    """Run both checks; equivalence is skipped on large devices."""
    report = VerificationReport(
        compliant=check_hardware_compliance(result, coupling),
        equivalence_overlap=None,
    )
    if not report.compliant:
        report.notes.append("2Q gate off the coupling graph")
    if coupling.num_qubits <= MAX_VERIFIABLE_QUBITS:
        report.equivalence_overlap = check_equivalence(
            result, blocks, trials=trials, seed=seed
        )
        if report.equivalence_overlap <= 1 - 1e-6:
            report.notes.append(
                f"semantic mismatch: overlap {report.equivalence_overlap:.6f}"
            )
    else:
        report.notes.append(
            "device too large for statevector equivalence; compliance only"
        )
    return report
