"""Shared test utilities: reference circuits and physical-equivalence checks."""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence

import numpy as np

from repro.circuit import QuantumCircuit
from repro.compiler.base import CompilationResult
from repro.compiler.tetris import synthesis
from repro.hardware import CouplingGraph
from repro.passes import peephole
from repro.pauli import PauliBlock, PauliString
from repro.sim import Statevector
from repro.synthesis import synthesize_chain

PAULI_ALPHABET = "IXYZ"


def random_pauli_string(rng: np.random.Generator, num_qubits: int, min_weight: int = 1) -> PauliString:
    while True:
        chars = [PAULI_ALPHABET[i] for i in rng.integers(0, 4, size=num_qubits)]
        string = PauliString("".join(chars))
        if string.weight >= min_weight:
            return string


def reference_circuit(
    blocks: Sequence[PauliBlock],
    block_order: Optional[Sequence[int]] = None,
) -> QuantumCircuit:
    """Naive logical circuit for ``blocks`` in the given order.

    Strings within a block commute, so any within-block order is valid —
    we use the stored order.
    """
    order = list(block_order) if block_order is not None else range(len(blocks))
    circuit = QuantumCircuit(blocks[0].num_qubits)
    for index in order:
        block = blocks[index]
        for string, weight in zip(block.strings, block.weights):
            if not string.is_identity():
                synthesize_chain(string, block.angle * weight, circuit)
    return circuit


def random_logical_state(rng: np.random.Generator, num_qubits: int) -> np.ndarray:
    state = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return state / np.linalg.norm(state)


def embed_state(
    logical_state: np.ndarray,
    positions: Sequence[int],
    num_physical: int,
) -> np.ndarray:
    """Embed an n-qubit state at the given physical positions, |0> elsewhere."""
    num_logical = len(positions)
    expanded = logical_state.reshape([2] * num_logical)
    # Append one |0> axis per unoccupied physical qubit...
    for _ in range(num_physical - num_logical):
        expanded = np.stack([expanded, np.zeros_like(expanded)], axis=-1)
    # ...then route axes to their physical positions.
    order = list(positions) + [p for p in range(num_physical) if p not in positions]
    full = np.moveaxis(expanded, range(num_physical), order)
    return np.ascontiguousarray(full).reshape(-1)


def assert_physical_equivalence(
    result: CompilationResult,
    blocks: Sequence[PauliBlock],
    trials: int = 3,
    seed: int = 0,
    atol: float = 1e-7,
) -> None:
    """Check the compiled physical circuit implements the logical ansatz.

    Random logical states are embedded at the initial layout, pushed through
    the physical circuit, and compared (up to global phase) against the
    reference logical circuit read out at the final layout.
    """
    rng = np.random.default_rng(seed)
    num_logical = blocks[0].num_qubits
    num_physical = result.circuit.num_qubits
    assert num_physical <= 12, "equivalence checks need a small device"
    order = result.extra.get("block_order", list(range(len(blocks))))
    reference = reference_circuit(blocks, order)
    initial = [result.initial_layout.physical(q) for q in range(num_logical)]
    final = [result.final_layout.physical(q) for q in range(num_logical)]

    for _ in range(trials):
        logical_in = random_logical_state(rng, num_logical)

        sim_ref = Statevector(num_logical)
        sim_ref.state = logical_in.copy()
        sim_ref.run(reference)
        expected = embed_state(sim_ref.state, final, num_physical)

        sim_phys = Statevector(num_physical)
        sim_phys.state = embed_state(logical_in, initial, num_physical)
        sim_phys.run(result.circuit)

        overlap = abs(np.vdot(expected, sim_phys.state))
        assert overlap > 1 - atol, f"physical/logical mismatch: overlap={overlap}"


def run_statevector(circuit: QuantumCircuit, seed: int = 0) -> Statevector:
    """Run ``circuit`` from |0...0> and return the final statevector."""
    return Statevector(circuit.num_qubits, np.random.default_rng(seed)).run(circuit)


def unitaries_equal(a: np.ndarray, b: np.ndarray, tolerance: float = 1e-8) -> bool:
    """Equality up to a global phase."""
    if a.shape != b.shape:
        return False
    # Find the largest entry of a to fix the phase.
    index = np.unravel_index(np.argmax(np.abs(a)), a.shape)
    if abs(b[index]) <= tolerance:
        return False
    phase = a[index] / b[index]
    if not np.isclose(abs(phase), 1.0, atol=tolerance):
        return False
    return bool(np.allclose(a, phase * b, atol=tolerance))


def count_scans(monkeypatch) -> list:
    """Wrap the cancellation scan: the returned list gets one entry per
    scan, the scan's ``alive`` result (None when nothing fired)."""
    scans = []
    scan = peephole._cancel_scan

    def counting(*args):
        result = scan(*args)
        scans.append(result[0])
        return result

    monkeypatch.setattr(peephole, "_cancel_scan", counting)
    return scans


def count_deferrals(monkeypatch) -> list:
    """Wrap Tetris' deferred-leaf step: the returned list gets one entry
    per placement, the number of leaves it deferred."""
    deferrals = []
    attach = synthesis._attach_deferred

    def counting(tracker, coupling, mapped, deferred):
        deferrals.append(len(deferred))
        return attach(tracker, coupling, mapped, deferred)

    monkeypatch.setattr(synthesis, "_attach_deferred", counting)
    return deferrals


def interaction_pairs_reference(blocks: Sequence[PauliBlock]) -> List:
    """``interaction_pairs`` string by string: consecutive support
    qubits of each string, blocks and strings in order."""
    pairs = []
    for block in blocks:
        for string in block.strings:
            support = string.support
            for index in range(len(support) - 1):
                pairs.append((support[index], support[index + 1]))
    return pairs


def logical_cnot_count_reference(blocks: Sequence[PauliBlock]) -> int:
    """``logical_cnot_count`` string by string: ``2 * (weight - 1)`` for
    each string of weight above one."""
    total = 0
    for block in blocks:
        for string in block.strings:
            weight = string.weight
            if weight > 1:
                total += 2 * (weight - 1)
    return total


def logical_one_qubit_count_reference(blocks: Sequence[PauliBlock]) -> int:
    """``logical_one_qubit_count`` operator by operator: two basis gates
    for each non-identity operator that is not Z."""
    total = 0
    for block in blocks:
        for string in block.strings:
            for qubit in string.support:
                if string[qubit] != "Z":
                    total += 2
    return total


def bfs_shortest_path(
    coupling: CouplingGraph, source: int, target: int, blocked=()
) -> Optional[List[int]]:
    """The plain blocked BFS that ``CouplingGraph.shortest_path`` must
    agree with: neighbours in the graph's own adjacency-set order, the
    endpoints allowed even when blocked, no cache and no shortcut."""
    if source == target:
        return [source]
    avoid = set(blocked) - {source, target}
    parents = {source: source}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for other in coupling._adjacency[node]:
            if other in parents or other in avoid:
                continue
            parents[other] = node
            if other == target:
                path = [target]
                while path[-1] != source:
                    path.append(parents[path[-1]])
                return path[::-1]
            queue.append(other)
    return None
