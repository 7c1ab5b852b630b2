"""Hypothesis property tests across module boundaries.

These are the repository's deepest invariants:

- any compiler output is hardware-compliant and semantically equivalent to
  the logical ansatz, for *randomly generated* commuting blocks;
- the peephole pass is idempotent and never increases gate counts;
- block similarity (Eq. 1) is symmetric and bounded;
- routing random circuits always yields coupled 2Q gates.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hardware import grid, linear
from repro.passes import cancel_gates
from repro.pauli import PauliBlock, block_similarity
from repro.pipeline import run_pipeline
from repro.routing import route_circuit, verify_hardware_compliant
from repro.circuit import QuantumCircuit

from helpers import assert_physical_equivalence, random_pauli_string


def random_commuting_block(rng, num_qubits):
    """A block of 1-3 mutually commuting strings (rejection sampling)."""
    strings = [random_pauli_string(rng, num_qubits)]
    for _ in range(int(rng.integers(0, 3))):
        for _attempt in range(20):
            candidate = random_pauli_string(rng, num_qubits)
            if all(candidate.commutes_with(s) for s in strings):
                strings.append(candidate)
                break
    weights = [float(w) for w in rng.uniform(-1, 1, size=len(strings))]
    weights = [w if abs(w) > 0.05 else 0.1 for w in weights]
    return PauliBlock(strings, weights, angle=float(rng.uniform(-1.5, 1.5)))


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10**6))
def test_tetris_equivalence_on_random_blocks(seed):
    rng = np.random.default_rng(seed)
    num_qubits = 4
    blocks = [random_commuting_block(rng, num_qubits) for _ in range(3)]
    coupling = linear(6)
    result = run_pipeline("tetris+o0", blocks, coupling).result
    assert verify_hardware_compliant(result.circuit, coupling)
    assert_physical_equivalence(result, blocks, trials=1, seed=seed)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10**6))
def test_paulihedral_equivalence_on_random_blocks(seed):
    rng = np.random.default_rng(seed)
    blocks = [random_commuting_block(rng, 4) for _ in range(3)]
    coupling = grid(2, 3)
    result = run_pipeline("paulihedral+o0", blocks, coupling).result
    assert verify_hardware_compliant(result.circuit, coupling)
    assert_physical_equivalence(result, blocks, trials=1, seed=seed)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_peephole_idempotent(seed):
    rng = np.random.default_rng(seed)
    qc = QuantumCircuit(3)
    for _ in range(25):
        kind = rng.integers(4)
        if kind == 0:
            qc.h(int(rng.integers(3)))
        elif kind == 1:
            qc.rz(float(rng.uniform(-3, 3)), int(rng.integers(3)))
        elif kind == 2:
            qc.s(int(rng.integers(3)))
        else:
            a, b = rng.choice(3, 2, replace=False)
            qc.cx(int(a), int(b))
    once = cancel_gates(qc)
    twice = cancel_gates(once)
    assert once.gates == twice.gates
    assert len(once) <= len(qc)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_similarity_symmetric_and_bounded(seed):
    rng = np.random.default_rng(seed)
    a = random_commuting_block(rng, 5)
    b = random_commuting_block(rng, 5)
    forward = block_similarity(a, b)
    backward = block_similarity(b, a)
    assert forward == pytest.approx(backward)
    assert 0.0 <= forward <= 1.0
    if len(a.common_qubits()) > 0:
        assert block_similarity(a, a) == pytest.approx(1.0)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_routing_random_circuits_compliant(seed):
    rng = np.random.default_rng(seed)
    num_logical = 5
    qc = QuantumCircuit(num_logical)
    for _ in range(15):
        a, b = rng.choice(num_logical, 2, replace=False)
        qc.cx(int(a), int(b))
    routed = route_circuit(qc, linear(6))
    assert verify_hardware_compliant(routed.circuit, linear(6))
    # CNOT conservation: routed CNOTs = original + 3 per SWAP.
    assert (
        routed.circuit.decompose_swaps().count_ops()["cx"]
        == 15 + 3 * routed.num_swaps
    )
