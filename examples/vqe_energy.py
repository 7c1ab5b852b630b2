"""End-to-end VQE on a synthetic 4-orbital molecule.

Demonstrates the full pipeline the paper's compiler serves:

1. build a (synthetic) molecular Hamiltonian,
2. build the UCCSD ansatz as Pauli blocks with variational amplitudes,
3. compile the ansatz with Tetris onto a line device,
4. evaluate <H> by simulating the *compiled physical circuit*, and
5. minimize over the amplitudes with scipy.

The optimized energy approaches the exact ground state of the particle
sector the ansatz explores — evidence that the compiled circuits are
faithful.

Run with::

    python examples/vqe_energy.py
"""

import numpy as np
from scipy.optimize import minimize

from repro.chem import (
    JordanWignerEncoder,
    dense_hamiltonian,
    excitation_to_block,
    expectation_value,
    molecular_hamiltonian,
    uccsd_excitations,
)
from repro.circuit.gate import Gate
from repro.hardware import linear
from repro.pipeline import run_pipeline
from repro.sim import Statevector

NUM_SPATIAL = 2          # 4 spin orbitals -> 4 qubits
NUM_OCCUPIED = 1
NUM_QUBITS = 2 * NUM_SPATIAL
DEVICE = linear(6)       # 6 physical qubits for a 4-qubit problem

#: Hartree-Fock reference: orbital 0 of each spin block occupied (blocked
#: spin-orbital convention -> qubits 0 and NUM_SPATIAL).
HF_OCCUPIED = (0, NUM_SPATIAL)


def ansatz_blocks(amplitudes):
    encoder = JordanWignerEncoder()
    excitations = uccsd_excitations(NUM_SPATIAL, NUM_OCCUPIED)
    return [
        excitation_to_block(excitation, encoder, NUM_QUBITS, float(theta))
        for excitation, theta in zip(excitations, amplitudes)
    ]


def sector_ground_energy(hamiltonian) -> float:
    """Exact minimum within the ansatz's particle/spin sector."""
    matrix = dense_hamiltonian(hamiltonian)
    indices = []
    for basis in range(2**NUM_QUBITS):
        bits = [(basis >> (NUM_QUBITS - 1 - q)) & 1 for q in range(NUM_QUBITS)]
        n_alpha = sum(bits[:NUM_SPATIAL])
        n_beta = sum(bits[NUM_SPATIAL:])
        if n_alpha == NUM_OCCUPIED and n_beta == NUM_OCCUPIED:
            indices.append(basis)
    restricted = matrix[np.ix_(indices, indices)]
    return float(np.linalg.eigvalsh(restricted)[0])


def energy(amplitudes, hamiltonian, compiler) -> float:
    blocks = ansatz_blocks(amplitudes)
    result = run_pipeline(compiler, blocks, DEVICE).result
    sim = Statevector(DEVICE.num_qubits)
    for orbital in HF_OCCUPIED:
        sim.apply_gate(Gate("x", (result.initial_layout.physical(orbital),)))
    sim.run(result.circuit)
    # Read the logical state back out of the final layout.
    final = [result.final_layout.physical(q) for q in range(NUM_QUBITS)]
    tensor = sim.state.reshape([2] * DEVICE.num_qubits)
    ancilla_axes = [p for p in range(DEVICE.num_qubits) if p not in final]
    ordered = np.moveaxis(tensor, final + ancilla_axes, range(DEVICE.num_qubits))
    logical = np.ascontiguousarray(ordered).reshape(2**NUM_QUBITS, -1)[:, 0]
    return expectation_value(hamiltonian, logical)


def main() -> None:
    hamiltonian = molecular_hamiltonian(NUM_QUBITS, seed=11)
    exact = sector_ground_energy(hamiltonian)
    print(f"Synthetic molecule on {NUM_QUBITS} qubits, "
          f"{len(hamiltonian)} Hamiltonian terms")
    print(f"Exact sector ground-state energy: {exact:.6f}")

    num_parameters = len(uccsd_excitations(NUM_SPATIAL, NUM_OCCUPIED))
    # The compiler's own output (SWAPs decomposed, no cleanup tail).
    compiler = "tetris+o0"
    rng = np.random.default_rng(0)
    initial = rng.uniform(-0.1, 0.1, size=num_parameters)

    def objective(theta):
        return energy(theta, hamiltonian, compiler)

    print(f"Initial ansatz energy:            {objective(initial):.6f}")
    outcome = minimize(objective, initial, method="COBYLA",
                       options={"maxiter": 200, "rhobeg": 0.4})
    print(f"VQE optimized energy:             {outcome.fun:.6f}")
    print(f"Gap to exact sector minimum:      {outcome.fun - exact:.2e}")


if __name__ == "__main__":
    main()
