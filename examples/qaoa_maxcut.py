"""QAOA MaxCut: compare the three QAOA compilation strategies.

Compiles a p=1 MaxCut cost layer with the per-string router (Paulihedral
stand-in), the 2QAN-like commutation-aware scheduler, and Tetris' QAOA path
(bridging + qubit reuse), then verifies on a small instance that the
compiled circuit actually optimizes cuts.

Run with::

    python examples/qaoa_maxcut.py
"""

import numpy as np

from repro.analysis import format_table
from repro.hardware import ibm_ithaca_65, linear
from repro.pipeline import run_pipeline
from repro.qaoa import benchmark_graph, edge_list, maxcut_blocks, random_graph
from repro.sim import Statevector


def compare_compilers() -> None:
    coupling = ibm_ithaca_65()
    rows = []
    for name in ("Rand-16", "REG3-16", "Rand-20"):
        graph = benchmark_graph(name, seed=0)
        blocks = maxcut_blocks(graph)
        row = {"bench": name, "edges": graph.number_of_edges()}
        for label, compiler in (
            ("per-string", "paulihedral"),
            ("2qan-like", "2qan-like"),
            ("tetris-qaoa", "tetris-qaoa"),
        ):
            metrics = run_pipeline(compiler, blocks, coupling).metrics()
            row[f"{label}_cnot"] = metrics.cnot_gates
            row[f"{label}_depth"] = metrics.depth
        rows.append(row)
    print(format_table(rows))


def demo_cut_quality() -> None:
    """Simulate p=1 QAOA on 6 nodes and report the expected cut size."""
    graph = random_graph(6, 8, seed=3)
    edges = edge_list(graph)
    gamma, beta = 0.6, 0.35
    # MaxCut cost is C = sum (1 - Z_u Z_v)/2, so exp(-i gamma C) applies
    # exp(+i gamma/2 ZZ) per edge — a negative angle in our convention.
    blocks = maxcut_blocks(graph, gamma=-gamma)
    coupling = linear(7)
    # +o0: the compiler's own output, SWAPs decomposed, no cleanup tail.
    result = run_pipeline("tetris-qaoa+o0", blocks, coupling).result

    sim = Statevector(coupling.num_qubits)
    from repro.circuit.gate import Gate

    positions = [result.initial_layout.physical(q) for q in range(6)]
    for p in positions:
        sim.apply_gate(Gate("h", (p,)))
    sim.run(result.circuit)
    final = [result.final_layout.physical(q) for q in range(6)]
    for p in final:
        sim.apply_gate(Gate("rx", (p,), (2 * beta,)))

    probabilities = np.abs(sim.state) ** 2
    num_physical = coupling.num_qubits
    expected_cut = 0.0
    for basis, probability in enumerate(probabilities):
        if probability < 1e-12:
            continue
        bits = [(basis >> (num_physical - 1 - p)) & 1 for p in range(num_physical)]
        logical_bits = [bits[p] for p in final]
        cut = sum(1 for u, v in edges if logical_bits[u] != logical_bits[v])
        expected_cut += probability * cut
    uniform_cut = len(edges) / 2
    print(f"\n6-node MaxCut, {len(edges)} edges, p=1 QAOA "
          f"(gamma={gamma}, beta={beta}):")
    print(f"  expected cut under QAOA:    {expected_cut:.3f}")
    print(f"  expected cut under uniform: {uniform_cut:.3f}")
    assert expected_cut > uniform_cut, "QAOA should beat random guessing"


def main() -> None:
    compare_compilers()
    demo_cut_quality()


if __name__ == "__main__":
    main()
