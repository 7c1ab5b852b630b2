"""Quickstart: compile a UCCSD ansatz with Tetris and inspect the result.

Run with::

    python examples/quickstart.py
"""

from repro.analysis import format_table
from repro.chem import molecule_blocks
from repro.circuit import to_qasm
from repro.compiler import lower_blocks
from repro.hardware import ibm_ithaca_65
from repro.pipeline import run_pipeline


def main() -> None:
    # 1. Build the workload: LiH's UCCSD ansatz under Jordan-Wigner.
    blocks = molecule_blocks("LiH")
    print(f"LiH: {len(blocks)} excitation blocks, "
          f"{sum(len(b) for b in blocks)} Pauli strings\n")

    # 2. Peek at the Tetris-IR of one block (Fig. 6(b) style).
    ir = lower_blocks(blocks[40:41])[0]
    print("Tetris-IR of one doubles block:")
    print(ir.render())
    print(f"root qubits: {list(ir.root_qubits)}, leaf qubits: {list(ir.leaf_qubits)}\n")

    # 3. Compile for the 65-qubit IBM heavy-hex backend and compare against
    #    the Paulihedral baseline (both post-O3 cleanup, the pipelines'
    #    default tail).
    coupling = ibm_ithaca_65()
    rows = []
    for compiler in ("paulihedral", "tetris"):
        run = run_pipeline(compiler, blocks, coupling)
        metrics = run.metrics()
        rows.append(
            {
                "compiler": run.result.compiler_name,
                "cnot": metrics.cnot_gates,
                "depth": metrics.depth,
                "duration_dt": metrics.duration,
                "swap_cnots": metrics.swap_cnots,
                "cancel_ratio": round(metrics.cancel_ratio, 3),
            }
        )
    print(format_table(rows))

    # 4. Export the head of the compiled circuit as OpenQASM.
    run = run_pipeline("tetris", blocks[:2], coupling)
    qasm = to_qasm(run.result.circuit)
    print("\nFirst lines of the compiled circuit (OpenQASM 2.0):")
    print("\n".join(qasm.splitlines()[:12]))


if __name__ == "__main__":
    main()
