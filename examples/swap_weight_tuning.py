"""Explore the Tetris tuning spectrum (paper Sec. IV-B2 / Fig. 20).

Sweeps the SWAP weight ``w`` of the leaf-attachment score on two
architectures and prints the SWAP-count vs logical-CNOT tradeoff, plus the
lookahead-K sensitivity (Fig. 19's ingredient).

Run with::

    python examples/swap_weight_tuning.py
"""

from repro.analysis import format_table
from repro.chem import molecule_blocks
from repro.hardware import google_sycamore_64, ibm_ithaca_65
from repro.pipeline import run_pipeline


def sweep_swap_weight(blocks) -> None:
    rows = []
    for w in (0.1, 1, 3, 10, 100):
        row = {"w": w}
        for label, coupling in (
            ("ithaca", ibm_ithaca_65()),
            ("sycamore", google_sycamore_64()),
        ):
            metrics = run_pipeline(f"tetris:w={w}", blocks, coupling).metrics()
            row[f"{label}_swaps"] = metrics.swap_cnots // 3
            row[f"{label}_logical_cnot"] = (
                metrics.cnot_gates - metrics.swap_cnots - metrics.bridge_cnots
            )
        rows.append(row)
    print("SWAP-weight sweep (LiH prefix):")
    print(format_table(rows))


def sweep_lookahead(blocks) -> None:
    coupling = ibm_ithaca_65()
    rows = []
    for k in (1, 4, 10, 16):
        run = run_pipeline(f"tetris:k={k}", blocks, coupling)
        metrics = run.metrics()
        rows.append(
            {
                "K": k,
                "cnot": metrics.cnot_gates,
                "depth": metrics.depth,
                "compile_s": round(run.compile_seconds, 2),
            }
        )
    print("\nLookahead-K sweep:")
    print(format_table(rows))


def main() -> None:
    blocks = molecule_blocks("LiH")[:60]
    sweep_swap_weight(blocks)
    sweep_lookahead(blocks)


if __name__ == "__main__":
    main()
