"""Table I — benchmark characteristics (#qubits, #Pauli, #CNOT, #1Q).

Regenerates the workload statistics table.  At ``scale="full"`` the
molecule and synthetic rows should match the paper exactly (same string
counts and logical CNOT counts); QAOA rows depend on the random instances.
"""

from __future__ import annotations

from typing import Dict, List

from ..chem import benchmark_blocks, benchmark_num_qubits, encoder_by_name
from ..compiler.base import logical_cnot_count, logical_one_qubit_count
from ..pauli.block import total_strings
from ..qaoa import QAOA_BENCHMARKS, benchmark_graph, maxcut_blocks, qaoa_gate_counts
from .common import MOLECULES_BY_SCALE, SYNTHETIC_BY_SCALE, check_scale
from .spec import ExperimentSpec, PinnedMetric

#: The paper's Table I, for side-by-side comparison.
PAPER_TABLE1 = {
    "LiH": (12, 640, 8064, 4992),
    "BeH2": (14, 1488, 21072, 11712),
    "CH4": (18, 4240, 73680, 33600),
    "MgH2": (22, 8400, 173264, 66752),
    "LiCl": (28, 17280, 440960, 137600),
    "CO2": (30, 20944, 568656, 166848),
    "UCC-10": (10, 800, 8976, 6400),
    "UCC-15": (15, 1800, 27200, 14400),
    "UCC-20": (20, 3200, 59712, 25600),
    "UCC-25": (25, 5000, 117376, 40000),
    "UCC-30": (30, 7200, 193984, 57600),
    "UCC-35": (35, 9800, 304976, 78400),
}


def run(scale: str = "small") -> List[Dict]:
    """Compute Table I rows (never truncated — workload stats are cheap
    relative to compilation, except the largest molecules at smoke scale).
    """
    check_scale(scale)
    names = MOLECULES_BY_SCALE[scale] + SYNTHETIC_BY_SCALE[scale]
    encoder = encoder_by_name("JW")
    rows: List[Dict] = []
    for name in names:
        blocks = benchmark_blocks(name, encoder)
        paper = PAPER_TABLE1.get(name, (None,) * 4)
        rows.append(
            {
                "bench": name,
                "qubits": benchmark_num_qubits(name),
                "pauli": total_strings(blocks),
                "cnot": logical_cnot_count(blocks),
                "oneq": logical_one_qubit_count(blocks),
                "paper_pauli": paper[1],
                "paper_cnot": paper[2],
                "paper_oneq": paper[3],
            }
        )
    for name in QAOA_BENCHMARKS:
        graph = benchmark_graph(name, seed=0)
        blocks = maxcut_blocks(graph)
        cnots, oneq = qaoa_gate_counts(graph)
        rows.append(
            {
                "bench": name,
                "qubits": graph.number_of_nodes(),
                "pauli": total_strings(blocks),
                "cnot": cnots,
                "oneq": oneq,
                "paper_pauli": None,
                "paper_cnot": None,
                "paper_oneq": None,
            }
        )
    return rows


EXPERIMENT = ExperimentSpec(
    id="table1",
    kind="table",
    title="Table I — benchmark characteristics",
    claim=(
        "The reproduced workloads match the paper's benchmark statistics: "
        "qubit counts, Pauli-string counts, and logical CNOT/1Q gate "
        "counts per molecule and synthetic UCCSD instance."
    ),
    grid="molecules + UCC-n (JW) + QAOA instances; workload stats only, no compilation",
    columns=(
        "bench", "qubits", "pauli", "cnot", "oneq",
        "paper_pauli", "paper_cnot", "paper_oneq",
    ),
    compilers=(),
    devices=(),
    deltas=(
        ("pauli_delta", "pauli", "paper_pauli"),
        ("cnot_delta", "cnot", "paper_cnot"),
        ("oneq_delta", "oneq", "paper_oneq"),
    ),
    pins=(
        PinnedMetric(where={"bench": "LiH"}, column="pauli", expected=640),
        PinnedMetric(where={"bench": "LiH"}, column="cnot", expected=8064),
        PinnedMetric(where={"bench": "LiH"}, column="oneq", expected=4992),
        PinnedMetric(where={"bench": "UCC-10"}, column="pauli", expected=800),
    ),
    runtime_hint="~1 s at any scale (statistics only; the largest molecules dominate)",
)
