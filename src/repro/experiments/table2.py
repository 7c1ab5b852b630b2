"""Table II — Paulihedral vs Tetris: total gates, CNOTs, depth, duration.

The paper's headline table: JW and BK encoders over six molecules plus six
synthetic UCCSD benchmarks on the 65-qubit heavy-hex backend, everything
post-"Qiskit O3".  The Improvement column is the relative reduction by
Tetris; the paper reports -17% .. -41% CNOT reduction under JW.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..analysis import improvement
from ..service import CompileJob, run_batch
from .common import MOLECULES_BY_SCALE, SYNTHETIC_BY_SCALE, check_scale
from .spec import ExperimentSpec, PinnedMetric

#: Paper Table II improvements (%) for the CNOT column, for reference.
PAPER_CNOT_IMPROVEMENT = {
    ("LiH", "JW"): -17.19,
    ("BeH2", "JW"): -31.28,
    ("CH4", "JW"): -30.78,
    ("MgH2", "JW"): -29.79,
    ("LiCl", "JW"): -38.08,
    ("CO2", "JW"): -40.67,
    ("LiH", "BK"): -16.07,
    ("BeH2", "BK"): -21.40,
    ("CH4", "BK"): -11.62,
    ("MgH2", "BK"): -20.30,
    ("LiCl", "BK"): -20.40,
    ("CO2", "BK"): -28.11,
    ("UCC-10", "JW"): -32.89,
    ("UCC-15", "JW"): -21.02,
    ("UCC-20", "JW"): -23.47,
    ("UCC-25", "JW"): -25.20,
    ("UCC-30", "JW"): -25.70,
    ("UCC-35", "JW"): -25.16,
}


def run(
    scale: str = "small",
    encoders: Sequence[str] = ("JW", "BK"),
    benches: Optional[Sequence[str]] = None,
) -> List[Dict]:
    """PH-vs-Tetris metric rows for each (benchmark, encoder) cell.

    Synthetic UCC-n benchmarks join the JW sweep only (as in the paper);
    pass ``benches`` to pin an explicit benchmark list for both encoders.
    """
    check_scale(scale)
    grid: List[tuple] = []
    for encoder in encoders:
        if benches is None:
            names = list(MOLECULES_BY_SCALE[scale])
            if encoder == "JW":
                names += SYNTHETIC_BY_SCALE[scale]
        else:
            names = list(benches)
        grid.extend((name, encoder) for name in names)
    jobs = [
        CompileJob(bench=name, encoder=encoder, compiler=compiler, scale=scale)
        for name, encoder in grid
        for compiler in ("paulihedral", "tetris")
    ]
    results = iter(run_batch(jobs, strict=True))
    rows: List[Dict] = []
    for name, encoder in grid:
        ph = next(results)
        tetris = next(results)
        rows.append(
                {
                    "bench": name,
                    "encoder": encoder,
                    "ph_total": ph.metrics.total_gates,
                    "tetris_total": tetris.metrics.total_gates,
                    "total_impr_%": round(
                        improvement(ph.metrics.total_gates, tetris.metrics.total_gates), 2
                    ),
                    "ph_cnot": ph.metrics.cnot_gates,
                    "tetris_cnot": tetris.metrics.cnot_gates,
                    "cnot_impr_%": round(
                        improvement(ph.metrics.cnot_gates, tetris.metrics.cnot_gates), 2
                    ),
                    "ph_depth": ph.metrics.depth,
                    "tetris_depth": tetris.metrics.depth,
                    "depth_impr_%": round(
                        improvement(ph.metrics.depth, tetris.metrics.depth), 2
                    ),
                    "ph_duration": ph.metrics.duration,
                    "tetris_duration": tetris.metrics.duration,
                    "duration_impr_%": round(
                        improvement(ph.metrics.duration, tetris.metrics.duration), 2
                    ),
                    "paper_cnot_impr_%": PAPER_CNOT_IMPROVEMENT.get((name, encoder)),
                }
            )
    return rows


EXPERIMENT = ExperimentSpec(
    id="table2",
    kind="table",
    title="Table II — Paulihedral vs Tetris end-to-end",
    claim=(
        "Tetris beats the Paulihedral baseline on total gates, CNOTs, "
        "depth, and duration across molecules and synthetic UCCSD "
        "benchmarks under both encoders (paper: -17%..-41% CNOT under JW)."
    ),
    grid="(molecules + UCC-n) x (JW, BK) x (paulihedral, tetris) on heavy-hex:ibm-65",
    columns=(
        "bench", "encoder",
        "ph_total", "tetris_total", "total_impr_%",
        "ph_cnot", "tetris_cnot", "cnot_impr_%",
        "ph_depth", "tetris_depth", "depth_impr_%",
        "ph_duration", "tetris_duration", "duration_impr_%",
        "paper_cnot_impr_%",
    ),
    compilers=("paulihedral", "tetris"),
    devices=("heavy-hex:ibm-65",),
    deltas=(("cnot_impr_delta", "cnot_impr_%", "paper_cnot_impr_%"),),
    pins=(
        PinnedMetric(
            where={"bench": "LiH", "encoder": "JW"}, column="ph_cnot",
            expected=2562,
        ),
        PinnedMetric(
            where={"bench": "LiH", "encoder": "JW"}, column="tetris_cnot",
            expected=2422,
        ),
        PinnedMetric(
            where={"bench": "LiH", "encoder": "BK"}, column="tetris_cnot",
            expected=2640,
        ),
        PinnedMetric(
            where={"bench": "UCC-10", "encoder": "JW"}, column="cnot_impr_%",
            expected=-5.45, abs_tol=0.5,
        ),
    ),
    runtime_hint="~1 s smoke / ~35 s small serial (cells shared with fig18 arrive cache-warm)",
)
