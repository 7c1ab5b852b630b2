"""Fig. 14 — CNOT counts across all five compilers.

T|Ket> vs PCOAST vs Paulihedral vs Tetris (similarity scheduler) vs
Tetris+lookahead (K=10) on the four smaller molecules, JW encoder,
heavy-hex backend.  Paper shape: TKet ~2x everything else; Tetris bars
lowest, lookahead lower still.
"""

from __future__ import annotations

from typing import Dict, List

from ..service import CompileJob, run_batch
from .common import check_scale
from .spec import ExperimentSpec, PinnedMetric

FIG14_MOLECULES = ("LiH", "BeH2", "CH4", "MgH2")

#: (column label, compiler registry name, compiler params)
FIG14_COMPILERS = (
    ("tket", "tket-like", {}),
    ("pcoast", "pcoast-like", {}),
    ("ph", "paulihedral", {}),
    ("tetris", "tetris", {"lookahead": 0}),
    ("tetris_lookahead", "tetris", {"lookahead": 10}),
)


def run(scale: str = "small") -> List[Dict]:
    """One row per molecule with a CNOT-count column per compiler."""
    check_scale(scale)
    names = FIG14_MOLECULES if scale != "smoke" else ("LiH",)
    jobs = [
        CompileJob(bench=name, compiler=compiler, params=params, scale=scale)
        for name in names
        for _label, compiler, params in FIG14_COMPILERS
    ]
    results = iter(run_batch(jobs, strict=True))
    rows: List[Dict] = []
    for name in names:
        row: Dict = {"bench": name}
        for label, _compiler, _params in FIG14_COMPILERS:
            row[f"{label}_cnot"] = next(results).metrics.cnot_gates
        rows.append(row)
    return rows


EXPERIMENT = ExperimentSpec(
    id="fig14",
    kind="figure",
    title="Fig. 14 — CNOT counts across all five compilers",
    claim=(
        "Across the smaller molecules, T|Ket> sits roughly 2x above the "
        "block-aware compilers and Tetris' bars are lowest, lower still "
        "with lookahead K=10."
    ),
    grid="4 molecules x (tket-like, pcoast-like, paulihedral, tetris, tetris K=10)",
    columns=(
        "bench", "tket_cnot", "pcoast_cnot", "ph_cnot",
        "tetris_cnot", "tetris_lookahead_cnot",
    ),
    compilers=("tket-like", "pcoast-like", "paulihedral", "tetris", "tetris k=10"),
    devices=("heavy-hex:ibm-65",),
    pins=(
        PinnedMetric(where={"bench": "LiH"}, column="tket_cnot", expected=3097),
        PinnedMetric(
            where={"bench": "LiH"}, column="tetris_lookahead_cnot", expected=2422
        ),
    ),
    runtime_hint="~1 s smoke / ~6 s small serial",
)
