"""Fig. 21 — PH vs Tetris on the Google Sycamore architecture.

Sycamore's denser coupling reduces everyone's SWAP bill and even helps
Paulihedral cancel more, but Tetris still wins on depth and total CNOTs
(paper: -18..-48% depth, -25..-42% CNOT).
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis import improvement
from ..service import CompileJob, run_batch
from .common import MOLECULES_BY_SCALE, check_scale
from .spec import ExperimentSpec, PinnedMetric


def run(scale: str = "small") -> List[Dict]:
    """PH-vs-Tetris CNOT/depth/SWAP rows on the Sycamore lattice."""
    check_scale(scale)
    names = MOLECULES_BY_SCALE[scale]
    jobs = [
        CompileJob(bench=name, compiler=compiler, device="sycamore", scale=scale)
        for name in names
        for compiler in ("paulihedral", "tetris")
    ]
    results = iter(run_batch(jobs, strict=True))
    rows: List[Dict] = []
    for name in names:
        ph = next(results).metrics
        tetris = next(results).metrics
        rows.append(
            {
                "bench": name,
                "ph_cnot": ph.cnot_gates,
                "tetris_cnot": tetris.cnot_gates,
                "cnot_impr_%": round(
                    improvement(ph.cnot_gates, tetris.cnot_gates), 2
                ),
                "ph_depth": ph.depth,
                "tetris_depth": tetris.depth,
                "depth_impr_%": round(improvement(ph.depth, tetris.depth), 2),
                "ph_swap_cnot": ph.swap_cnots,
                "tetris_swap_cnot": tetris.swap_cnots,
            }
        )
    return rows


EXPERIMENT = ExperimentSpec(
    id="fig21",
    kind="figure",
    title="Fig. 21 — PH vs Tetris on Google Sycamore",
    claim=(
        "Denser Sycamore coupling shrinks everyone's SWAP bill, but "
        "Tetris still wins depth and total CNOTs (paper: -18..-48% depth, "
        "-25..-42% CNOT)."
    ),
    grid="molecules x (paulihedral, tetris) on sycamore:8x8",
    columns=(
        "bench", "ph_cnot", "tetris_cnot", "cnot_impr_%",
        "ph_depth", "tetris_depth", "depth_impr_%",
        "ph_swap_cnot", "tetris_swap_cnot",
    ),
    compilers=("paulihedral", "tetris"),
    devices=("sycamore:8x8",),
    pins=(
        PinnedMetric(where={"bench": "LiH"}, column="ph_cnot", expected=2140),
        PinnedMetric(where={"bench": "LiH"}, column="tetris_cnot", expected=2032),
    ),
    runtime_hint="~1 s smoke / ~15 s small serial",
)
