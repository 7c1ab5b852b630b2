"""Fig. 18 — total CNOT breakdown: logical vs SWAP-induced, per compiler.

For each benchmark: PH / Tetris / max_cancel total CNOTs with the
SWAP-induced fraction, plus Tetris' improvement over PH.  Paper shape:
Paulihedral has the smallest SWAP fraction, max_cancel by far the largest;
Tetris sits between and wins on the total.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..analysis import improvement
from ..service import CompileJob, run_batch
from .common import MOLECULES_BY_SCALE, SYNTHETIC_BY_SCALE, check_scale
from .spec import ExperimentSpec, PinnedMetric


def run(
    scale: str = "small",
    encoders: Sequence[str] = ("JW", "BK"),
    include_synthetic: bool = True,
) -> List[Dict]:
    """Total-CNOT rows with the SWAP-induced share for each compiler."""
    check_scale(scale)
    groups = [(encoder, MOLECULES_BY_SCALE[scale]) for encoder in encoders]
    if include_synthetic:
        groups.append(("JW", SYNTHETIC_BY_SCALE[scale]))
    grid = []
    seen = set()
    for encoder, names in groups:
        for name in names:
            if (encoder, name) in seen:
                continue
            seen.add((encoder, name))
            grid.append((name, encoder))
    jobs = [
        CompileJob(bench=name, encoder=encoder, compiler=compiler, scale=scale)
        for name, encoder in grid
        for compiler in ("paulihedral", "tetris", "max-cancel")
    ]
    results = iter(run_batch(jobs, strict=True))
    rows: List[Dict] = []
    for name, encoder in grid:
        ph = next(results).metrics
        tetris = next(results).metrics
        best = next(results).metrics
        rows.append(
            {
                "bench": name,
                "encoder": encoder,
                "ph_cnot": ph.cnot_gates,
                "ph_swap_cnot": ph.swap_cnots,
                "tetris_cnot": tetris.cnot_gates,
                "tetris_swap_cnot": tetris.swap_cnots,
                "max_cnot": best.cnot_gates,
                "max_swap_cnot": best.swap_cnots,
                "tetris_impr_%": round(
                    improvement(ph.cnot_gates, tetris.cnot_gates), 2
                ),
            }
        )
    return rows


EXPERIMENT = ExperimentSpec(
    id="fig18",
    kind="figure",
    title="Fig. 18 — logical vs SWAP-induced CNOT breakdown",
    claim=(
        "Paulihedral pays the smallest SWAP bill and max-cancel by far "
        "the largest; Tetris sits between and still wins on total CNOTs."
    ),
    grid="(molecules x JW,BK + UCC-n x JW) x (paulihedral, tetris, max-cancel)",
    columns=(
        "bench", "encoder",
        "ph_cnot", "ph_swap_cnot", "tetris_cnot", "tetris_swap_cnot",
        "max_cnot", "max_swap_cnot", "tetris_impr_%",
    ),
    compilers=("paulihedral", "tetris", "max-cancel"),
    devices=("heavy-hex:ibm-65",),
    pins=(
        PinnedMetric(
            where={"bench": "LiH", "encoder": "JW"}, column="max_swap_cnot",
            expected=2154,
        ),
        PinnedMetric(
            where={"bench": "LiH", "encoder": "JW"}, column="ph_swap_cnot",
            expected=42,
        ),
    ),
    runtime_hint="~2 s smoke / ~30 s small serial",
)
