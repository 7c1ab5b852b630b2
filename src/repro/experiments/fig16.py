"""Fig. 16 — Paulihedral and Tetris with and without the O3 pass.

Paper shape: O3 helps Paulihedral a lot (PH leaves cancellation to the
optimizer) and Tetris much less (Tetris cancels structurally during
synthesis); Tetris wins in both configurations.
"""

from __future__ import annotations

from typing import Dict, List

from ..service import CompileJob, run_batch
from .common import MOLECULES_BY_SCALE, check_scale
from .spec import ExperimentSpec, PinnedMetric

FIG16_COMPILERS = (("ph", "paulihedral"), ("tetris", "tetris"))


def run(scale: str = "small") -> List[Dict]:
    """Per-molecule CNOT/depth with the O3 cleanup on and off."""
    check_scale(scale)
    names = MOLECULES_BY_SCALE[scale]
    jobs = [
        CompileJob(
            bench=name, compiler=compiler, scale=scale,
            optimization_level=level,
        )
        for name in names
        for _label, compiler in FIG16_COMPILERS
        for level in (0, 3)
    ]
    results = iter(run_batch(jobs, strict=True))
    rows: List[Dict] = []
    for name in names:
        row: Dict = {"bench": name}
        for label, _compiler in FIG16_COMPILERS:
            raw = next(results).metrics
            opt = next(results).metrics
            row[f"{label}_cnot_raw"] = raw.cnot_gates
            row[f"{label}_cnot_o3"] = opt.cnot_gates
            row[f"{label}_depth_raw"] = raw.depth
            row[f"{label}_depth_o3"] = opt.depth
        rows.append(row)
    return rows


EXPERIMENT = ExperimentSpec(
    id="fig16",
    kind="figure",
    title="Fig. 16 — sensitivity to the O3 cleanup pass",
    claim=(
        "O3 helps Paulihedral far more than Tetris (Tetris cancels "
        "structurally during synthesis), and Tetris wins with or without "
        "the optimizer."
    ),
    grid="molecules x (paulihedral, tetris) x (O0, O3) on heavy-hex:ibm-65",
    columns=(
        "bench",
        "ph_cnot_raw", "ph_cnot_o3", "ph_depth_raw", "ph_depth_o3",
        "tetris_cnot_raw", "tetris_cnot_o3", "tetris_depth_raw", "tetris_depth_o3",
    ),
    compilers=("paulihedral", "tetris"),
    devices=("heavy-hex:ibm-65",),
    pins=(
        PinnedMetric(where={"bench": "LiH"}, column="ph_cnot_raw", expected=3338),
        PinnedMetric(where={"bench": "LiH"}, column="tetris_cnot_o3", expected=2422),
    ),
    runtime_hint="~1 s smoke / ~15 s small serial",
)
