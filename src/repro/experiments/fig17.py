"""Fig. 17 — logical CNOT cancellation ratio: PH vs Tetris vs max_cancel.

Ratios are measured on the all-to-all (logical) device so no SWAPs enter
Eq. 2.  Paper shape: max_cancel top, Tetris a close middle ground,
Paulihedral lowest; Tetris's ratio grows with molecule size.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..service import CompileJob, run_batch
from .common import MOLECULES_BY_SCALE, check_scale
from .spec import ExperimentSpec, PinnedMetric

FIG17_COMPILERS = (("ph", "paulihedral"), ("tetris", "tetris"), ("max_cancel", "max-cancel"))


def run(scale: str = "small", encoders: Sequence[str] = ("JW", "BK")) -> List[Dict]:
    """Logical cancellation ratio per (molecule, encoder) and compiler."""
    check_scale(scale)
    grid = [
        (name, encoder)
        for encoder in encoders
        for name in MOLECULES_BY_SCALE[scale]
    ]
    jobs = [
        CompileJob(
            bench=name, encoder=encoder, compiler=compiler,
            device="full", scale=scale,
        )
        for name, encoder in grid
        for _label, compiler in FIG17_COMPILERS
    ]
    results = iter(run_batch(jobs, strict=True))
    rows: List[Dict] = []
    for name, encoder in grid:
        row: Dict = {"bench": name, "encoder": encoder}
        for label, _compiler in FIG17_COMPILERS:
            row[label] = round(next(results).metrics.cancel_ratio, 3)
        rows.append(row)
    return rows


EXPERIMENT = ExperimentSpec(
    id="fig17",
    kind="figure",
    title="Fig. 17 — logical CNOT cancellation ratios",
    claim=(
        "On the all-to-all device Tetris' cancellation ratio sits between "
        "Paulihedral and the max-cancel bound and grows with molecule size."
    ),
    grid="molecules x (JW, BK) x (paulihedral, tetris, max-cancel) on full",
    columns=("bench", "encoder", "ph", "tetris", "max_cancel"),
    compilers=("paulihedral", "tetris", "max-cancel"),
    devices=("full",),
    pins=(
        PinnedMetric(
            where={"bench": "LiH", "encoder": "JW"}, column="tetris",
            expected=0.507, abs_tol=0.005,
        ),
    ),
    runtime_hint="~1 s smoke / ~4 s small serial",
)
