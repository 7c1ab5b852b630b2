"""Fig. 2 — motivation: Paulihedral vs maximum CNOT cancellation ratio.

For each molecule and encoder, the logical-level (no SWAP) cancellation
ratio of Paulihedral against the single-leaf-tree maximum.  Paper headline:
max_cancel reaches 61-81% (JW) while Paulihedral stays below ~51%.
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis import max_cancel_upper_bound
from ..service import CompileJob, job_blocks, run_batch
from .common import MOLECULES_BY_SCALE, check_scale
from .spec import ExperimentSpec, PinnedMetric

#: Paper Fig. 2 values: {(molecule, encoder): (paulihedral, max_cancel)}.
PAPER_FIG2 = {
    ("LiH", "JW"): (0.378, 0.611),
    ("BeH2", "JW"): (0.318, 0.640),
    ("CH4", "JW"): (0.403, 0.715),
    ("MgH2", "JW"): (0.487, 0.751),
    ("LiCl", "JW"): (0.496, 0.797),
    ("CO2", "JW"): (0.508, 0.811),
    ("LiH", "BK"): (0.256, 0.603),
    ("BeH2", "BK"): (0.249, 0.562),
    ("CH4", "BK"): (0.395, 0.670),
    ("MgH2", "BK"): (0.367, 0.738),
    ("LiCl", "BK"): (0.434, 0.769),
    ("CO2", "BK"): (0.369, 0.769),
}


def run(scale: str = "small", encoders=("JW", "BK")) -> List[Dict]:
    """Per-(molecule, encoder) cancellation ratios: Paulihedral vs the
    single-leaf-tree maximum, both measured on the all-to-all device."""
    check_scale(scale)
    grid = [
        (name, encoder)
        for encoder in encoders
        for name in MOLECULES_BY_SCALE[scale]
    ]
    # The cancellation ratio is measured on the all-to-all device so no
    # SWAPs enter Eq. 2 — device="full" jobs through the batch service.
    jobs = [
        CompileJob(
            bench=name, encoder=encoder, compiler="paulihedral",
            device="full", scale=scale,
        )
        for name, encoder in grid
    ]
    rows: List[Dict] = []
    for job, ph in zip(jobs, run_batch(jobs, strict=True)):
        name, encoder = job.bench, job.encoder
        # job_blocks shares the service's per-process workload memo, so the
        # upper bound reuses the blocks the compile job already built.
        best = max_cancel_upper_bound(job_blocks(job))
        paper = PAPER_FIG2.get((name, encoder), (None, None))
        rows.append(
            {
                "bench": name,
                "encoder": encoder,
                "paulihedral": round(ph.metrics.cancel_ratio, 3),
                "max_cancel": round(best, 3),
                "paper_ph": paper[0],
                "paper_max": paper[1],
            }
        )
    return rows


EXPERIMENT = ExperimentSpec(
    id="fig02",
    kind="figure",
    title="Fig. 2 — cancellation-ratio headroom over Paulihedral",
    claim=(
        "Paulihedral leaves CNOT cancellation on the table: the "
        "single-leaf-tree maximum reaches far higher logical cancellation "
        "ratios (paper: 61-81% vs below ~51% under JW)."
    ),
    grid="molecules x (JW, BK) x paulihedral on the all-to-all device + analytic bound",
    columns=("bench", "encoder", "paulihedral", "max_cancel", "paper_ph", "paper_max"),
    compilers=("paulihedral", "max-cancel (analytic upper bound)"),
    devices=("full",),
    deltas=(
        ("ph_delta", "paulihedral", "paper_ph"),
        ("max_delta", "max_cancel", "paper_max"),
    ),
    pins=(
        PinnedMetric(
            where={"bench": "LiH", "encoder": "JW"}, column="paulihedral",
            expected=0.536, abs_tol=0.005,
        ),
        PinnedMetric(
            where={"bench": "LiH", "encoder": "JW"}, column="max_cancel",
            expected=0.774, abs_tol=0.005,
        ),
    ),
    runtime_hint="~1 s smoke / ~20 s small serial",
)
