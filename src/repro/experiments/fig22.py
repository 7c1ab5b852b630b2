"""Fig. 22 — mirror-circuit fidelity under depolarizing noise.

Random subsets of 1..10 blocks are compiled by PH and Tetris; the compiled
circuit plus its inverse runs under the paper's noise model (CNOT 1e-3,
1Q 1e-4) and the success probability of returning to |0...0> is recorded.
Paper shape: Tetris above PH at every block count, both decaying with size.

No :class:`~repro.service.jobs.CompileJob` describes a random block
subset, so the subsets compile in-process through
:func:`~repro.pipeline.run_pipeline`, as fig19's sweep does.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..hardware import resolve_device
from ..pipeline import run_pipeline
from ..sim import NoiseModel, estimate_fidelity
from .common import check_scale, workload
from .spec import ExperimentSpec, PinnedMetric


def run(
    scale: str = "small",
    benches: Sequence[str] = ("LiH", "CO2"),
    block_counts: Sequence[int] = (2, 4, 6, 8, 10),
    samples: int = 100,
    seed: int = 5,
) -> List[Dict]:
    """Mirror-circuit success probability per (molecule, block count)."""
    check_scale(scale)
    coupling = resolve_device("ithaca")
    noise = NoiseModel()
    if scale == "smoke":
        benches = ("LiH",)
        block_counts = (2, 4)
        samples = 20
    rng = np.random.default_rng(seed)
    rows: List[Dict] = []
    for name in benches:
        pool = workload(name, "JW", scale)
        for count in block_counts:
            indices = rng.choice(len(pool), size=min(count, len(pool)), replace=False)
            subset = [pool[i] for i in sorted(indices)]
            row: Dict = {"bench": name, "blocks": count}
            for label, compiler in (("ph", "paulihedral"), ("tetris", "tetris")):
                compiled = run_pipeline(compiler, subset, coupling)
                estimate = estimate_fidelity(
                    compiled.result.circuit, noise, samples=samples, seed=seed
                )
                row[f"{label}_fidelity"] = round(estimate.point, 4)
                row[f"{label}_fid_min"] = round(estimate.minimum, 4)
                row[f"{label}_fid_max"] = round(estimate.maximum, 4)
            rows.append(row)
    return rows


EXPERIMENT = ExperimentSpec(
    id="fig22",
    kind="figure",
    title="Fig. 22 — mirror-circuit fidelity under noise",
    claim=(
        "Fewer CNOTs pay off under depolarizing noise: Tetris-compiled "
        "mirror circuits return to |0...0> more often than Paulihedral's "
        "at every block count, both decaying with size."
    ),
    grid="random 1..10-block subsets x (paulihedral, tetris), depolarizing noise model",
    columns=(
        "bench", "blocks",
        "ph_fidelity", "ph_fid_min", "ph_fid_max",
        "tetris_fidelity", "tetris_fid_min", "tetris_fid_max",
    ),
    compilers=("paulihedral", "tetris"),
    devices=("heavy-hex:ibm-65",),
    pins=(
        PinnedMetric(
            where={"bench": "LiH", "blocks": 2}, column="ph_fidelity",
            expected=0.678, rel_tol=0.05,
        ),
        PinnedMetric(
            where={"bench": "LiH", "blocks": 4}, column="tetris_fidelity",
            expected=0.5149, rel_tol=0.05,
        ),
    ),
    runtime_hint="~1 s smoke / ~6 s small serial (simulation-bound, not service-cached)",
)
