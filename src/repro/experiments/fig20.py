"""Fig. 20 — SWAP-weight w sensitivity on both architectures.

Sweeping the leaf-attachment score weight w: larger w favours fewer SWAPs
(and fewer cancelled logical CNOTs), smaller w favours cancellation.  Paper
shape: SWAP count falls with w, logical CNOT count rises (fluctuating);
Sycamore's denser connectivity keeps its SWAP count low and flat.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..service import CompileJob, run_batch
from .common import check_scale
from .spec import ExperimentSpec, PinnedMetric

DEFAULT_WEIGHTS = (0.1, 0.5, 1, 2, 3, 4, 5, 10, 100)

DEVICES = ("ithaca", "sycamore")


def run(
    scale: str = "small",
    benches: Sequence[str] = ("BeH2", "MgH2"),
    weights: Sequence[float] = DEFAULT_WEIGHTS,
) -> List[Dict]:
    """SWAP count vs logical CNOTs per weight w on both architectures."""
    check_scale(scale)
    if scale == "smoke":
        benches = ("LiH",)
        weights = (1, 3, 10)
    jobs = [
        CompileJob(
            bench=name, compiler="tetris", device=device, scale=scale,
            params={"swap_weight": w},
        )
        for name in benches
        for w in weights
        for device in DEVICES
    ]
    results = iter(run_batch(jobs, strict=True))
    rows: List[Dict] = []
    for name in benches:
        for w in weights:
            row: Dict = {"bench": name, "w": w}
            for device in DEVICES:
                metrics = next(results).metrics
                logical = (
                    metrics.cnot_gates - metrics.swap_cnots - metrics.bridge_cnots
                )
                row[f"{device}_swaps"] = metrics.swap_cnots // 3
                row[f"{device}_logical_cnot"] = logical
            rows.append(row)
    return rows


EXPERIMENT = ExperimentSpec(
    id="fig20",
    kind="figure",
    title="Fig. 20 — SWAP-weight w sensitivity",
    claim=(
        "Raising w trades cancelled logical CNOTs for fewer SWAPs; "
        "Sycamore's denser coupling keeps its SWAP count low and flat."
    ),
    grid="2 molecules x w in {0.1..100} x (heavy-hex, sycamore)",
    columns=(
        "bench", "w",
        "ithaca_swaps", "ithaca_logical_cnot",
        "sycamore_swaps", "sycamore_logical_cnot",
    ),
    compilers=("tetris (swap_weight=w)",),
    devices=("heavy-hex:ibm-65", "sycamore:8x8"),
    pins=(
        PinnedMetric(
            where={"bench": "LiH", "w": 1}, column="ithaca_swaps", expected=145
        ),
        PinnedMetric(
            where={"bench": "LiH", "w": 10}, column="ithaca_swaps", expected=100
        ),
    ),
    runtime_hint="~1 s smoke / ~20 s small serial",
)
