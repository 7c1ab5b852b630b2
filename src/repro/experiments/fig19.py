"""Fig. 19 — lookahead size K sensitivity.

CNOT count and depth as the scheduler's lookahead K sweeps 1..22.  Paper
shape: K=1 worst, fast drop, plateau by K~10 (hence the default).

The sweep runs on pipeline variant specs (``tetris:k=<K>``) rather than
hand-constructed compiler objects, so each point also reports where the
time went: the ``synth_seconds`` column is the ``synth-tetris`` pass's
wall time from the per-pass profile (the lookahead trial placements all
happen there).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..hardware import resolve_device
from ..pipeline import run_pipeline
from .common import check_scale, workload
from .spec import ExperimentSpec, PinnedMetric

DEFAULT_SWEEP = (1, 4, 7, 10, 13, 16, 19, 22)


def run(
    scale: str = "small",
    benches: Sequence[str] = ("LiH", "BeH2"),
    sweep: Sequence[int] = DEFAULT_SWEEP,
) -> List[Dict]:
    """CNOT/depth per lookahead size K, with the synth pass's seconds."""
    check_scale(scale)
    coupling = resolve_device("ithaca")
    if scale == "smoke":
        benches = ("LiH",)
        sweep = (1, 10)
    rows: List[Dict] = []
    for name in benches:
        blocks = workload(name, "JW", scale)
        for k in sweep:
            result = run_pipeline(
                f"tetris:k={k}", blocks, coupling, profile=True
            )
            metrics = result.metrics()
            synth_seconds = sum(
                p.seconds
                for p in result.profile.passes
                if p.name == "synth-tetris"
            )
            rows.append(
                {
                    "bench": name,
                    "K": k,
                    "cnot": metrics.cnot_gates,
                    "depth": metrics.depth,
                    "synth_seconds": round(synth_seconds, 3),
                }
            )
    return rows


EXPERIMENT = ExperimentSpec(
    id="fig19",
    kind="figure",
    title="Fig. 19 — lookahead size K sensitivity",
    claim=(
        "K=1 is worst, quality improves quickly with K and plateaus by "
        "K~10 (the default), at the cost of synthesis time."
    ),
    grid="2 molecules x K in {1..22} via tetris:k=<K> pipeline specs",
    columns=("bench", "K", "cnot", "depth", "synth_seconds"),
    compilers=("tetris:k=<K>",),
    devices=("heavy-hex:ibm-65",),
    pins=(
        PinnedMetric(where={"bench": "LiH", "K": 1}, column="cnot", expected=2809),
        PinnedMetric(where={"bench": "LiH", "K": 10}, column="cnot", expected=2422),
    ),
    runtime_hint="~1 s smoke / ~10 s small serial (not service-cached: profiles run in-process)",
)
