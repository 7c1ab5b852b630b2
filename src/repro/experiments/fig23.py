"""Fig. 23 — QAOA benchmarks: 2QAN-like and Tetris vs Paulihedral.

Five random instances per benchmark; gate count and depth normalized to
Paulihedral (the per-string router).  Paper shape: both commutation-aware
compilers far below 1.0; Tetris below 2QAN (bridging + qubit reuse).

A ``qaoa:`` workload spec builds one fixed instance per benchmark, so
the seeded instances compile in-process through
:func:`~repro.pipeline.run_pipeline` rather than as
:class:`~repro.service.jobs.CompileJob` cells.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..hardware import resolve_device
from ..pipeline import run_pipeline
from ..qaoa import QAOA_BENCHMARKS, benchmark_graph, maxcut_blocks
from .common import check_scale
from .spec import ExperimentSpec, PinnedMetric


def run(
    scale: str = "small",
    benches: Sequence[str] = QAOA_BENCHMARKS,
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
) -> List[Dict]:
    """Gate/depth ratios vs the per-string baseline, seed-averaged."""
    check_scale(scale)
    coupling = resolve_device("ithaca")
    if scale == "smoke":
        benches = ("Rand-16",)
        seeds = (0,)
    rows: List[Dict] = []
    for name in benches:
        ratios = {"2qan_cnot": [], "tetris_cnot": [], "2qan_depth": [], "tetris_depth": []}
        for seed in seeds:
            graph = benchmark_graph(name, seed=seed)
            blocks = maxcut_blocks(graph)
            ph = run_pipeline("paulihedral", blocks, coupling).metrics()
            qan = run_pipeline("2qan-like", blocks, coupling).metrics()
            tetris = run_pipeline("tetris-qaoa", blocks, coupling).metrics()
            ratios["2qan_cnot"].append(qan.cnot_gates / ph.cnot_gates)
            ratios["tetris_cnot"].append(tetris.cnot_gates / ph.cnot_gates)
            ratios["2qan_depth"].append(qan.depth / ph.depth)
            ratios["tetris_depth"].append(tetris.depth / ph.depth)
        rows.append(
            {
                "bench": name,
                "2qan/ph_cnot": round(float(np.mean(ratios["2qan_cnot"])), 3),
                "tetris/ph_cnot": round(float(np.mean(ratios["tetris_cnot"])), 3),
                "2qan/ph_depth": round(float(np.mean(ratios["2qan_depth"])), 3),
                "tetris/ph_depth": round(float(np.mean(ratios["tetris_depth"])), 3),
            }
        )
    return rows


EXPERIMENT = ExperimentSpec(
    id="fig23",
    kind="figure",
    title="Fig. 23 — QAOA: commutation-aware compilers vs per-string baseline",
    claim=(
        "Both commutation-aware compilers land far below the per-string "
        "Paulihedral baseline on QAOA workloads, with Tetris below "
        "2QAN thanks to bridging and qubit reuse."
    ),
    grid="QAOA benchmarks x 5 seeds x (paulihedral, 2qan-like, tetris-qaoa)",
    columns=(
        "bench", "2qan/ph_cnot", "tetris/ph_cnot", "2qan/ph_depth", "tetris/ph_depth",
    ),
    compilers=("paulihedral", "2qan-like", "tetris-qaoa"),
    devices=("heavy-hex:ibm-65",),
    pins=(
        PinnedMetric(
            where={"bench": "Rand-16"}, column="tetris/ph_cnot",
            expected=0.495, abs_tol=0.01,
        ),
    ),
    runtime_hint="~1 s at any scale (QAOA instances are small)",
)
