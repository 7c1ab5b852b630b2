"""Fig. 24 — compilation-time scalability: PH vs Tetris, with/without O3.

Paper shape: Tetris' own compilation is slower than PH's, but Tetris'
smaller raw output makes the downstream O3 pass cheaper, so the end-to-end
latency crosses over as molecules grow.

The columns are wall-clock measurements, which a cached
:class:`~repro.service.jobs.CompileJob` result would replay rather than
measure, so every cell compiles in-process through
:func:`~repro.pipeline.run_pipeline`; its pass timings split the
synthesis stage from the O3 cleanup tail.
"""

from __future__ import annotations

from typing import Dict, List

from ..hardware import resolve_device
from ..pipeline import run_pipeline
from .common import MOLECULES_BY_SCALE, check_scale, workload
from .spec import ExperimentSpec


def run(scale: str = "small") -> List[Dict]:
    """Compile-only and end-to-end (compile + O3) seconds per molecule."""
    check_scale(scale)
    coupling = resolve_device("ithaca")
    rows: List[Dict] = []
    for name in MOLECULES_BY_SCALE[scale]:
        blocks = workload(name, "JW", scale)
        ph = run_pipeline("paulihedral", blocks, coupling)
        tetris = run_pipeline("tetris", blocks, coupling)
        rows.append(
            {
                "bench": name,
                "ph_compile_s": round(ph.compile_seconds, 3),
                "ph_total_s": round(ph.compile_seconds + ph.optimize_seconds, 3),
                "tetris_compile_s": round(tetris.compile_seconds, 3),
                "tetris_total_s": round(
                    tetris.compile_seconds + tetris.optimize_seconds, 3
                ),
            }
        )
    return rows


EXPERIMENT = ExperimentSpec(
    id="fig24",
    kind="figure",
    title="Fig. 24 — compilation-time scalability",
    claim=(
        "Tetris' own compilation is slower than Paulihedral's, but its "
        "smaller raw output makes the downstream O3 pass cheaper, so "
        "end-to-end latency crosses over as molecules grow."
    ),
    grid="molecules x (paulihedral, tetris), wall-clock columns",
    columns=(
        "bench", "ph_compile_s", "ph_total_s", "tetris_compile_s", "tetris_total_s",
    ),
    compilers=("paulihedral", "tetris"),
    devices=("heavy-hex:ibm-65",),
    # No pins: every column is machine-dependent wall-clock time.
    runtime_hint="~1 s smoke / ~15 s small serial (never cached: it measures timing)",
)
