"""Fig. 15 — T|Ket> cleanup-style analysis and the PCOAST SWAP breakdown.

(a) the tket-like compiler with its own pre-routing cleanup ("TKet O2")
against post-routing-only cleanup ("Qiskit O3") — pre-routing wins;
(b) CNOT breakdown (SWAP-induced vs other) for PCOAST / PH / Tetris —
PCOAST has the best logical count but by far the largest SWAP bill.
"""

from __future__ import annotations

from typing import Dict, List

from ..service import CompileJob, run_batch
from .common import check_scale
from .fig14 import FIG14_MOLECULES
from .spec import ExperimentSpec, PinnedMetric


def run_tket_styles(scale: str = "small") -> List[Dict]:
    """Fig. 15(a)."""
    check_scale(scale)
    names = FIG14_MOLECULES if scale != "smoke" else ("LiH",)
    styles = ("tket-o2", "qiskit-o3")
    jobs = [
        CompileJob(
            bench=name, compiler="tket-like", params={"style": style}, scale=scale
        )
        for name in names
        for style in styles
    ]
    results = iter(run_batch(jobs, strict=True))
    rows: List[Dict] = []
    for name in names:
        o2 = next(results)
        o3 = next(results)
        rows.append(
            {
                "bench": name,
                "tket_o2_cnot": o2.metrics.cnot_gates,
                "qiskit_o3_cnot": o3.metrics.cnot_gates,
            }
        )
    return rows


def run_swap_breakdown(scale: str = "small") -> List[Dict]:
    """Fig. 15(b)."""
    check_scale(scale)
    names = FIG14_MOLECULES if scale != "smoke" else ("LiH",)
    compilers = [
        ("pcoast", "pcoast-like"),
        ("ph", "paulihedral"),
        ("tetris", "tetris"),
    ]
    jobs = [
        CompileJob(bench=name, compiler=compiler, scale=scale)
        for name in names
        for _label, compiler in compilers
    ]
    results = iter(run_batch(jobs, strict=True))
    rows: List[Dict] = []
    for name in names:
        row: Dict = {"bench": name}
        for label, _compiler in compilers:
            metrics = next(results).metrics
            row[f"{label}_cnot"] = metrics.cnot_gates
            row[f"{label}_swap_cnot"] = metrics.swap_cnots
        rows.append(row)
    return rows


def run(scale: str = "small") -> List[Dict]:
    """Both sub-figures as one row list, tagged ``part`` = ``a`` / ``b``.

    Part (a) rows carry the T|Ket> cleanup-style columns, part (b) rows
    the SWAP-breakdown columns; the columns of the other part are absent
    (the report layer treats the union as the row schema).
    """
    rows = []
    for row in run_tket_styles(scale):
        rows.append({"part": "a", **row})
    for row in run_swap_breakdown(scale):
        rows.append({"part": "b", **row})
    return rows


EXPERIMENT = ExperimentSpec(
    id="fig15",
    kind="figure",
    title="Fig. 15 — cleanup styles and the SWAP bill",
    claim=(
        "(a) T|Ket>'s pre-routing cleanup beats post-routing-only "
        "Qiskit-O3-style cleanup; (b) PCOAST's best-in-class logical "
        "count hides by far the largest SWAP-induced CNOT bill."
    ),
    grid="4 molecules x tket-like styles (a) + x (pcoast-like, paulihedral, tetris) (b)",
    columns=("part", "bench"),
    compilers=("tket-like", "pcoast-like", "paulihedral", "tetris"),
    devices=("heavy-hex:ibm-65",),
    pins=(
        PinnedMetric(
            where={"part": "a", "bench": "LiH"}, column="tket_o2_cnot",
            expected=3097,
        ),
        PinnedMetric(
            where={"part": "b", "bench": "LiH"}, column="pcoast_swap_cnot",
            expected=1587,
        ),
    ),
    runtime_hint="~1 s smoke / ~5 s small serial",
    section_by="part",
)
