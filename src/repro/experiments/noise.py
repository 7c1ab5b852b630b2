"""Noise study — fidelity-ranked compilation on a calibrated device.

Not a paper table: this experiment pins the repo's noise-aware
extension.  Every workload is compiled twice on ``heavy-hex:ibm-65``
against the device's seeded synthetic calibration — once with the
noise-blind Tetris pipeline and once with
``tetris:noise-aware+select=<k>`` (best-fidelity qubit selection plus
noise-weighted layout) — and the analytic ``estimated_fidelity`` of the
two results is compared.  The selected region holds 20 qubits, or the
whole workload when it is wider (``k = max(20, workload qubits)``).
"""

from __future__ import annotations

from typing import Dict, List

from ..chem import benchmark_num_qubits
from ..service import CompileJob, run_batch
from ..workloads import resolve_workload
from .common import MOLECULES_BY_SCALE, SYNTHETIC_BY_SCALE, check_scale
from .spec import ExperimentSpec, PinnedMetric

#: One calibration seed for the whole study — the comparison is within a
#: calibration, not across them.
CALIBRATION_SEED = 0

DEVICE = "heavy-hex:ibm-65"
BLIND = "tetris"

#: Qubits in the best-fidelity region the noise-aware pipeline selects.
REGION = 20


def aware_spec(num_qubits: int) -> str:
    """The noise-aware pipeline, its region widened to fit the workload."""
    return f"tetris:noise-aware+select={max(REGION, num_qubits)}"


def run(scale: str = "small") -> List[Dict]:
    """Blind-vs-aware CNOTs and estimated fidelity per workload."""
    check_scale(scale)
    benches = [f"chem:{m}" for m in MOLECULES_BY_SCALE[scale]]
    benches += [f"ucc:{s}" for s in SYNTHETIC_BY_SCALE[scale]]
    jobs = [
        CompileJob(
            bench=bench, compiler=compiler, device=DEVICE, scale=scale,
            calibration=CALIBRATION_SEED,
        )
        for bench in benches
        for compiler in (
            BLIND, aware_spec(benchmark_num_qubits(resolve_workload(bench)[1]))
        )
    ]
    results = iter(run_batch(jobs, strict=True))
    rows: List[Dict] = []
    for bench in benches:
        blind = next(results)
        aware = next(results)
        gain = (
            aware.estimated_fidelity / blind.estimated_fidelity
            if blind.estimated_fidelity
            else float("inf")
        )
        rows.append({
            "bench": bench,
            "blind_cnot": blind.metrics.cnot_gates,
            "blind_fidelity": round(blind.estimated_fidelity, 8),
            "aware_cnot": aware.metrics.cnot_gates,
            "aware_fidelity": round(aware.estimated_fidelity, 8),
            "fidelity_gain": round(gain, 3),
        })
    return rows


EXPERIMENT = ExperimentSpec(
    id="noise",
    kind="table",
    title="Noise study — fidelity-ranked compilation (repo extension)",
    claim=(
        "On a calibrated heavy-hex device the noise-aware Tetris pipeline "
        "(best-fidelity qubit selection + noise-weighted layout) beats the "
        "noise-blind pipeline's estimated fidelity on every workload where "
        "either estimate reaches 1e-8 (at small scale: every molecule, "
        "UCC-10 and UCC-15).  On the wider synthetic UCCSD workloads both "
        "estimates fall below 1e-8 and the ranking is not reliable: at "
        "small scale the noise-aware pipeline loses on UCC-20 and UCC-35."
    ),
    grid=(
        "workloads x (tetris, tetris:noise-aware+select=max(20, qubits)) "
        "on heavy-hex:ibm-65, calibration seed 0"
    ),
    columns=(
        "bench",
        "blind_cnot", "blind_fidelity",
        "aware_cnot", "aware_fidelity",
        "fidelity_gain",
    ),
    compilers=(BLIND, "tetris:noise-aware+select=max(20, qubits)"),
    devices=(DEVICE,),
    pins=(
        PinnedMetric(
            where={"bench": "chem:LiH"}, column="blind_cnot", expected=2422
        ),
        PinnedMetric(
            where={"bench": "chem:LiH"}, column="aware_fidelity",
            expected=0.0077, rel_tol=0.05,
        ),
    ),
    runtime_hint="~1 s smoke / ~12 s small serial",
)
