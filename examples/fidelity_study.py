"""Fidelity-ranked compilation on a calibrated device.

Walks the noise-aware layer end to end:

1. build the seeded synthetic calibration for ``heavy-hex:ibm-65`` and
   peek at what it knows (per-edge 2Q error, readout, noise distance);
2. compile LiH blind vs ``tetris:noise-aware+select=20`` against that
   calibration and compare the analytic ``estimated_fidelity`` each
   job reports;
3. ask ``select_best_subgraph`` directly for the 20 best-connected
   low-error qubits the pipeline restricted itself to;
4. validate the analytic mirror-fidelity estimator against the exact
   stochastic-trajectory simulator on a small instance.

Run with::

    python examples/fidelity_study.py
"""

import repro
from repro.chem import JordanWignerEncoder
from repro.chem.amplitudes import synthetic_amplitudes
from repro.chem.uccsd import uccsd_blocks
from repro.hardware import resolve_calibration, resolve_device
from repro.hardware.calibration import select_best_subgraph
from repro.pipeline import run_pipeline
from repro.sim import CalibratedNoiseModel, calibrated_fidelity, trajectory_fidelity

DEVICE = "heavy-hex:ibm-65"


def inspect_calibration() -> None:
    """What a seeded synthetic calibration looks like."""
    cal = resolve_calibration(DEVICE, seed=0)
    errors = sorted(cal.edge_error.items(), key=lambda kv: kv[1])
    best, worst = errors[0], errors[-1]
    print(f"calibration for {DEVICE} (seed 0): "
          f"{cal.num_qubits} qubits, {len(cal.edge_error)} couplers")
    print(f"  best coupler  {best[0]}: 2Q error {best[1]:.2e}")
    print(f"  worst coupler {worst[0]}: 2Q error {worst[1]:.2e}  "
          f"({worst[1] / best[1]:.0f}x spread)")
    print(f"  mean readout error: "
          f"{sum(cal.readout_error) / cal.num_qubits:.3f}")
    a, b = best[0][0], worst[0][1]
    print(f"  noise-cheapest path {a}->{b}: {cal.noise_path(a, b)}")


def blind_vs_aware() -> None:
    """The same workload, with and without the noise-aware passes."""
    print("\nLiH on", DEVICE, "(calibration seed 0):")
    rows = {}
    for label, spec in (
        ("blind", "tetris"),
        ("aware", "tetris:noise-aware+select=20"),
    ):
        result = repro.compile(
            bench="chem:LiH", compiler=spec, device=DEVICE,
            scale="smoke", calibration=0,
        )
        rows[label] = result
        print(f"  {label:5s} {spec:32s} cnot={result.metrics.cnot_gates:5d}  "
              f"estimated_fidelity={result.estimated_fidelity:.6f}")
    gain = rows["aware"].estimated_fidelity / rows["blind"].estimated_fidelity
    print(f"  noise-aware fidelity gain: {gain:.0f}x")


def show_selected_region() -> None:
    """The qubit region the ``+select=20`` suffix confines the layout to."""
    coupling = resolve_device(DEVICE)
    cal = resolve_calibration(DEVICE, seed=0)
    selected = select_best_subgraph(coupling, cal, 20)
    print(f"\nbest 20-qubit region: {sorted(selected)}")
    print(f"  mean 2Q error inside region: {cal.mean_edge_error(selected):.2e}"
          f"  (device-wide: {cal.mean_edge_error():.2e})")


def validate_estimator() -> None:
    """Analytic mirror fidelity vs exact trajectories on a tiny circuit."""
    small = uccsd_blocks(3, 1, JordanWignerEncoder(), synthetic_amplitudes(20))[:2]
    circuit = run_pipeline("tetris", small, resolve_device("linear:7")).result.circuit
    cal = resolve_calibration("linear:7", seed=3)
    # Inflate errors so the Monte-Carlo signal clears sampling noise.
    noise = CalibratedNoiseModel(cal, scale=20.0)
    analytic = calibrated_fidelity(circuit, cal, scale=20.0)
    exact = trajectory_fidelity(circuit, noise, shots=300, seed=2)
    print("\nEstimator validation (6-qubit ansatz, 20x inflated errors):")
    print(f"  analytic mirror fidelity:  {analytic:.4f}")
    print(f"  trajectory fidelity:       {exact:.4f}")
    print("  (trajectories sit at or above the analytic bound: error paths "
          "can cancel)")


def main() -> None:
    inspect_calibration()
    blind_vs_aware()
    show_selected_region()
    validate_estimator()


if __name__ == "__main__":
    main()
