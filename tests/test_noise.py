"""Tests for the depolarizing-noise fidelity models."""

import pytest

from repro.circuit import QuantumCircuit
from repro.sim import (
    NoiseModel,
    error_free_probability,
    estimate_fidelity,
    trajectory_fidelity,
)


def sample_circuit(num_cnots: int, num_oneq: int = 0) -> QuantumCircuit:
    qc = QuantumCircuit(2)
    for _ in range(num_oneq):
        qc.h(0)
    for _ in range(num_cnots):
        qc.cx(0, 1)
    return qc


class TestNoiseModel:
    def test_gate_errors(self):
        model = NoiseModel()
        from repro.circuit.gate import Gate

        assert model.gate_error(Gate("cx", (0, 1))) == pytest.approx(1e-3)
        assert model.gate_error(Gate("h", (0,))) == pytest.approx(1e-4)
        assert model.gate_error(Gate("measure", (0,))) == 0.0
        swap_error = model.gate_error(Gate("swap", (0, 1)))
        assert swap_error == pytest.approx(1 - (1 - 1e-3) ** 3)


class TestErrorFreeProbability:
    def test_exact_product(self):
        qc = sample_circuit(num_cnots=10, num_oneq=5)
        expected = (1 - 1e-3) ** 10 * (1 - 1e-4) ** 5
        assert error_free_probability(qc) == pytest.approx(expected)

    def test_empty_circuit(self):
        assert error_free_probability(QuantumCircuit(2)) == pytest.approx(1.0)

    def test_monotone_in_gate_count(self):
        small = error_free_probability(sample_circuit(10))
        large = error_free_probability(sample_circuit(100))
        assert large < small


class TestEstimateFidelity:
    def test_mirror_doubles_gates(self):
        qc = sample_circuit(5)
        estimate = estimate_fidelity(qc)
        assert estimate.point == pytest.approx((1 - 1e-3) ** 10)

    def test_samples_bracket_point(self):
        qc = sample_circuit(50)
        estimate = estimate_fidelity(qc, samples=200, seed=3)
        assert 0.0 <= estimate.minimum <= estimate.mean <= estimate.maximum <= 1.0
        assert abs(estimate.mean - estimate.point) < 0.1

    def test_no_samples_fallback(self):
        estimate = estimate_fidelity(sample_circuit(1))
        assert estimate.mean == estimate.point
        assert estimate.minimum == estimate.maximum == estimate.point


class TestTrajectoryFidelity:
    def test_noiseless_limit(self):
        qc = sample_circuit(3, num_oneq=2)
        model = NoiseModel(one_qubit_error=0.0, two_qubit_error=0.0)
        assert trajectory_fidelity(qc, model, shots=4) == pytest.approx(1.0)

    def test_agrees_with_analytic_at_high_noise(self):
        # With large error rates the analytic product is a lower bound and
        # trajectories add back the (small) error-cancellation paths.
        qc = sample_circuit(10)
        model = NoiseModel(two_qubit_error=0.05)
        analytic = error_free_probability(qc.compose(qc.inverse()), model)
        measured = trajectory_fidelity(qc, model, shots=300, seed=7)
        assert measured >= analytic - 0.05
        assert measured <= 1.0
