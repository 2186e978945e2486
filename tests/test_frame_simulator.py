"""Tests for the vectorized Pauli-frame simulator."""

from __future__ import annotations

import numpy as np

from repro.circuits import Circuit
from repro.sim import FrameSimulator
from repro.sim.frame import FaultInjection


def _simple_parity_circuit(measure_flip: float = 0.0) -> Circuit:
    """Two data qubits checked by one ancilla (repetition-code style)."""
    circuit = Circuit()
    circuit.append("R", [0, 1, 2])
    circuit.append("CX", [0, 2, 1, 2][0:2])
    circuit.append("CX", [1, 2])
    circuit.measure(2, flip_probability=measure_flip)
    circuit.detector([0])
    return circuit


class TestDeterministicPropagation:
    def test_clean_circuit_triggers_nothing(self):
        result = FrameSimulator(_simple_parity_circuit(), seed=0).sample(100)
        assert not result.detectors.any()

    def test_x_error_on_data_flips_parity_check(self):
        circuit = Circuit()
        circuit.append("R", [0, 1, 2])
        circuit.append("X_ERROR", [0], 1.0)
        circuit.append("CX", [0, 2])
        circuit.append("CX", [1, 2])
        circuit.measure(2)
        circuit.detector([0])
        result = FrameSimulator(circuit, seed=0).sample(50)
        assert result.detectors.all()

    def test_z_error_invisible_to_z_measurement(self):
        circuit = Circuit()
        circuit.append("R", [0])
        circuit.append("Z_ERROR", [0], 1.0)
        circuit.measure(0)
        circuit.detector([0])
        result = FrameSimulator(circuit, seed=0).sample(20)
        assert not result.detectors.any()

    def test_z_error_flips_x_measurement(self):
        circuit = Circuit()
        circuit.append("RX", [0])
        circuit.append("Z_ERROR", [0], 1.0)
        circuit.measure(0, basis="X")
        circuit.detector([0])
        result = FrameSimulator(circuit, seed=0).sample(20)
        assert result.detectors.all()

    def test_hadamard_exchanges_x_and_z(self):
        circuit = Circuit()
        circuit.append("R", [0])
        circuit.append("Z_ERROR", [0], 1.0)
        circuit.append("H", [0])
        circuit.measure(0)
        circuit.detector([0])
        result = FrameSimulator(circuit, seed=0).sample(10)
        assert result.detectors.all()

    def test_reset_clears_errors(self):
        circuit = Circuit()
        circuit.append("R", [0])
        circuit.append("X_ERROR", [0], 1.0)
        circuit.append("R", [0])
        circuit.measure(0)
        circuit.detector([0])
        result = FrameSimulator(circuit, seed=0).sample(10)
        assert not result.detectors.any()

    def test_cx_propagates_x_from_control_to_target(self):
        circuit = Circuit()
        circuit.append("R", [0, 1])
        circuit.append("X_ERROR", [0], 1.0)
        circuit.append("CX", [0, 1])
        circuit.measure([0, 1])
        circuit.detector([0])
        circuit.detector([1])
        result = FrameSimulator(circuit, seed=0).sample(10)
        assert result.detectors.all()

    def test_cx_propagates_z_from_target_to_control(self):
        circuit = Circuit()
        circuit.append("RX", [0, 1])
        circuit.append("Z_ERROR", [1], 1.0)
        circuit.append("CX", [0, 1])
        circuit.measure([0, 1], basis="X")
        circuit.detector([0])
        circuit.detector([1])
        result = FrameSimulator(circuit, seed=0).sample(10)
        assert result.detectors.all()

    def test_observable_accumulates_parity(self):
        circuit = Circuit()
        circuit.append("R", [0, 1])
        circuit.append("X_ERROR", [0], 1.0)
        circuit.append("X_ERROR", [1], 1.0)
        circuit.measure([0, 1])
        circuit.observable_include([0, 1], observable=0)
        result = FrameSimulator(circuit, seed=0).sample(10)
        # Two flips cancel in the parity.
        assert not result.observables.any()


class TestStochasticChannels:
    def test_x_error_rate_statistics(self):
        circuit = Circuit()
        circuit.append("R", [0])
        circuit.append("X_ERROR", [0], 0.3)
        circuit.measure(0)
        circuit.detector([0])
        result = FrameSimulator(circuit, seed=42).sample(20_000)
        rate = result.detectors.mean()
        assert 0.27 < rate < 0.33

    def test_measurement_flip_statistics(self):
        circuit = _simple_parity_circuit(measure_flip=0.2)
        result = FrameSimulator(circuit, seed=7).sample(20_000)
        rate = result.detectors.mean()
        assert 0.17 < rate < 0.23

    def test_depolarize1_rate_split(self):
        circuit = Circuit()
        circuit.append("R", [0])
        circuit.append("DEPOLARIZE1", [0], 0.3)
        circuit.measure(0)
        circuit.detector([0])
        result = FrameSimulator(circuit, seed=11).sample(30_000)
        # Only X and Y components (2/3 of events) flip a Z measurement.
        rate = result.detectors.mean()
        assert 0.17 < rate < 0.23

    def test_depolarize2_marginal_rate(self):
        circuit = Circuit()
        circuit.append("R", [0, 1])
        circuit.append("DEPOLARIZE2", [0, 1], 0.15)
        circuit.measure([0, 1])
        circuit.detector([0])
        result = FrameSimulator(circuit, seed=13).sample(30_000)
        # 8 of 15 two-qubit Paulis put X or Y on the first qubit.
        expected = 0.15 * 8 / 15
        rate = result.detectors.mean()
        assert abs(rate - expected) < 0.015

    def test_pauli_channel_1_z_only(self):
        circuit = Circuit()
        circuit.append("RX", [0])
        circuit.append("PAULI_CHANNEL_1", [0], arguments=(0.0, 0.0, 0.25))
        circuit.measure(0, basis="X")
        circuit.detector([0])
        result = FrameSimulator(circuit, seed=17).sample(20_000)
        assert 0.22 < result.detectors.mean() < 0.28

    def test_seed_reproducibility(self):
        circuit = _simple_parity_circuit(measure_flip=0.1)
        a = FrameSimulator(circuit, seed=5).sample(500)
        b = FrameSimulator(circuit, seed=5).sample(500)
        assert np.array_equal(a.detectors, b.detectors)


class TestFaultInjection:
    def test_injected_fault_hits_only_its_shot(self):
        circuit = _simple_parity_circuit()
        faults = [
            FaultInjection(instruction_index=1, shot=1, x_flips=(0,)),
        ]
        result = FrameSimulator(circuit).propagate_faults(faults, shots=3)
        assert not result.detectors[0].any()
        assert result.detectors[1].any()
        assert not result.detectors[2].any()

    def test_measurement_flip_injection(self):
        circuit = _simple_parity_circuit()
        measure_index = next(
            i for i, ins in enumerate(circuit.instructions) if ins.name == "M"
        )
        faults = [FaultInjection(instruction_index=measure_index, shot=0,
                                 measurement_flip=2)]
        result = FrameSimulator(circuit).propagate_faults(faults, shots=1)
        assert result.detectors[0, 0]

    def test_sample_result_counts(self):
        circuit = _simple_parity_circuit(measure_flip=0.5)
        result = FrameSimulator(circuit, seed=3).sample(64)
        assert result.shots == 64
