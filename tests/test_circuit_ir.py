"""Tests for the circuit intermediate representation."""

from __future__ import annotations

import pytest

from repro.circuits import Circuit, Instruction


class TestInstruction:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            Instruction(name="BOGUS", targets=(0,))

    def test_cx_requires_pairs(self):
        with pytest.raises(ValueError):
            Instruction(name="CX", targets=(0, 1, 2))

    def test_pauli_channel_requires_three_arguments(self):
        with pytest.raises(ValueError):
            Instruction(name="PAULI_CHANNEL_1", targets=(0,), arguments=(0.1,))

    def test_noise_flag(self):
        assert Instruction(name="X_ERROR", targets=(0,), argument=0.1).is_noise
        assert not Instruction(name="H", targets=(0,)).is_noise

    def test_measurement_flag(self):
        assert Instruction(name="M", targets=(0,)).is_measurement
        assert not Instruction(name="R", targets=(0,)).is_measurement


class TestCircuitBookkeeping:
    def test_qubit_count_tracks_max_target(self):
        circuit = Circuit()
        circuit.append("H", [0, 5])
        assert circuit.num_qubits == 6

    def test_measurement_indices_are_sequential(self):
        circuit = Circuit()
        first = circuit.measure([0, 1])
        second = circuit.measure(2)
        assert first == [0, 1]
        assert second == [2]
        assert circuit.num_measurements == 3

    def test_detector_and_observable_counts(self):
        circuit = Circuit()
        circuit.measure([0, 1])
        circuit.detector([0])
        circuit.detector([0, 1])
        circuit.observable_include([1], observable=0)
        assert circuit.num_detectors == 2
        assert circuit.num_observables == 1

    def test_gate_count_counts_pairs_for_cx(self):
        circuit = Circuit()
        circuit.append("CX", [0, 1, 2, 3])
        circuit.append("CX", [4, 5])
        assert circuit.gate_count("CX") == 3

    def test_count_by_name(self):
        circuit = Circuit()
        circuit.tick()
        circuit.tick()
        circuit.append("H", [0])
        assert circuit.count("TICK") == 2

    def test_measure_in_x_basis_uses_mx(self):
        circuit = Circuit()
        circuit.measure([0], basis="X")
        assert circuit.instructions[-1].name == "MX"

    def test_without_noise_strips_channels_and_flips(self):
        circuit = Circuit()
        circuit.append("R", [0])
        circuit.append("X_ERROR", [0], 0.1)
        circuit.measure([0], flip_probability=0.2)
        circuit.detector([0])
        clean = circuit.without_noise()
        assert clean.count("X_ERROR") == 0
        assert clean.num_detectors == 1
        measurement = [ins for ins in clean if ins.name == "M"][0]
        assert measurement.argument == 0.0

    def test_to_text_round_trips_names(self):
        circuit = Circuit()
        circuit.append("R", [0, 1])
        circuit.append("CX", [0, 1])
        circuit.append("DEPOLARIZE2", [0, 1], 0.001)
        text = circuit.to_text()
        assert "CX 0 1" in text
        assert "DEPOLARIZE2(0.001) 0 1" in text

    def test_len_and_iter(self):
        circuit = Circuit()
        circuit.append("H", [0])
        circuit.tick()
        assert len(circuit) == 2
        assert [ins.name for ins in circuit] == ["H", "TICK"]
