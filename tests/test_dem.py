"""Tests for detector error model extraction."""

from __future__ import annotations

import pytest

from repro.circuits import Circuit, memory_experiment_circuit
from repro.noise import HardwareNoiseModel
from repro.sim import FrameSimulator, detector_error_model


def _one_check_circuit(p_data: float, p_meas: float) -> Circuit:
    circuit = Circuit()
    circuit.append("R", [0, 1, 2])
    circuit.append("X_ERROR", [0, 1], p_data)
    circuit.append("CX", [0, 2])
    circuit.append("CX", [1, 2])
    circuit.measure(2, flip_probability=p_meas)
    circuit.detector([0])
    circuit.measure([0, 1])
    circuit.observable_include([1, 2], observable=0)
    return circuit


class TestSmallModels:
    def test_mechanism_enumeration_and_merging(self):
        dem = detector_error_model(_one_check_circuit(0.01, 0.02))
        # The X errors on qubits 0 and 1 share the (detector, observable)
        # signature (the observable contains both final data readouts), so
        # they merge into one mechanism; the measurement flip is the other.
        assert dem.num_detectors == 1
        assert dem.num_observables == 1
        assert dem.num_mechanisms == 2

    def test_probabilities_preserved(self):
        dem = detector_error_model(_one_check_circuit(0.01, 0.02))
        merged_data = 0.01 * (1 - 0.01) + (1 - 0.01) * 0.01
        assert sorted(dem.priors) == pytest.approx(
            sorted([merged_data, 0.02]), rel=1e-9
        )

    def test_merge_combines_identical_signatures(self):
        circuit = Circuit()
        circuit.append("R", [0])
        circuit.append("X_ERROR", [0], 0.1)
        circuit.append("X_ERROR", [0], 0.1)
        circuit.measure(0)
        circuit.detector([0])
        dem = detector_error_model(circuit)
        assert dem.num_mechanisms == 1
        # Odd-number-of-events combination: 0.1*0.9 + 0.9*0.1 = 0.18.
        assert dem.priors[0] == pytest.approx(0.18)

    def test_unmerged_keeps_all_columns(self):
        circuit = Circuit()
        circuit.append("R", [0])
        circuit.append("X_ERROR", [0], 0.1)
        circuit.append("X_ERROR", [0], 0.1)
        circuit.measure(0)
        circuit.detector([0])
        dem = detector_error_model(circuit, merge=False)
        assert dem.num_mechanisms == 2

    def test_noiseless_circuit_gives_empty_model(self):
        circuit = Circuit()
        circuit.append("R", [0])
        circuit.measure(0)
        circuit.detector([0])
        dem = detector_error_model(circuit)
        assert dem.num_mechanisms == 0

    def test_invisible_faults_are_dropped(self):
        circuit = Circuit()
        circuit.append("R", [0, 1])
        circuit.append("X_ERROR", [1], 0.3)  # qubit 1 is never measured
        circuit.measure(0)
        circuit.detector([0])
        dem = detector_error_model(circuit)
        assert dem.num_mechanisms == 0


class TestAgainstSampling:
    def test_dem_statistics_match_frame_sampler(self, surface_code_d3):
        noise = HardwareNoiseModel.from_physical_error_rate(2e-3)
        circuit = memory_experiment_circuit(surface_code_d3, noise, rounds=2)
        dem = detector_error_model(circuit)

        shots = 4000
        sample = FrameSimulator(circuit, seed=9).sample(shots)
        sampled_rate = sample.detectors.mean()

        # Expected detector-firing rate from the DEM priors (linearised,
        # valid at these small probabilities).
        expected_rate = (dem.check_matrix * dem.priors).sum() / \
            dem.num_detectors
        assert sampled_rate == pytest.approx(expected_rate, rel=0.25)

    def test_every_detector_is_covered_by_some_mechanism(self, surface_code_d3,
                                                         hardware_noise):
        circuit = memory_experiment_circuit(surface_code_d3, hardware_noise,
                                            rounds=2)
        dem = detector_error_model(circuit)
        assert (dem.check_matrix.sum(axis=1) > 0).all()

    def test_mechanism_count_scales_with_rounds(self, surface_code_d3,
                                                hardware_noise):
        small = detector_error_model(
            memory_experiment_circuit(surface_code_d3, hardware_noise,
                                      rounds=1)
        )
        large = detector_error_model(
            memory_experiment_circuit(surface_code_d3, hardware_noise,
                                      rounds=3)
        )
        assert large.num_mechanisms > small.num_mechanisms
        assert large.num_detectors > small.num_detectors


class TestFaultFreeCircuit:
    @pytest.mark.parametrize("backend", ["packed", "bool"])
    def test_noiseless_circuit_yields_empty_model(self, backend):
        # Regression: the bool path used to crash on len(faults) == 0
        # (chunk size of zero) instead of returning the empty model.
        circuit = Circuit()
        circuit.append("R", [0, 1])
        circuit.measure([0, 1])
        circuit.detector([0])
        dem = detector_error_model(circuit, backend=backend)
        assert dem.num_mechanisms == 0
        assert dem.check_matrix.shape == (circuit.num_detectors, 0)
        assert dem.priors.shape == (0,)
