"""Packed vs boolean backend equivalence.

The packed backends are pure layout optimisations: for a fixed seed the
frame simulator consumes the RNG identically in both layouts, DEM
extraction visits faults in the same order, BP's batched loop freezes
each shot where the per-shot oracle stops, and the OSD factorization
replays the exact pivoting of the reference elimination.  These tests
pin those equivalences down — bit-identical samples and models, and
identical BP output, corrections and LERs — on randomly generated
circuits and systems.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit, memory_experiment_circuit
from repro.codes import repetition_quantum_code, surface_code
from repro.core.memory import MemoryExperiment
from repro.core.phenomenological import build_phenomenological_model
from repro.decoders import BeliefPropagationDecoder, BPOSDDecoder
from repro.noise import HardwareNoiseModel
from repro.sim import FrameSimulator, detector_error_model
from repro.sim.frame import FaultInjection


def _random_circuit(rng: np.random.Generator, num_qubits: int = 5) -> Circuit:
    """A random annotated stabilizer circuit touching every instruction."""
    circuit = Circuit()
    circuit.append("R", list(range(num_qubits)))
    record_indices: list[int] = []
    for _ in range(rng.integers(4, 12)):
        kind = rng.integers(0, 8)
        qubit = int(rng.integers(0, num_qubits))
        other = int(rng.integers(0, num_qubits - 1))
        other = other if other != qubit else num_qubits - 1
        if kind == 0:
            circuit.append("H", [qubit])
        elif kind == 1:
            circuit.append("CX", [qubit, other])
        elif kind == 2:
            circuit.append("X_ERROR", [qubit], float(rng.uniform(0.01, 0.3)))
        elif kind == 3:
            circuit.append("Z_ERROR", [qubit], float(rng.uniform(0.01, 0.3)))
        elif kind == 4:
            circuit.append("DEPOLARIZE1", [qubit],
                           float(rng.uniform(0.01, 0.3)))
        elif kind == 5:
            circuit.append("DEPOLARIZE2", [qubit, other],
                           float(rng.uniform(0.01, 0.3)))
        elif kind == 6:
            circuit.append("PAULI_CHANNEL_1", [qubit],
                           arguments=tuple(rng.uniform(0.01, 0.1, 3)))
        else:
            record_indices.extend(
                circuit.measure(qubit,
                                flip_probability=float(rng.uniform(0, 0.2)))
            )
    record_indices.extend(circuit.measure(list(range(num_qubits))))
    take = max(1, len(record_indices) // 2)
    circuit.detector(record_indices[:take])
    circuit.detector(record_indices[take - 1:])
    circuit.observable_include(record_indices[-2:], observable=0)
    return circuit


class TestFrameSimulatorEquivalence:
    @given(st.integers(0, 2 ** 31), st.sampled_from([1, 63, 64, 65, 130]))
    @settings(max_examples=25, deadline=None)
    def test_samples_bit_identical(self, seed, shots):
        circuit = _random_circuit(np.random.default_rng(seed))
        a = FrameSimulator(circuit, seed=seed, backend="bool").sample(
            shots, return_measurements=True)
        b = FrameSimulator(circuit, seed=seed, backend="packed").sample(
            shots, return_measurements=True)
        assert np.array_equal(a.detectors, b.detectors)
        assert np.array_equal(a.observables, b.observables)
        assert np.array_equal(a.measurements, b.measurements)

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            FrameSimulator(Circuit(), backend="simd")

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=20, deadline=None)
    def test_fault_propagation_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        circuit = _random_circuit(rng)
        faults = [
            FaultInjection(instruction_index=0, shot=shot,
                           x_flips=(int(rng.integers(0, 5)),),
                           z_flips=(int(rng.integers(0, 5)),))
            for shot in range(int(rng.integers(1, 70)))
        ]
        a = FrameSimulator(circuit, backend="bool").propagate_faults(
            faults, shots=len(faults))
        b = FrameSimulator(circuit, backend="packed").propagate_faults(
            faults, shots=len(faults))
        assert np.array_equal(a.detectors, b.detectors)
        assert np.array_equal(a.observables, b.observables)


class TestDEMEquivalence:
    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=20, deadline=None)
    def test_models_identical_on_random_circuits(self, seed):
        circuit = _random_circuit(np.random.default_rng(seed))
        # A tiny chunk size forces the packed path to cross block
        # boundaries even on small fault sets.
        dense = detector_error_model(circuit, backend="bool")
        packed = detector_error_model(circuit, backend="packed",
                                      chunk_shots=3)
        assert np.array_equal(dense.check_matrix, packed.check_matrix)
        assert np.array_equal(dense.observable_matrix,
                              packed.observable_matrix)
        assert dense.priors == pytest.approx(packed.priors)

    def test_unmerged_models_identical(self):
        circuit = _random_circuit(np.random.default_rng(7))
        dense = detector_error_model(circuit, merge=False, backend="bool")
        packed = detector_error_model(circuit, merge=False, backend="packed",
                                      chunk_shots=2)
        assert np.array_equal(dense.check_matrix, packed.check_matrix)
        assert dense.priors == pytest.approx(packed.priors)

    def test_memory_circuit_model_identical(self):
        code = surface_code(3)
        noise = HardwareNoiseModel.from_physical_error_rate(
            1e-3, round_latency_us=100.0)
        circuit = memory_experiment_circuit(code, noise, rounds=2)
        dense = detector_error_model(circuit, backend="bool")
        packed = detector_error_model(circuit, backend="packed",
                                      chunk_shots=64)
        assert np.array_equal(dense.check_matrix, packed.check_matrix)
        assert dense.priors == pytest.approx(packed.priors)

    def test_invalid_arguments_rejected(self):
        circuit = _random_circuit(np.random.default_rng(0))
        with pytest.raises(ValueError):
            detector_error_model(circuit, backend="simd")
        with pytest.raises(ValueError):
            detector_error_model(circuit, chunk_shots=0)


class TestDecoderEquivalence:
    def _decoding_problem(self, seed, error_rate=0.06):
        code = surface_code(5)
        matrix = code.hz
        rng = np.random.default_rng(seed)
        priors = np.full(matrix.shape[1], 0.05)
        errors = rng.random((80, matrix.shape[1])) < error_rate
        syndromes = ((errors @ matrix.T) % 2).astype(np.uint8)
        return matrix, priors, syndromes

    @given(st.integers(0, 2 ** 31), st.booleans(),
           st.sampled_from([0.02, 0.06, 0.15, 0.3]), st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_bposd_backends_agree(self, seed, random_matrix, error_rate,
                                  iterations):
        """bool, packed and native return identical corrections and BP
        convergence flags, also where BP oscillates: random check
        matrices, high error rates and few iterations."""
        if random_matrix:
            rng = np.random.default_rng(seed)
            matrix = (rng.random((rng.integers(2, 24), rng.integers(4, 40)))
                      < 0.3).astype(np.uint8)
            priors = rng.uniform(0.01, 0.3, matrix.shape[1])
            errors = rng.random((80, matrix.shape[1])) < error_rate
            syndromes = ((errors @ matrix.T) % 2).astype(np.uint8)
        else:
            matrix, priors, syndromes = self._decoding_problem(
                seed, error_rate=error_rate)
        results = [
            BPOSDDecoder(matrix, priors, max_iterations=iterations,
                         backend=backend).decode_batch(syndromes)
            for backend in ("bool", "packed", "native")
        ]
        for result in results:
            assert np.array_equal(result.errors, results[0].errors)
            assert np.array_equal(result.bp_converged,
                                  results[0].bp_converged)
            achieved = (result.errors @ matrix.T) % 2
            assert np.array_equal(achieved.astype(np.uint8), syndromes)

    @given(st.integers(0, 2 ** 31), st.sampled_from([0, 1, 3]))
    @settings(max_examples=10, deadline=None)
    def test_osd_reuse_matches_reference(self, seed, osd_order):
        """The factored OSD-E must return the seed implementation's
        solutions given identical BP soft output."""
        matrix, priors, syndromes = self._decoding_problem(seed)
        dense = BPOSDDecoder(matrix, priors, max_iterations=15,
                             osd_order=osd_order, backend="bool")
        packed = BPOSDDecoder(matrix, priors, max_iterations=15,
                              osd_order=osd_order, backend="packed")
        bp = dense._bp.decode_batch(syndromes)
        checked = 0
        for shot in np.nonzero(~bp.converged)[0]:
            syndrome = syndromes[shot]
            posteriors = bp.posterior_llrs[shot]
            assert np.array_equal(dense._osd_single(syndrome, posteriors),
                                  packed._osd_single(syndrome, posteriors))
            checked += 1
        assert checked > 0

    def test_batch_matches_oracle_on_stable_problem(self):
        code = repetition_quantum_code(5)
        priors = np.full(code.hz.shape[1], 0.05)
        rng = np.random.default_rng(11)
        errors = rng.random((200, code.hz.shape[1])) < 0.05
        syndromes = ((errors @ code.hz.T) % 2).astype(np.uint8)
        decoder = BeliefPropagationDecoder(code.hz, priors,
                                           max_iterations=30)
        a = decoder.decode_reference(syndromes)
        b = decoder.decode_batch(syndromes)
        assert np.array_equal(a.converged, b.converged)
        assert np.array_equal(a.errors, b.errors)
        assert np.array_equal(a.posterior_llrs, b.posterior_llrs)
        assert a.iterations == b.iterations

    def test_converged_shots_satisfy_syndrome(self):
        matrix, priors, syndromes = self._decoding_problem(21, error_rate=0.1)
        decoder = BeliefPropagationDecoder(matrix, priors, max_iterations=20)
        result = decoder.decode_batch(syndromes)
        achieved = (result.errors @ matrix.T) % 2
        assert np.array_equal(achieved[result.converged],
                              syndromes[result.converged])

    def test_update_priors_matches_fresh_decoder(self):
        matrix, priors, syndromes = self._decoding_problem(5)
        reused = BPOSDDecoder(matrix, np.full(matrix.shape[1], 0.2),
                              max_iterations=15)
        reused.update_priors(priors)
        fresh = BPOSDDecoder(matrix, priors, max_iterations=15)
        assert np.array_equal(reused.decode_batch(syndromes).errors,
                              fresh.decode_batch(syndromes).errors)


class TestMemoryExperimentBackends:
    def test_phenomenological_backends_agree(self):
        # p=3e-2 makes BP oscillate on some shots; the backends must
        # still agree there.
        code = surface_code(3)
        for p, shots in ((2e-3, 300), (3e-2, 512)):
            a = MemoryExperiment(code=code, rounds=3, seed=2, backend="bool")
            b = MemoryExperiment(code=code, rounds=3, seed=2,
                                 backend="packed")
            ra = a.run(p, 1000.0, shots=shots)
            rb = b.run(p, 1000.0, shots=shots)
            assert ra.failures == rb.failures

    def test_circuit_backends_agree(self):
        code = surface_code(3)
        a = MemoryExperiment(code=code, rounds=2, method="circuit", seed=2,
                             backend="bool")
        b = MemoryExperiment(code=code, rounds=2, method="circuit", seed=2,
                             backend="packed")
        assert a.run(2e-3, 0.0, shots=200).failures == \
            b.run(2e-3, 0.0, shots=200).failures

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            MemoryExperiment(code=surface_code(3), backend="simd")


class TestSweepSeedDerivation:
    def test_points_get_distinct_seeds(self):
        experiment = MemoryExperiment(code=surface_code(3), rounds=2, seed=0)
        first = experiment._spawn_seed()
        second = experiment._spawn_seed()
        assert first.spawn_key != second.spawn_key
        assert np.any(first.generate_state(4) != second.generate_state(4))

    def test_sweeps_reproducible_across_instances(self):
        code = surface_code(3)
        points = [(2e-3, 1000.0), (2e-3, 1000.0), (1e-3, 500.0)]
        exp_a = MemoryExperiment(code=code, rounds=3, seed=9)
        exp_b = MemoryExperiment(code=code, rounds=3, seed=9)
        for p, latency in points:
            assert exp_a.run(p, latency, shots=150).failures == \
                exp_b.run(p, latency, shots=150).failures

    def test_identical_points_sample_different_noise(self):
        code = surface_code(3)
        experiment = MemoryExperiment(code=code, rounds=2, seed=3)
        noise = HardwareNoiseModel.from_physical_error_rate(
            5e-3, round_latency_us=1000.0)
        model = build_phenomenological_model(code, noise, rounds=2)
        a = model.sample(100, seed=experiment._spawn_seed())
        b = model.sample(100, seed=experiment._spawn_seed())
        assert not np.array_equal(a[0], b[0])
