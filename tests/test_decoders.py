"""Tests for BP, BP+OSD, lookup decoders and the packed GF(2) solver."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import code_by_name, surface_code
from repro.decoders import (
    BeliefPropagationDecoder,
    BPOSDDecoder,
    LookupDecoder,
)
from repro.decoders.gf2dense import PackedGF2Matrix
from repro.linalg import gf2_matrix


REPETITION_H = np.array([[1, 1, 0, 0, 0],
                         [0, 1, 1, 0, 0],
                         [0, 0, 1, 1, 0],
                         [0, 0, 0, 1, 1]], dtype=np.uint8)


class TestPackedGF2Matrix:
    def test_solves_identity_system(self):
        matrix = np.identity(5, dtype=np.uint8)
        packed = PackedGF2Matrix(matrix)
        syndrome = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
        solution = packed.gauss_jordan_solve(np.arange(5), syndrome)
        assert np.array_equal(solution, syndrome)

    def test_solution_satisfies_system(self):
        rng = np.random.default_rng(0)
        matrix = rng.integers(0, 2, (6, 10), dtype=np.uint8)
        x = rng.integers(0, 2, 10, dtype=np.uint8)
        syndrome = (matrix @ x) % 2
        packed = PackedGF2Matrix(matrix)
        solution = packed.gauss_jordan_solve(np.arange(10), syndrome)
        assert np.array_equal((matrix @ solution) % 2, syndrome)

    def test_column_order_prefers_early_columns(self):
        matrix = np.array([[1, 1]], dtype=np.uint8)
        packed = PackedGF2Matrix(matrix)
        prefer_second = packed.gauss_jordan_solve(np.array([1, 0]),
                                                  np.array([1], dtype=np.uint8))
        assert prefer_second.tolist() == [0, 1]

    def test_inconsistent_system_raises(self):
        matrix = np.array([[1, 1], [1, 1]], dtype=np.uint8)
        packed = PackedGF2Matrix(matrix)
        with pytest.raises(ValueError):
            packed.gauss_jordan_solve(np.arange(2),
                                      np.array([1, 0], dtype=np.uint8))

    @given(st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_random_consistent_systems(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols = rng.integers(1, 12, 2)
        matrix = rng.integers(0, 2, (rows, cols), dtype=np.uint8)
        x = rng.integers(0, 2, cols, dtype=np.uint8)
        syndrome = (matrix @ x) % 2
        order = rng.permutation(cols)
        solution = PackedGF2Matrix(matrix).gauss_jordan_solve(order, syndrome)
        assert np.array_equal((matrix @ solution) % 2, syndrome)


class TestFactorizationCache:
    """The keyed factorization cache must change work, never results."""

    def _system(self, seed=3, rows=8, cols=14):
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 2, (rows, cols), dtype=np.uint8)
        x = rng.integers(0, 2, cols, dtype=np.uint8)
        return matrix, ((matrix @ x) % 2).astype(np.uint8)

    def test_factorize_returns_cached_object_on_repeat(self):
        matrix, _ = self._system()
        packed = PackedGF2Matrix(matrix)
        order = np.arange(matrix.shape[1])
        first = packed.factorize(order)
        second = packed.factorize(order)
        assert second is first
        assert packed.factor_cache_hits == 1
        assert packed.factor_cache_builds == 1

    def test_cache_disabled_builds_fresh(self):
        matrix, _ = self._system()
        packed = PackedGF2Matrix(matrix, factor_cache_size=0)
        order = np.arange(matrix.shape[1])
        assert packed.factorize(order) is not packed.factorize(order)
        assert packed.factor_cache_hits == 0

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_solve_ordered_matches_gauss_jordan(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols = rng.integers(1, 12, 2)
        matrix = rng.integers(0, 2, (rows, cols), dtype=np.uint8)
        order = rng.permutation(cols)
        cached = PackedGF2Matrix(matrix)
        reference = PackedGF2Matrix(matrix, factor_cache_size=0)
        for _ in range(4):  # cover miss, second-sighting, and hit paths
            x = rng.integers(0, 2, cols, dtype=np.uint8)
            syndrome = ((matrix @ x) % 2).astype(np.uint8)
            assert np.array_equal(
                cached.solve_ordered(order, syndrome),
                reference.gauss_jordan_solve(order, syndrome),
            )

    def test_solve_ordered_factorizes_on_second_sighting(self):
        matrix, syndrome = self._system()
        packed = PackedGF2Matrix(matrix)
        order = np.arange(matrix.shape[1])
        packed.solve_ordered(order, syndrome)  # first: direct solve
        assert packed.factor_cache_builds == 0
        packed.solve_ordered(order, syndrome)  # second: factorize
        assert packed.factor_cache_builds == 1
        packed.solve_ordered(order, syndrome)  # third: replay
        assert packed.factor_cache_hits == 1

    def test_solve_ordered_inconsistent_raises_on_every_path(self):
        matrix = np.array([[1, 1], [1, 1]], dtype=np.uint8)
        packed = PackedGF2Matrix(matrix)
        order = np.arange(2)
        bad = np.array([1, 0], dtype=np.uint8)
        for _ in range(3):  # direct, factorizing and cached-replay paths
            with pytest.raises(ValueError):
                packed.solve_ordered(order, bad)

    def test_cache_is_lru_bounded(self):
        matrix, _ = self._system()
        packed = PackedGF2Matrix(matrix, factor_cache_size=4)
        rng = np.random.default_rng(0)
        for _ in range(10):
            packed.factorize(rng.permutation(matrix.shape[1]))
        assert len(packed._factor_cache) == 4

    def test_osd_corrections_identical_with_and_without_cache(self):
        """BP+OSD corrections must not depend on cache state — decode
        the same batch twice (cold cache vs warm cache) and against a
        cache-disabled decoder."""
        code = surface_code(5)
        matrix = code.hz
        rng = np.random.default_rng(17)
        priors = np.full(matrix.shape[1], 0.05)
        errors = rng.random((120, matrix.shape[1])) < 0.06
        syndromes = ((errors @ matrix.T) % 2).astype(np.uint8)
        for osd_order in (0, 2):
            decoder = BPOSDDecoder(matrix, priors, max_iterations=15,
                                   osd_order=osd_order, backend="packed")
            cold = decoder.decode_batch(syndromes)
            warm = decoder.decode_batch(syndromes)
            uncached = BPOSDDecoder(matrix, priors, max_iterations=15,
                                    osd_order=osd_order, backend="packed")
            uncached._packed = PackedGF2Matrix(matrix, factor_cache_size=0)
            reference = uncached.decode_batch(syndromes)
            assert np.array_equal(cold.errors, warm.errors)
            assert np.array_equal(cold.errors, reference.errors)

    def test_cache_hits_on_low_error_rate_workload(self):
        """At low error rates BP posteriors tie on the prior ordering,
        so unconverged shots repeat the same column order — the whole
        point of sharing factorizations across shots."""
        code = surface_code(5)
        matrix = code.hz
        rng = np.random.default_rng(23)
        priors = np.full(matrix.shape[1], 0.05)
        errors = rng.random((300, matrix.shape[1])) < 0.04
        syndromes = ((errors @ matrix.T) % 2).astype(np.uint8)
        decoder = BPOSDDecoder(matrix, priors, max_iterations=15,
                               osd_order=0, backend="packed")
        decoder.decode_batch(syndromes)
        assert decoder._packed.factor_cache_hits > 0


class TestBeliefPropagation:
    def test_zero_syndrome_decodes_to_no_error(self):
        decoder = BeliefPropagationDecoder(REPETITION_H, np.full(5, 0.05))
        result = decoder.decode_batch(np.zeros((3, 4), dtype=np.uint8))
        assert result.converged.all()
        assert not result.errors.any()

    def test_single_error_recovered(self):
        decoder = BeliefPropagationDecoder(REPETITION_H, np.full(5, 0.05))
        error = np.array([0, 0, 1, 0, 0], dtype=np.uint8)
        syndrome = (REPETITION_H @ error) % 2
        result = decoder.decode_batch(syndrome[np.newaxis, :])
        assert result.converged[0]
        assert np.array_equal(result.errors[0], error)

    def test_batch_decoding_matches_individual(self):
        decoder = BeliefPropagationDecoder(REPETITION_H, np.full(5, 0.05))
        errors = np.array([[1, 0, 0, 0, 0],
                           [0, 0, 0, 0, 1],
                           [0, 1, 0, 0, 0]], dtype=np.uint8)
        syndromes = (errors @ REPETITION_H.T) % 2
        batch = decoder.decode_batch(syndromes)
        for i in range(3):
            single = decoder.decode_batch(syndromes[i:i + 1])
            assert np.array_equal(batch.errors[i], single.errors[0])

    def test_priors_break_ties(self):
        # Degenerate single check: the column with the larger prior should
        # be blamed for the syndrome.
        check = np.array([[1, 1]], dtype=np.uint8)
        decoder = BeliefPropagationDecoder(check, np.array([0.01, 0.2]))
        result = decoder.decode_batch(np.array([[1]], dtype=np.uint8))
        assert result.errors[0].tolist() == [0, 1]

    def test_syndrome_length_validation(self):
        decoder = BeliefPropagationDecoder(REPETITION_H, np.full(5, 0.05))
        with pytest.raises(ValueError):
            decoder.decode_batch(np.zeros((1, 3), dtype=np.uint8))

    def test_prior_length_validation(self):
        with pytest.raises(ValueError):
            BeliefPropagationDecoder(REPETITION_H, np.full(4, 0.05))

    def test_posterior_llrs_shape(self):
        decoder = BeliefPropagationDecoder(REPETITION_H, np.full(5, 0.05))
        result = decoder.decode_batch(np.zeros((2, 4), dtype=np.uint8))
        assert result.posterior_llrs.shape == (2, 5)
        assert (result.posterior_llrs > 0).all()

    @pytest.mark.parametrize("backend", ["packed", "bool", "native"])
    def test_trailing_empty_check_decodes(self, backend):
        # An all-zero last row starts its reduceat segment past the last
        # edge; every backend must decode it like any other check.
        check = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 0]], dtype=np.uint8)
        errors = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
                          dtype=np.uint8)
        syndromes = (errors @ check.T) % 2
        decoder = BPOSDDecoder(check, np.full(3, 0.1), max_iterations=10,
                               backend=backend)
        result = decoder.decode_batch(syndromes)
        assert result.bp_converged.all()
        assert np.array_equal(result.errors, errors)


def _assert_same_bp(a, b):
    """Two BP results agree byte for byte."""
    assert np.array_equal(a.errors, b.errors)
    assert np.array_equal(a.converged, b.converged)
    assert np.array_equal(a.posterior_llrs, b.posterior_llrs)
    assert a.iterations == b.iterations


class TestPackedSyndromeVerification:
    """``decode_batch`` verifies each iteration on 64-check words; it must
    match the per-shot oracle, which verifies with a dense ``H @ e mod 2``,
    bit-for-bit: same convergence flags, errors, posteriors and iteration
    count, with the numpy and the native kernels alike."""

    @pytest.mark.parametrize("native", [False, True])
    def test_bit_identical_to_sparse_verification(self, native):
        code = surface_code(3)
        rng = np.random.default_rng(17)
        check = code.hz
        priors = np.full(check.shape[1], 0.04)
        errors = (rng.random((64, check.shape[1])) < 0.08).astype(np.uint8)
        syndromes = (errors @ check.T) % 2
        decoder = BeliefPropagationDecoder(check, priors, max_iterations=25,
                                           native=native)
        _assert_same_bp(decoder.decode_batch(syndromes),
                        decoder.decode_reference(syndromes))

    def test_non_multiple_of_64_checks_and_mechanisms(self):
        # 4 checks / 5 mechanisms: everything lives in padding-heavy
        # words, where stray padding bits would break the comparison.
        priors = np.full(5, 0.05)
        errors = np.array([[1, 0, 0, 0, 0], [0, 0, 1, 0, 0]], dtype=np.uint8)
        syndromes = (errors @ REPETITION_H.T) % 2
        decoder = BeliefPropagationDecoder(REPETITION_H, priors)
        _assert_same_bp(decoder.decode_batch(syndromes),
                        decoder.decode_reference(syndromes))


class TestBPOSD:
    def test_matches_lookup_decoder_on_small_code(self):
        priors = np.full(5, 0.08)
        bposd = BPOSDDecoder(REPETITION_H, priors, max_iterations=30)
        lookup = LookupDecoder(REPETITION_H, priors)
        rng = np.random.default_rng(1)
        errors = (rng.random((50, 5)) < 0.1).astype(np.uint8)
        syndromes = (errors @ REPETITION_H.T) % 2
        decoded = bposd.decode_batch(syndromes)
        for i in range(50):
            expected = lookup.decode(syndromes[i])
            achieved = (REPETITION_H @ decoded.errors[i]) % 2
            assert np.array_equal(achieved, syndromes[i])
            assert decoded.errors[i].sum() <= expected.sum() + 1

    def test_osd_resolves_bp_failures_on_surface_code(self):
        code = surface_code(3)
        priors = np.full(code.num_qubits, 0.05)
        decoder = BPOSDDecoder(code.hz, priors, max_iterations=20)
        rng = np.random.default_rng(2)
        errors = (rng.random((200, code.num_qubits)) < 0.05).astype(np.uint8)
        syndromes = (errors @ code.hz.T) % 2
        result = decoder.decode_batch(syndromes)
        achieved = (result.errors @ code.hz.T) % 2
        assert np.array_equal(achieved, syndromes)

    def test_logical_error_rate_below_physical(self):
        code = code_by_name("BB [[72,12,6]]")
        q = 0.01
        decoder = BPOSDDecoder(code.hz, np.full(code.num_qubits, q),
                               max_iterations=40)
        rng = np.random.default_rng(3)
        shots = 300
        errors = (rng.random((shots, code.num_qubits)) < q).astype(np.uint8)
        syndromes = (errors @ code.hz.T) % 2
        result = decoder.decode_batch(syndromes)
        residual = result.errors ^ errors
        logical = np.any((residual @ code.logical_z.T) % 2, axis=1)
        assert logical.mean() < q

    def test_single_shot_decode_interface(self):
        decoder = BPOSDDecoder(REPETITION_H, np.full(5, 0.05))
        error = np.array([1, 0, 0, 0, 0], dtype=np.uint8)
        syndrome = (REPETITION_H @ error) % 2
        assert np.array_equal(decoder.decode(syndrome), error)

    def test_osd_exhaustive_not_worse_than_osd0(self):
        code = surface_code(3)
        q = 0.08
        rng = np.random.default_rng(4)
        errors = (rng.random((100, code.num_qubits)) < q).astype(np.uint8)
        syndromes = (errors @ code.hz.T) % 2

        def failures(decoder):
            result = decoder.decode_batch(syndromes)
            residual = result.errors ^ errors
            return int(np.any((residual @ code.logical_z.T) % 2, axis=1).sum())

        osd0 = failures(BPOSDDecoder(code.hz, np.full(code.num_qubits, q),
                                     osd_order=0, max_iterations=15))
        osde = failures(BPOSDDecoder(code.hz, np.full(code.num_qubits, q),
                                     osd_order=4, max_iterations=15))
        assert osde <= osd0 + 2


class TestLookupDecoder:
    def test_rejects_large_models(self):
        with pytest.raises(ValueError):
            LookupDecoder(np.zeros((3, 30), dtype=np.uint8), np.full(30, 0.1))

    def test_exact_mld_on_two_mechanisms(self):
        check = gf2_matrix([[1, 1]])
        decoder = LookupDecoder(check, np.array([0.3, 0.01]))
        assert decoder.decode(np.array([1], dtype=np.uint8)).tolist() == [1, 0]

    def test_unknown_syndrome_returns_zero(self):
        check = gf2_matrix([[1, 0], [0, 0]])
        decoder = LookupDecoder(check, np.array([0.1, 0.1]), max_weight=1)
        unknown = np.array([0, 1], dtype=np.uint8)
        assert decoder.decode(unknown).sum() == 0

    def test_batch_interface(self):
        check = gf2_matrix([[1, 1, 0], [0, 1, 1]])
        decoder = LookupDecoder(check, np.full(3, 0.1))
        syndromes = np.array([[0, 0], [1, 0], [1, 1]], dtype=np.uint8)
        decoded = decoder.decode_batch(syndromes)
        assert decoded.shape == (3, 3)
        for syndrome, error in zip(syndromes, decoded):
            assert np.array_equal((check @ error) % 2, syndrome)
