"""Native C kernel tier vs the packed numpy kernels: bit-identity.

The native tier (:mod:`repro.linalg.native`) re-implements the packed
GF(2) hot kernels in C, compiled on first use with the host toolchain.
Its whole contract is *bit-identity* with ``backend="packed"`` — GF(2)
arithmetic is exact and the fused min-sum performs the identical IEEE
operations in the identical order — so this suite cross-checks every
kernel pair over hypothesis-random shapes (including empty and
non-multiple-of-64 sizes), exactly as ``"packed"`` is cross-checked
against ``"bool"`` in ``test_backend_equivalence.py``.

Identity tests skip (never fail) on hosts without a C toolchain; the
fallback tests at the bottom run everywhere and prove that a broken
toolchain silently degrades ``backend="native"`` to the packed kernels
with identical results.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.decoders.bp import BeliefPropagationDecoder
from repro.decoders.bposd import BPOSDDecoder
from repro.decoders.gf2dense import PackedGF2Matrix, _gauss_jordan
from repro.linalg import bitops
from repro.linalg import native
from repro.linalg.native import (
    get_kernels,
    native_available,
    native_unavailable_reason,
    reset_native_state,
)

# Sizes that straddle the word (64) and byte (8) boundaries of the two
# packing layouts, plus arbitrary in-between values.
_edge_dims = st.one_of(
    st.sampled_from([1, 7, 8, 9, 63, 64, 65, 127, 128, 129]),
    st.integers(1, 150),
)
_maybe_empty_dims = st.one_of(st.just(0), _edge_dims)

needs_native = pytest.mark.skipif(
    not native_available(),
    reason="no C toolchain on this host; native tier falls back to packed",
)


def _random_bits(rng: np.random.Generator, shape: tuple[int, ...],
                 density: float = 0.4) -> np.ndarray:
    return (rng.random(shape) < density).astype(np.uint8)


def _random_check_matrix(rng: np.random.Generator, checks: int,
                         variables: int, density: float = 0.4) -> np.ndarray:
    """A random check matrix whose rows, the last included, may be empty."""
    matrix = _random_bits(rng, (checks, variables), density)
    matrix[rng.random(checks) < 0.2] = 0
    return matrix


# ----------------------------------------------------------------------
@needs_native
class TestPackedMatmulIdentity:
    @given(seed=st.integers(0, 2**31), m=_maybe_empty_dims,
           n=_maybe_empty_dims, k=_maybe_empty_dims)
    @settings(max_examples=40, deadline=None)
    def test_matmul_words_matches_numpy(self, seed, m, n, k):
        rng = np.random.default_rng(seed)
        a = bitops.pack_bits(_random_bits(rng, (m, k)), axis=1)
        b = bitops.pack_bits(_random_bits(rng, (n, k)), axis=1)
        expected = bitops.packed_matmul_words(a, b, backend="packed")
        result = bitops.packed_matmul_words(a, b, backend="native")
        assert result.dtype == bitops.WORD_DTYPE
        assert expected.shape == result.shape
        assert np.array_equal(result, expected)


# ----------------------------------------------------------------------
@needs_native
class TestGaussJordanIdentity:
    @given(seed=st.integers(0, 2**31), rows=_maybe_empty_dims,
           cols=_edge_dims)
    @settings(max_examples=40, deadline=None)
    def test_elimination_with_syndrome_carry(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        matrix = _random_bits(rng, (rows, cols))
        order = rng.permutation(cols).astype(np.int64)
        syndrome = _random_bits(rng, (rows,))

        packed_np = np.packbits(matrix, axis=1)
        carry_np = syndrome.copy()
        rank_np, pivots_np = _gauss_jordan(packed_np, carry_np, order)

        packed_c = np.packbits(matrix, axis=1)
        carry_c = syndrome.copy()
        kernels = get_kernels()
        rank_c, pivots_c = kernels.gauss_jordan(packed_c, carry_c, order)

        assert rank_c == rank_np
        assert pivots_c == pivots_np
        assert np.array_equal(packed_c, packed_np)
        assert np.array_equal(carry_c, carry_np)

    @given(seed=st.integers(0, 2**31), rows=_edge_dims, cols=_edge_dims)
    @settings(max_examples=25, deadline=None)
    def test_elimination_with_transform_carry(self, seed, rows, cols):
        # 2-D carry: the packed row transform a factorization accumulates.
        rng = np.random.default_rng(seed)
        matrix = _random_bits(rng, (rows, cols))
        order = rng.permutation(cols).astype(np.int64)
        transform = np.packbits(np.identity(rows, dtype=np.uint8), axis=1)

        packed_np = np.packbits(matrix, axis=1)
        carry_np = transform.copy()
        rank_np, pivots_np = _gauss_jordan(packed_np, carry_np, order)

        packed_c = np.packbits(matrix, axis=1)
        carry_c = transform.copy()
        rank_c, pivots_c = get_kernels().gauss_jordan(packed_c, carry_c,
                                                      order)

        assert (rank_c, pivots_c) == (rank_np, pivots_np)
        assert np.array_equal(packed_c, packed_np)
        assert np.array_equal(carry_c, carry_np)

    @given(seed=st.integers(0, 2**31), rows=_maybe_empty_dims,
           cols=_edge_dims)
    @settings(max_examples=30, deadline=None)
    def test_solve_and_factorize_identity(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        matrix = _random_bits(rng, (rows, cols))
        order = rng.permutation(cols)
        # A consistent right-hand side: the syndrome of a random error.
        error = _random_bits(rng, (cols,))
        syndrome = (matrix @ error) % 2

        packed = PackedGF2Matrix(matrix, native=False)
        native_m = PackedGF2Matrix(matrix, native=True)
        assert native_m._kernels is not None

        expected = packed.gauss_jordan_solve(order, syndrome)
        assert np.array_equal(native_m.gauss_jordan_solve(order, syndrome),
                              expected)
        assert np.array_equal(native_m.solve_ordered(order, syndrome),
                              expected)
        if rows:
            factor_np = packed.factorize(order, cache=False)
            factor_c = native_m.factorize(order, cache=False)
            assert factor_c.rank == factor_np.rank
            assert np.array_equal(factor_c.pivot_cols, factor_np.pivot_cols)
            assert np.array_equal(factor_c.solve(syndrome), expected)

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_inconsistent_system_raises_in_both(self, seed):
        rng = np.random.default_rng(seed)
        # A rank-deficient matrix (duplicated rows) with a syndrome that
        # disagrees on the duplicates is unsolvable.
        row = _random_bits(rng, (1, 24))
        assume(row.any())
        matrix = np.vstack([row, row])
        syndrome = np.array([0, 1], dtype=np.uint8)
        order = np.arange(24)
        for is_native in (False, True):
            with pytest.raises(ValueError):
                PackedGF2Matrix(matrix, native=is_native).gauss_jordan_solve(
                    order, syndrome)


# ----------------------------------------------------------------------
def _decoder_pair(matrix, priors, **kwargs):
    packed = BeliefPropagationDecoder(matrix, priors, **kwargs)
    native_d = BeliefPropagationDecoder(matrix, priors, native=True,
                                        **kwargs)
    assert native_d._native_kernels is not None
    return packed, native_d


@needs_native
class TestMinSumIdentity:
    @given(seed=st.integers(0, 2**31), checks=_edge_dims,
           variables=_edge_dims, shots=st.integers(1, 12))
    @settings(max_examples=30, deadline=None)
    def test_check_update_bit_identical(self, seed, checks, variables,
                                        shots):
        rng = np.random.default_rng(seed)
        matrix = _random_check_matrix(rng, checks, variables)
        priors = rng.uniform(0.01, 0.3, variables)
        packed, native_d = _decoder_pair(matrix, priors)

        var_to_check = rng.normal(0.0, 8.0, (shots, packed._num_edges))
        # Exact ties exercise the first-minimum position rule.
        if packed._num_edges >= 2:
            var_to_check[:, 1] = var_to_check[:, 0]
        syndrome_signs = np.where(rng.random((shots, checks)) < 0.5,
                                  -1.0, 1.0)

        expected = packed._check_update(var_to_check, syndrome_signs)
        result = native_d._native_kernels.min_sum_check_update(
            var_to_check, syndrome_signs, native_d._check_starts,
            native_d.scaling_factor, native_d.clip_llr)
        # Bit-for-bit float equality, not allclose: the C kernel performs
        # the identical IEEE-754 operations in the identical order.
        assert np.array_equal(result, expected)

    @given(seed=st.integers(0, 2**31), checks=st.integers(2, 24),
           variables=st.integers(2, 40), shots=st.integers(0, 16))
    @settings(max_examples=20, deadline=None)
    def test_bp_decode_batch_identical(self, seed, checks, variables,
                                       shots):
        rng = np.random.default_rng(seed)
        matrix = _random_check_matrix(rng, checks, variables, density=0.3)
        priors = rng.uniform(0.005, 0.2, variables)
        packed, native_d = _decoder_pair(matrix, priors, max_iterations=15)
        syndromes = _random_bits(rng, (shots, checks), density=0.3)

        a = packed.decode_batch(syndromes)
        b = native_d.decode_batch(syndromes)
        assert np.array_equal(a.errors, b.errors)
        assert np.array_equal(a.converged, b.converged)
        assert np.array_equal(a.posterior_llrs, b.posterior_llrs)


@needs_native
class TestBPOSDBackendIdentity:
    @given(seed=st.integers(0, 2**31), checks=st.integers(2, 20),
           variables=st.integers(4, 36), shots=st.integers(1, 24),
           osd_order=st.sampled_from([0, 2]))
    @settings(max_examples=15, deadline=None)
    def test_decode_batch_identical(self, seed, checks, variables, shots,
                                    osd_order):
        rng = np.random.default_rng(seed)
        matrix = _random_check_matrix(rng, checks, variables, density=0.3)
        priors = rng.uniform(0.005, 0.15, variables)
        kwargs = dict(max_iterations=8, osd_order=osd_order)
        packed = BPOSDDecoder(matrix, priors, backend="packed", **kwargs)
        native_d = BPOSDDecoder(matrix, priors, backend="native", **kwargs)
        assert native_d.native_active

        errors = _random_bits(rng, (shots, variables), density=0.2)
        syndromes = (errors @ matrix.T) % 2
        a = packed.decode_batch(syndromes)
        b = native_d.decode_batch(syndromes)
        assert np.array_equal(a.errors, b.errors)
        assert np.array_equal(a.bp_converged, b.bp_converged)


# ----------------------------------------------------------------------
@pytest.fixture
def fresh_probe(monkeypatch, tmp_path):
    """A clean probe under a scratch cache; restores the real one after."""
    reset_native_state()
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
    yield monkeypatch
    reset_native_state()


class TestFallback:
    """Toolchain-less hosts degrade silently; these run everywhere."""

    def test_compile_failure_falls_back_to_packed(self, fresh_probe):
        # /bin/false "compiles" by exiting non-zero: the forced compile
        # failure.  The decoder must still build — on the packed kernels
        # — and decode bit-identically to backend="packed".
        fresh_probe.setenv("CC", "/bin/false")
        fresh_probe.delenv("REPRO_NATIVE", raising=False)
        assert not native_available()
        reason = native_unavailable_reason()
        assert reason is not None and "compile failed" in reason

        rng = np.random.default_rng(5)
        matrix = (rng.random((10, 24)) < 0.3).astype(np.uint8)
        matrix[0, 0] = 1
        priors = rng.uniform(0.01, 0.1, 24)
        syndromes = (rng.random((8, 10)) < 0.3).astype(np.uint8)
        packed = BPOSDDecoder(matrix, priors, backend="packed")
        fallback = BPOSDDecoder(matrix, priors, backend="native")
        assert not fallback.native_active
        a = packed.decode_batch(syndromes)
        b = fallback.decode_batch(syndromes)
        assert np.array_equal(a.errors, b.errors)
        assert np.array_equal(a.bp_converged, b.bp_converged)

    def test_missing_compiler_falls_back(self, fresh_probe):
        fresh_probe.setenv("CC", str("/nonexistent/bin/cc"))
        fresh_probe.delenv("REPRO_NATIVE", raising=False)
        assert not native_available()
        assert "no C compiler" in native_unavailable_reason()
        # bitops dispatch degrades to the numpy kernels, same results.
        a = np.arange(5, dtype=np.uint64).reshape(5, 1)
        b = np.arange(3, 6, dtype=np.uint64).reshape(3, 1)
        assert np.array_equal(
            bitops.packed_matmul_words(a, b, backend="native"),
            bitops.packed_matmul_words(a, b, backend="packed"),
        )

    def test_probe_failure_logs_one_note(self, fresh_probe, caplog):
        fresh_probe.setenv("CC", "/nonexistent/bin/cc")
        fresh_probe.delenv("REPRO_NATIVE", raising=False)
        with caplog.at_level("INFO", logger="repro.linalg.native"):
            assert get_kernels() is None
            assert get_kernels() is None  # memoised: no second note
        notes = [r for r in caplog.records
                 if "native kernel tier unavailable" in r.getMessage()]
        assert len(notes) == 1

    def test_repro_native_zero_disables(self, fresh_probe):
        fresh_probe.setenv("REPRO_NATIVE", "0")
        assert get_kernels() is None
        assert not native_available()
        assert "REPRO_NATIVE=0" in native_unavailable_reason()

    def test_repro_native_one_requires(self, fresh_probe):
        fresh_probe.setenv("CC", "/nonexistent/bin/cc")
        fresh_probe.setenv("REPRO_NATIVE", "1")
        with pytest.raises(RuntimeError, match="REPRO_NATIVE=1"):
            get_kernels()
        # native_available() stays a clean boolean even in required mode.
        assert not native_available()
        # ... but building a native decoder surfaces the failure loudly.
        with pytest.raises(RuntimeError, match="REPRO_NATIVE=1"):
            BPOSDDecoder(np.eye(3, dtype=np.uint8), np.full(3, 0.05),
                         backend="native")


# ----------------------------------------------------------------------
@needs_native
class TestBuildArtifacts:
    def test_fingerprint_written_next_to_library(self):
        kernels = get_kernels()
        assert kernels.path.exists()
        fingerprint_path = kernels.path.parent / "fingerprint.json"
        assert fingerprint_path.exists()
        assert kernels.fingerprint["abi_version"] == native.ABI_VERSION
        assert kernels.fingerprint["cflags"] == list(native.CFLAGS)

    def test_simulation_backend_mapping(self):
        assert native.simulation_backend("native") == "packed"
        assert native.simulation_backend("packed") == "packed"
        assert native.simulation_backend("bool") == "bool"
