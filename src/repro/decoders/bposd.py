"""Belief propagation with ordered-statistics post-processing (BP+OSD).

BP alone fails on quantum LDPC codes whenever degenerate errors create
symmetric, non-converging message configurations.  OSD breaks the tie:
columns of the check matrix are ranked by BP's soft output (most likely
to be in error first) and Gaussian elimination over that ordering
produces a valid correction that matches the syndrome exactly.  OSD-0
keeps the non-pivot columns at zero; OSD-E additionally tries all
low-weight patterns on the ``osd_order`` least-reliable non-pivot
columns and keeps the most likely consistent solution.

Three backends are provided (:data:`BACKENDS`).  ``backend="packed"``
(default) runs the production BP loop
(:meth:`~repro.decoders.bp.BeliefPropagationDecoder.decode_batch`) and
OSD-E with a single Gauss-Jordan factorization per shot that is
reused across all ``2**osd_order`` trial patterns — and shared across
*shots* whose BP posteriors produce the same column order (a keyed
cache in :class:`~repro.decoders.gf2dense.PackedGF2Matrix`, common at
low error rates where posteriors tie).  ``backend="native"`` keeps the
packed decode structure but routes the hot kernels — the fused min-sum
check update, the packed syndrome verification and the OSD
Gauss-Jordan eliminations — through the compiled C tier
(:mod:`repro.linalg.native`), bit-identical to ``"packed"`` and
silently degrading to it on hosts without a C toolchain.
``backend="bool"`` is the reference oracle: the per-shot BP loop
(:meth:`~repro.decoders.bp.BeliefPropagationDecoder.decode_reference`)
and a fresh elimination per trial pattern.  All three return identical
corrections and convergence flags.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.decoders.bp import BeliefPropagationDecoder
from repro.decoders.gf2dense import PackedGF2Matrix

__all__ = ["BACKENDS", "BLOCK_SHOTS", "BPOSDDecoder", "DecodeResult"]

#: Decoder backends, in the order the CLI lists them.
BACKENDS = ("packed", "bool", "native")

#: Shots per BP block, and the pipeline's default shard size.  The
#: shard layout roots every seed tree, so changing it moves results.
BLOCK_SHOTS = 2048


@dataclass
class DecodeResult:
    """Batched decode output.

    ``errors`` is ``(shots, mechanisms)`` uint8; ``bp_converged`` flags
    which shots were resolved by BP alone.
    """

    errors: np.ndarray
    bp_converged: np.ndarray

    @property
    def shots(self) -> int:
        return int(self.errors.shape[0])


class BPOSDDecoder:
    """BP+OSD decoder over an arbitrary binary check matrix."""

    def __init__(self, check_matrix: np.ndarray, priors: np.ndarray,
                 max_iterations: int = 50, osd_order: int = 0,
                 scaling_factor: float = 0.75,
                 backend: str = "packed", block_shots: int = BLOCK_SHOTS,
                 factor_cache_size: int = 32) -> None:
        if backend not in BACKENDS:
            raise ValueError("backend must be 'packed', 'bool' or 'native'")
        if block_shots < 1:
            raise ValueError("block_shots must be positive")
        self.check_matrix = np.asarray(check_matrix, dtype=np.uint8)
        self.priors = np.asarray(priors, dtype=float)
        self.max_iterations = int(max_iterations)
        self.scaling_factor = float(scaling_factor)
        self.osd_order = int(osd_order)
        self.backend = backend
        self.block_shots = int(block_shots)
        # Cross-shot OSD factorization sharing; each retained entry
        # holds an O(checks^2/8)-byte row transform, so decoders over
        # very large detector sets can shrink or disable (0) the cache.
        self.factor_cache_size = int(factor_cache_size)
        self._bp = BeliefPropagationDecoder(
            self.check_matrix, self.priors,
            max_iterations=max_iterations, scaling_factor=scaling_factor,
            native=(backend == "native"),
        )
        self._packed = PackedGF2Matrix(self.check_matrix,
                                       factor_cache_size=factor_cache_size,
                                       native=(backend == "native"))

    @property
    def num_checks(self) -> int:
        return int(self.check_matrix.shape[0])

    @property
    def num_mechanisms(self) -> int:
        return int(self.check_matrix.shape[1])

    @property
    def native_active(self) -> bool:
        """Whether ``backend="native"`` actually bound the C kernel tier.

        ``False`` either because another backend was requested or
        because the host has no working toolchain — in the latter case
        the decoder runs the packed kernels and produces bit-identical
        results, so this flag is informational (benchmarks record it).
        """
        return self._bp._native_kernels is not None

    # ------------------------------------------------------------------
    def update_priors(self, priors: np.ndarray) -> None:
        """Refresh the per-mechanism priors, keeping all decode structure.

        The Tanner graph, sparse incidence matrices and packed check
        matrix depend only on the check matrix, so operating-point
        sweeps can reuse one decoder instance across points.
        """
        self.priors = np.asarray(priors, dtype=float)
        self._bp.update_priors(self.priors)

    # ------------------------------------------------------------------
    def decode_batch(self, syndromes: np.ndarray) -> DecodeResult:
        """Decode a batch of syndromes, OSD-completing BP failures.

        Shots are decoded in blocks of ``block_shots`` so BP's
        ``(shots, edges)`` message temporaries stay memory-bounded;
        shots are decoded independently, so blocking never changes the
        result.
        """
        syndromes = np.atleast_2d(np.asarray(syndromes)).astype(np.uint8)
        shots = syndromes.shape[0]
        decode_bp = (self._bp.decode_reference if self.backend == "bool"
                     else self._bp.decode_batch)
        errors_parts = []
        converged_parts = []
        for start in range(0, shots, self.block_shots):
            stop = start + self.block_shots
            bp_result = decode_bp(syndromes[start:stop])
            errors = bp_result.errors.copy()
            unconverged = np.nonzero(~bp_result.converged)[0]
            if unconverged.size:
                # One vectorized argsort over every unconverged shot of
                # the block; per-row stable argsort is identical to the
                # per-shot call it replaces, so corrections are
                # unchanged — only the sort dispatch overhead goes.
                column_orders = np.argsort(
                    bp_result.posterior_llrs[unconverged], axis=1,
                    kind="stable",
                )
            for row, shot in enumerate(unconverged):
                errors[shot] = self._osd_single(
                    syndromes[start + shot], bp_result.posterior_llrs[shot],
                    column_order=column_orders[row],
                )
            errors_parts.append(errors)
            converged_parts.append(bp_result.converged)
        if not errors_parts:  # shots == 0
            return DecodeResult(
                errors=np.zeros((0, self.num_mechanisms), dtype=np.uint8),
                bp_converged=np.zeros(0, dtype=bool),
            )
        return DecodeResult(errors=np.concatenate(errors_parts),
                            bp_converged=np.concatenate(converged_parts))

    def decode(self, syndrome: np.ndarray) -> np.ndarray:
        """Decode a single syndrome vector."""
        return self.decode_batch(syndrome[np.newaxis, :]).errors[0]

    # ------------------------------------------------------------------
    def _osd_single(self, syndrome: np.ndarray,
                    posterior_llrs: np.ndarray,
                    column_order: np.ndarray | None = None) -> np.ndarray:
        if column_order is None:
            # Most-likely-to-be-flipped first: ascending LLR.  Batch
            # callers pass the order in (one argsort across all
            # unconverged shots); this is the single-shot fallback.
            column_order = np.argsort(posterior_llrs, kind="stable")
        if self.backend != "bool" and self.osd_order > 0:
            return self._osd_factored(syndrome, posterior_llrs, column_order)
        try:
            if self.backend != "bool":
                # OSD-0 solves each syndrome once, but shots whose BP
                # posteriors tie on the same column order (common at low
                # error rates) replay a shared elimination — identical
                # solutions, see PackedGF2Matrix.solve_ordered.
                solution = self._packed.solve_ordered(column_order, syndrome)
            else:
                solution = self._packed.gauss_jordan_solve(column_order,
                                                           syndrome)
        except ValueError:
            # Inconsistent system (possible when the DEM does not span the
            # observed syndrome, e.g. under truncated noise enumeration);
            # fall back to the BP hard decision.
            return (posterior_llrs < 0).astype(np.uint8)
        if self.osd_order <= 0:
            return solution
        return self._osd_exhaustive(syndrome, posterior_llrs, column_order,
                                    solution)

    # ------------------------------------------------------------------
    def _osd_factored(self, syndrome: np.ndarray,
                      posterior_llrs: np.ndarray,
                      column_order: np.ndarray) -> np.ndarray:
        """OSD with one elimination per shot, shared by all trial patterns."""
        factor = self._packed.factorize(column_order)
        reduced = factor.reduce_syndrome(syndrome)
        try:
            base_solution = factor.solution_from_reduced(reduced)
        except ValueError:
            # Inconsistent system: same fallback as the reference path.
            return (posterior_llrs < 0).astype(np.uint8)
        if self.osd_order <= 0:
            return base_solution

        log_like = self._osd_log_likelihoods(posterior_llrs)

        best = base_solution
        best_score = float(base_solution @ log_like)
        non_pivot = [c for c in column_order if base_solution[c] == 0]
        trial_columns = non_pivot[: self.osd_order]
        # Flipping column c XORs H[:, c] into the syndrome; in the
        # reduced basis that is the reduced column T @ H[:, c], so each
        # trial solve is a handful of XORs instead of an elimination.
        reduced_columns = [factor.reduced_column(c) for c in trial_columns]
        for pattern in range(1, 2 ** len(trial_columns)):
            trial_reduced = reduced.copy()
            flip_columns = []
            for bit, column in enumerate(trial_columns):
                if (pattern >> bit) & 1:
                    flip_columns.append(column)
                    trial_reduced ^= reduced_columns[bit]
            try:
                candidate = factor.solution_from_reduced(trial_reduced)
            except ValueError:
                continue
            for column in flip_columns:
                candidate[column] ^= 1
            score = float(candidate @ log_like)
            if score > best_score:
                best_score = score
                best = candidate
        return best

    # ------------------------------------------------------------------
    @staticmethod
    def _osd_log_likelihoods(posterior_llrs: np.ndarray) -> np.ndarray:
        probabilities = 1.0 / (1.0 + np.exp(posterior_llrs))
        probabilities = np.clip(probabilities, 1e-12, 1 - 1e-12)
        return np.log(probabilities / (1 - probabilities))

    def _osd_exhaustive(self, syndrome, posterior_llrs, column_order,
                        base_solution) -> np.ndarray:
        """OSD-E reference: exhaust low-weight patterns on the least
        reliable non-pivot columns, re-eliminating per trial pattern."""
        log_like = self._osd_log_likelihoods(posterior_llrs)

        def solution_score(solution: np.ndarray) -> float:
            return float(solution @ log_like)

        best = base_solution
        best_score = solution_score(base_solution)
        non_pivot = [c for c in column_order if base_solution[c] == 0]
        trial_columns = non_pivot[: self.osd_order]
        for pattern in range(1, 2 ** len(trial_columns)):
            trial_syndrome = syndrome.copy()
            flip_columns = [
                column for bit, column in enumerate(trial_columns)
                if (pattern >> bit) & 1
            ]
            for column in flip_columns:
                trial_syndrome ^= self.check_matrix[:, column]
            try:
                partial = self._packed.gauss_jordan_solve(
                    column_order, trial_syndrome
                )
            except ValueError:
                continue
            candidate = partial.copy()
            for column in flip_columns:
                candidate[column] ^= 1
            score = solution_score(candidate)
            if score > best_score:
                best_score = score
                best = candidate
        return best
