"""Vectorized min-sum belief propagation over GF(2) check matrices.

The decoder operates on the Tanner graph of an arbitrary binary check
matrix (either a code's parity-check matrix or a circuit-level detector
error model) with independent prior probabilities per error mechanism.
Every shot follows one rule: it iterates until its hard decision first
reproduces its syndrome, freezes there, and otherwise reports its state
after ``max_iterations``.

:meth:`BeliefPropagationDecoder.decode_batch` is the production loop.
It decodes all shots at once: messages are stored as ``(shots, edges)``
arrays, check-node updates use segmented reductions, converged shots
drop out of the arrays, and each iteration's hard decisions are verified
against syndromes packed into 64-check words.
:meth:`BeliefPropagationDecoder.decode_reference` is its per-shot
oracle; both return the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.linalg.bitops import pack_bits, packed_matmul_words

__all__ = ["BeliefPropagationDecoder", "BPResult"]


@dataclass
class BPResult:
    """Output of a batched BP decode.

    ``errors`` is the hard-decision error estimate per shot
    (``(shots, mechanisms)`` uint8), ``converged`` marks shots whose
    estimate reproduces the syndrome, and ``posterior_llrs`` holds the
    final per-mechanism log-likelihood ratios (positive = likely no
    error), which OSD post-processing consumes.  ``iterations`` is the
    most iterations any shot ran.
    """

    errors: np.ndarray
    converged: np.ndarray
    posterior_llrs: np.ndarray
    iterations: int


class BeliefPropagationDecoder:
    """Min-sum BP with optional normalisation (scaling) factor."""

    def __init__(self, check_matrix: np.ndarray, priors: np.ndarray,
                 max_iterations: int = 50, scaling_factor: float = 0.75,
                 clip_llr: float = 30.0, native: bool = False) -> None:
        check_matrix = np.asarray(check_matrix, dtype=np.uint8)
        if check_matrix.ndim != 2:
            raise ValueError("check matrix must be 2-D")
        self.check_matrix = check_matrix
        self.max_iterations = int(max_iterations)
        self.scaling_factor = float(scaling_factor)
        self.clip_llr = float(clip_llr)
        # Native kernel tier: the fused C min-sum check update and the
        # one-pass packed syndrome verification.  Both are bit-identical
        # to the numpy paths (the min-sum performs the identical IEEE
        # operations in the identical order), and when the host has no
        # C toolchain the probe returns None and this decoder silently
        # behaves exactly like a ``native=False`` one.
        self._native_kernels = None
        if native:
            from repro.linalg.native import get_kernels

            self._native_kernels = get_kernels()
        self.update_priors(priors)
        self._packed_check_rows = pack_bits(check_matrix, axis=1)

        checks, variables = np.nonzero(check_matrix)
        order = np.lexsort((variables, checks))
        self._edge_check = checks[order]
        self._edge_var = variables[order]
        self._num_edges = self._edge_check.shape[0]
        # Loop-invariant edge-position vector of the check update,
        # hoisted out of the per-iteration hot path.
        self._edge_positions = np.arange(self._num_edges)
        # Segment start of every check, for the native kernel (which
        # skips empty segments itself).
        self._check_starts = np.searchsorted(
            self._edge_check, np.arange(check_matrix.shape[0])
        )
        # numpy's reduceat reads an element even for an empty segment,
        # and a trailing empty check starts past the last edge, so the
        # numpy update reduces over the checks that have edges only:
        # their segment starts, and each edge's segment index.
        _, self._segment_starts, self._edge_segment = np.unique(
            self._edge_check, return_index=True, return_inverse=True
        )
        # Sparse edge -> variable incidence used to accumulate messages.
        self._edge_to_var = sparse.csr_matrix(
            (
                np.ones(self._num_edges),
                (self._edge_var, np.arange(self._num_edges)),
            ),
            shape=(check_matrix.shape[1], self._num_edges),
        )

    @property
    def num_checks(self) -> int:
        return int(self.check_matrix.shape[0])

    @property
    def num_mechanisms(self) -> int:
        return int(self.check_matrix.shape[1])

    # ------------------------------------------------------------------
    def update_priors(self, priors: np.ndarray) -> None:
        """Swap in new per-mechanism priors without rebuilding the graph.

        The Tanner-graph edge structure depends only on the check matrix,
        so sweeps that vary operating points (latency, physical error
        rate) can reuse one decoder and merely refresh the prior LLRs.
        """
        priors = np.asarray(priors, dtype=float)
        if priors.shape[0] != self.check_matrix.shape[1]:
            raise ValueError("need one prior per check-matrix column")
        if np.any(priors <= 0) or np.any(priors >= 1):
            priors = np.clip(priors, 1e-12, 1 - 1e-12)
        self.priors = priors
        self._prior_llrs = np.clip(
            np.log((1 - priors) / priors), -self.clip_llr, self.clip_llr
        )

    # ------------------------------------------------------------------
    def decode_batch(self, syndromes: np.ndarray) -> BPResult:
        """Decode a batch of syndromes (shape ``(shots, num_checks)``).

        Converged shots freeze at their first consistent state and drop
        out of all further message passing; the native kernels run the
        check update and the verification when they are bound.
        """
        syndromes, result = self._start(syndromes)
        shots = syndromes.shape[0]
        if shots == 0 or self._num_edges == 0:
            return result
        native = self._native_kernels
        var_to_check = np.tile(self._prior_llrs[self._edge_var], (shots, 1))
        syndrome_signs = np.where(syndromes, -1.0, 1.0)  # (shots, checks)
        # The syndromes stay packed as words from here on: one XOR per
        # 64 checks decides consistency each iteration.
        syndrome_words = pack_bits(syndromes, axis=1)
        active = np.arange(shots)

        for iteration in range(1, self.max_iterations + 1):
            result.iterations = iteration
            signs = syndrome_signs[active]
            if native is None:
                check_to_var = self._check_update(var_to_check, signs)
            else:
                check_to_var = native.min_sum_check_update(
                    var_to_check, signs, self._check_starts,
                    self.scaling_factor, self.clip_llr,
                )
            posterior, var_to_check = self._variable_update(check_to_var)

            errors = (posterior < 0).astype(np.uint8)
            achieved_words = packed_matmul_words(
                pack_bits(errors, axis=1), self._packed_check_rows,
                backend="packed" if native is None else "native",
            )
            satisfied = ~np.any(achieved_words ^ syndrome_words[active],
                                axis=1)

            done = active[satisfied]
            result.errors[done] = errors[satisfied]
            result.posterior_llrs[done] = posterior[satisfied]
            result.converged[done] = True
            keep = ~satisfied
            if iteration == self.max_iterations:
                # Last chance: report the final state of the shots that
                # never converged.
                rest = active[keep]
                result.errors[rest] = errors[keep]
                result.posterior_llrs[rest] = posterior[keep]
            active = active[keep]
            if active.size == 0:
                break
            var_to_check = var_to_check[keep]
        return result

    def decode_reference(self, syndromes: np.ndarray) -> BPResult:
        """Per-shot oracle for :meth:`decode_batch`.

        Each shot iterates alone through the numpy min-sum (never the
        native kernel), checks its hard decision with a dense
        ``H @ e mod 2`` and stops at its first consistent state.  The
        result must equal :meth:`decode_batch`'s byte for byte.
        """
        syndromes, result = self._start(syndromes)
        if self._num_edges == 0:
            return result
        for shot, syndrome in enumerate(syndromes):
            var_to_check = self._prior_llrs[self._edge_var][np.newaxis, :]
            signs = np.where(syndrome, -1.0, 1.0)[np.newaxis, :]
            for iteration in range(1, self.max_iterations + 1):
                posterior, var_to_check = self._variable_update(
                    self._check_update(var_to_check, signs))
                errors = (posterior[0] < 0).astype(np.uint8)
                result.errors[shot] = errors
                result.posterior_llrs[shot] = posterior[0]
                result.iterations = max(result.iterations, iteration)
                if np.array_equal(self.check_matrix @ errors % 2, syndrome):
                    result.converged[shot] = True
                    break
        return result

    # ------------------------------------------------------------------
    def _start(self, syndromes: np.ndarray) -> tuple[np.ndarray, BPResult]:
        """Validated boolean syndromes and the result before iteration 1.

        Errors are zero and posteriors are the priors.  A graph without
        edges has nothing to iterate on, so there a shot has converged
        exactly when its syndrome is empty.
        """
        syndromes = np.atleast_2d(np.asarray(syndromes)).astype(bool)
        if syndromes.shape[1] != self.num_checks:
            raise ValueError(
                f"syndrome length {syndromes.shape[1]} != {self.num_checks}"
            )
        shots = syndromes.shape[0]
        converged = np.zeros(shots, dtype=bool)
        if self._num_edges == 0:
            converged = ~syndromes.any(axis=1)
        return syndromes, BPResult(
            errors=np.zeros((shots, self.num_mechanisms), dtype=np.uint8),
            converged=converged,
            posterior_llrs=np.tile(self._prior_llrs, (shots, 1)),
            iterations=0,
        )

    def _variable_update(self, check_to_var):
        """Posterior LLRs and the next (clipped) variable-to-check messages."""
        accumulated = (self._edge_to_var @ check_to_var.T).T
        posterior = self._prior_llrs[np.newaxis, :] + accumulated
        var_to_check = posterior[:, self._edge_var] - check_to_var
        np.clip(var_to_check, -self.clip_llr, self.clip_llr,
                out=var_to_check)
        return posterior, var_to_check

    def _check_update(self, var_to_check, syndrome_signs):
        """Scaled min-sum check-node update, vectorized over shots and edges.

        The native ``min_sum_check_update`` runs the same update as one
        fused C pass over the edge segments, bit-identical to this numpy
        expression (same IEEE operations in the same order).
        """
        starts = self._segment_starts
        edge_segment = self._edge_segment
        abs_messages = np.abs(var_to_check)
        signs = np.where(var_to_check < 0, -1.0, 1.0)

        # Product of signs per check, then exclude self by dividing.
        sign_products = np.multiply.reduceat(signs, starts, axis=1)
        sign_excluding_self = sign_products[:, edge_segment] * signs

        # Minimum excluding self: min and "second minimum" per check.  Only
        # the *first* edge attaining the minimum in each check group is
        # treated as "the minimum edge"; tied edges keep the minimum as
        # their excluding-self value (another copy of it remains).
        min_per_check = np.minimum.reduceat(abs_messages, starts, axis=1)
        min_at_edges = min_per_check[:, edge_segment]
        edge_positions = self._edge_positions
        candidate_positions = np.where(
            abs_messages <= min_at_edges, edge_positions, self._num_edges
        )
        first_min_position = np.minimum.reduceat(
            candidate_positions, starts, axis=1
        )
        is_first_minimum = (
            edge_positions == first_min_position[:, edge_segment]
        )
        masked = np.where(is_first_minimum, np.inf, abs_messages)
        second_min_per_check = np.minimum.reduceat(masked, starts, axis=1)
        second_at_edges = second_min_per_check[:, edge_segment]
        min_excluding_self = np.where(
            is_first_minimum, second_at_edges, min_at_edges
        )
        # Degree-1 checks have no other edges: message magnitude is +inf
        # conceptually; clip instead.
        min_excluding_self = np.minimum(min_excluding_self, self.clip_llr)

        total_sign = syndrome_signs[:, self._edge_check] * sign_excluding_self
        return self.scaling_factor * total_sign * min_excluding_self
